// The one checked reader for JSON records, and field tables.
//
// Records leave the program (ksum-prof, ksum-tune, ksum-serve stats) and
// come back in (device profiles, tuning caches, serve requests) as Json
// documents. A Reader is a view of one value in a record that carries the
// record's schema tag and the value's path, so every rejection reads
// "<schema>: <path>: <problem>", e.g. "ksum-device-profile-v1:
// device.num_sms: missing". The path is kept by value as views of the key
// strings, so reading a well-formed record allocates nothing; the message is
// built only on the throw path. Integer reads reject NaN, fractions and
// values outside the target type before converting (the conversion itself
// is undefined behaviour out of range).
//
// A field table lists a struct's serialised members once, as {name, member
// pointer} pairs in emission order; write() and read() both walk it.
// Loaders also close the object (Reader::closed) so unknown keys are errors.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "profile/json.h"

namespace ksum::profile {

class Reader {
 public:
  /// The root of a record; `schema` must outlive every derived reader.
  Reader(const Json& root, std::string_view schema)
      : value_(&root), schema_(schema) {}

  const Json& json() const { return *value_; }
  /// This value as an object / array length; any other type is rejected.
  const Json& object() const;
  std::size_t size() const;

  /// Required member (missing is an error) and array element.
  Reader member(std::string_view key) const;
  Reader at(std::size_t index) const;
  /// Optional member: nullopt when absent.
  std::optional<Reader> find(std::string_view key) const;

  const std::string& string() const;
  double number() const;
  bool boolean() const;
  /// An integral number in [min, T's max]; NaN and fractions are rejected.
  template <class T>
  T integer(T min = std::numeric_limits<T>::min()) const;
  /// The getter for T: boolean(), number() or integer<T>().
  template <class T>
  T as() const {
    if constexpr (std::is_same_v<T, bool>) {
      return boolean();
    } else if constexpr (std::is_same_v<T, double>) {
      return number();
    } else {
      return integer<T>();
    }
  }
  /// Optional member: `fallback` when absent, as<T>() when present.
  template <class T>
  T value_or(std::string_view key, T fallback) const {
    const std::optional<Reader> value = find(key);
    return value ? value->as<T>() : fallback;
  }

  /// Rejects any member that is neither in `keys` nor a field of `tables`.
  template <class... Tables>
  void closed(std::initializer_list<std::string_view> keys,
              const Tables&... tables) const;

  void expect(bool ok, std::string_view problem) const {
    if (!ok) fail(problem);
  }
  /// Throws ksum::Error "<schema>: <path>: <problem>".
  [[noreturn]] void fail(std::string_view problem) const;

 private:
  /// An object key, or (key.data() == nullptr) an array index.
  struct Step {
    std::string_view key;
    std::size_t index = 0;
  };

  Reader child(Step step, const Json& value) const;

  const Json* value_;
  std::string_view schema_;
  std::array<Step, 12> path_{};
  std::size_t depth_ = 0;
};

/// One serialised member of S.
template <class S>
struct Field {
  std::string_view name;
  std::variant<int S::*, std::size_t S::*, double S::*, bool S::*> member;
};

template <class S>
using Fields = std::span<const Field<S>>;

/// Appends every field of `fields` to `object`, in table order.
template <class S>
void write(Json& object, const S& s, Fields<std::type_identity_t<S>> fields) {
  for (const Field<S>& field : fields) {
    std::visit(
        [&](auto member) { object.set(std::string(field.name), s.*member); },
        field.member);
  }
}

/// Reads every field of `fields` into `s`; each one is required and typed.
template <class S>
void read(const Reader& object, S& s, Fields<std::type_identity_t<S>> fields) {
  for (const Field<S>& field : fields) {
    const Reader value = object.member(field.name);
    std::visit(
        [&](auto member) {
          s.*member = value.as<std::remove_reference_t<decltype(s.*member)>>();
        },
        field.member);
  }
}

/// Parses the JSON file at `path`; `what` names it in the error.
Json read_file(const std::string& path, std::string_view what);
/// Writes `text` to `path`; throws ksum::Error when it cannot.
void write_file(const std::string& path, const std::string& text);

template <class T>
T Reader::integer(T min) const {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  const double v = number();
  // T's range ends at max + 1 (exclusive), exact in double; so is any
  // min a caller passes here.
  constexpr double hi =
      2.0 * static_cast<double>(std::numeric_limits<T>::max() / 2 + 1);
  if (!(v >= static_cast<double>(min) && v < hi && std::trunc(v) == v)) {
    fail("must be an integer in [" + std::to_string(min) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  return static_cast<T>(v);
}

template <class... Tables>
void Reader::closed(std::initializer_list<std::string_view> keys,
                    const Tables&... tables) const {
  [[maybe_unused]] const auto in = [](const auto& table, std::string_view k) {
    return std::any_of(std::begin(table), std::end(table),
                       [&](const auto& field) { return field.name == k; });
  };
  for (const auto& [key, value] : object().members()) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        !(in(tables, key) || ...)) {
      child(Step{key}, value).fail("unknown key");
    }
  }
}

}  // namespace ksum::profile
