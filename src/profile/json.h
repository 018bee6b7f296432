// Minimal ordered JSON document model for the profiling exporters.
//
// The profiler emits machine-readable artifacts (ksum-prof records, Chrome
// trace files, BENCH_*.json) and the tests re-read them to validate the
// schema, so both directions live here: a builder that preserves insertion
// order (stable diffs, golden-friendly output) and a strict recursive-descent
// parser. This is deliberately not a general JSON library — numbers are
// doubles, no comments, no trailing commas — exactly the subset the schemas
// use.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ksum::profile {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : Json(static_cast<double>(v)) {}
  Json(unsigned v) : Json(static_cast<double>(v)) {}
  Json(std::uint64_t v) : Json(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }
  static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw ksum::Error when the value has another type.
  bool as_bool() const;
  double as_double() const;
  const std::string& as_string() const;

  /// Object member insertion (keeps insertion order; replaces an existing
  /// key in place). Returns *this for chaining.
  Json& set(std::string key, Json value);

  /// Array append.
  Json& push_back(Json value);

  /// Object lookup. `find` returns nullptr when absent; `at` throws
  /// ksum::Error naming the missing key.
  const Json* find(std::string_view key) const;
  const Json& at(std::string_view key) const;
  bool has(std::string_view key) const { return find(key) != nullptr; }

  /// Array element access (throws ksum::Error when out of range).
  const Json& at(std::size_t index) const;

  /// Array length / object member count.
  std::size_t size() const;

  const std::vector<Json>& items() const { return items_; }
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Serialises with 2-space indentation and '\n' line ends; numbers print
  /// as integers when exactly integral, %.17g otherwise (round-trip safe).
  std::string dump() const;

  /// Single-line serialisation (no whitespace, no trailing newline) for
  /// newline-delimited protocols (the ksum-serve wire format). Same number
  /// and escaping rules as dump(), so both forms parse back identically.
  std::string dump_compact() const;

  /// Strict parser; throws ksum::Error with byte offset on malformed input.
  static Json parse(std::string_view text);

 private:
  void dump_to(std::string& out, int indent) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<Json> items_;                             // kArray
  std::vector<std::pair<std::string, Json>> members_;   // kObject
};

/// Formats a double the way Json::dump does (shared with the CSV emitters
/// that want identical number text in both artifacts).
std::string json_number(double v);

}  // namespace ksum::profile
