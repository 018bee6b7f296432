#include "profile/record.h"

#include <fstream>
#include <sstream>

#include "common/error.h"

namespace ksum::profile {

Reader Reader::child(Step step, const Json& value) const {
  // Paths grow by the code's navigation, never by input: the deepest (a
  // shard record's site energy) is 9 steps.
  KSUM_CHECK(depth_ < path_.size());
  Reader out = *this;
  out.value_ = &value;
  out.path_[out.depth_++] = step;
  return out;
}

const Json& Reader::object() const {
  if (!value_->is_object()) fail("must be an object");
  return *value_;
}

Reader Reader::member(std::string_view key) const {
  const Json* value = object().find(key);
  if (value == nullptr) child(Step{key}, *value_).fail("missing");
  return child(Step{key}, *value);
}

std::optional<Reader> Reader::find(std::string_view key) const {
  const Json* value = object().find(key);
  if (value == nullptr) return std::nullopt;
  return child(Step{key}, *value);
}

std::size_t Reader::size() const {
  if (!value_->is_array()) fail("must be an array");
  return value_->size();
}

Reader Reader::at(std::size_t index) const {
  if (index >= size()) fail("has no element " + std::to_string(index));
  return child(Step{{}, index}, value_->items()[index]);
}

const std::string& Reader::string() const {
  if (!value_->is_string()) fail("must be a string");
  return value_->as_string();
}

double Reader::number() const {
  if (!value_->is_number()) fail("must be a number");
  return value_->as_double();
}

bool Reader::boolean() const {
  if (!value_->is_bool()) fail("must be a boolean");
  return value_->as_bool();
}

void Reader::fail(std::string_view problem) const {
  std::string path;
  for (std::size_t i = 0; i < depth_; ++i) {
    const Step& step = path_[i];
    if (step.key.data() == nullptr) {
      path += "[" + std::to_string(step.index) + "]";
    } else {
      if (!path.empty()) path += '.';
      path += step.key;
    }
  }
  if (path.empty()) path = "record";
  throw Error(std::string(schema_) + ": " + path + ": " +
              std::string(problem));
}

Json read_file(const std::string& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + std::string(what) + ": " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open " + path + " for writing");
  out << text;
  out.close();
  if (!out) throw Error("failed writing " + path);
}

}  // namespace ksum::profile
