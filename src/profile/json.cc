#include "profile/json.h"

#include <cmath>
#include <cstdio>

#include "common/error.h"

namespace ksum::profile {

bool Json::as_bool() const {
  KSUM_REQUIRE(type_ == Type::kBool, "JSON value is not a bool");
  return bool_;
}

double Json::as_double() const {
  KSUM_REQUIRE(type_ == Type::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& Json::as_string() const {
  KSUM_REQUIRE(type_ == Type::kString, "JSON value is not a string");
  return string_;
}

Json& Json::set(std::string key, Json value) {
  KSUM_REQUIRE(type_ == Type::kObject, "set() needs a JSON object");
  for (auto& member : members_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  KSUM_REQUIRE(type_ == Type::kArray, "push_back() needs a JSON array");
  items_.push_back(std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  KSUM_REQUIRE(found != nullptr,
               "JSON object has no member \"" + std::string(key) + "\"");
  return *found;
}

const Json& Json::at(std::size_t index) const {
  KSUM_REQUIRE(type_ == Type::kArray, "indexed access needs a JSON array");
  KSUM_REQUIRE(index < items_.size(), "JSON array index out of range");
  return items_[index];
}

std::size_t Json::size() const {
  if (type_ == Type::kArray) return items_.size();
  if (type_ == Type::kObject) return members_.size();
  return 0;
}

std::string json_number(double v) {
  KSUM_REQUIRE(std::isfinite(v), "JSON numbers must be finite");
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

// `indent` < 0 is the single-line form: no newlines, no space after ':'.
void Json::dump_to(std::string& out, int indent) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      out += json_number(number_);
      return;
    case Type::kString:
      escape_to(out, string_);
      return;
    case Type::kArray:
    case Type::kObject: {
      const auto newline = [&](int level) {
        if (indent < 0) return;
        out += '\n';
        out.append(static_cast<std::size_t>(level) * 2, ' ');
      };
      const bool array = type_ == Type::kArray;
      const std::size_t count = array ? items_.size() : members_.size();
      out += array ? '[' : '{';
      for (std::size_t i = 0; i < count; ++i) {
        if (i != 0) out += ',';
        newline(indent + 1);
        if (!array) {
          escape_to(out, members_[i].first);
          out += indent < 0 ? ":" : ": ";
        }
        (array ? items_[i] : members_[i].second)
            .dump_to(out, indent < 0 ? indent : indent + 1);
      }
      if (count != 0) newline(indent);
      out += array ? ']' : '}';
      return;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

std::string Json::dump_compact() const {
  std::string out;
  dump_to(out, -1);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw Error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                what);
  }
  void require(bool ok, const char* what) const {
    if (!ok) fail(what);
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }
  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }
  void expect_word(std::string_view word) {
    require(text_.substr(pos_, word.size()) == word, "invalid literal");
    pos_ += word.size();
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"':
        return Json(parse_string());
      case 't':
        expect_word("true");
        return Json(true);
      case 'f':
        expect_word("false");
        return Json(false);
      case 'n':
        expect_word("null");
        return Json();
      default:
        return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (consume('}')) return obj;
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      if (consume('}')) return obj;
      expect(',');
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (consume(']')) return arr;
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      if (consume(']')) return arr;
      expect(',');
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c != '\\') {
        require(static_cast<unsigned char>(c) >= 0x20,
                "unescaped control character in string");
        out += c;
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code += static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code += static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code += static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // The schemas are ASCII; keep non-ASCII escapes as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          fail("invalid escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    require(pos_ > start, "expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    require(end == token.c_str() + token.size() && std::isfinite(value),
            "malformed number");
    return Json(value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace ksum::profile
