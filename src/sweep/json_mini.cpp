#include "sweep/json_mini.hpp"

#include <cctype>
#include <cstdlib>

#include "common/check.hpp"

namespace axihc {

namespace {

class Parser {
 public:
  Parser(const std::string& text, std::string_view source)
      : text_(text), source_(source) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    AXIHC_REQUIRE(pos_ == text_.size(),
                  source_ << ": trailing characters at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    AXIHC_REQUIRE(pos_ < text_.size(),
                  source_ << ": unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    AXIHC_REQUIRE(peek() == c, source_ << ": expected '" << c
                                       << "' at offset " << pos_ << ", got '"
                                       << text_[pos_] << "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.raw = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    if (consume_literal("null")) return JsonValue{};
    return parse_number();
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      AXIHC_REQUIRE(pos_ < text_.size(), source_ << ": unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        AXIHC_REQUIRE(pos_ < text_.size(),
                      source_ << ": unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Our writers never emit \u escapes; keep them verbatim so the
            // value is at least inspectable.
            out += "\\u";
            break;
          default:
            AXIHC_REQUIRE(false,
                          source_ << ": unknown escape '\\" << e << "'");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    AXIHC_REQUIRE(pos_ > start,
                  source_ << ": expected a value at offset " << pos_);
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.raw = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.raw.c_str(), &end);
    AXIHC_REQUIRE(end == v.raw.c_str() + v.raw.size(),
                  source_ << ": bad number '" << v.raw << "'");
    return v;
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  const std::string& text_;
  std::string_view source_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

JsonValue parse_json(const std::string& text, std::string_view source) {
  return Parser(text, source).parse_document();
}

}  // namespace axihc
