#include "common/json_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace urr {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

bool JsonValue::AsInt64(int64_t* out) const {
  // -2^63 is a double; 2^63 is the first double past the int64 range.
  constexpr double kTwoPow63 = 9223372036854775808.0;
  if (!is_number() || !(number_ >= -kTwoPow63 && number_ < kTwoPow63) ||
      number_ != std::trunc(number_)) {
    return false;  // NaN fails the range test
  }
  *out = static_cast<int64_t>(number_);
  return true;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  int64_t out = fallback;
  return (v != nullptr && v->AsInt64(&out)) ? out : fallback;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->as_string()
                                          : std::string(fallback);
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

JsonValue JsonValue::Bool(bool v) {
  JsonValue j;
  j.kind_ = Kind::kBool;
  j.bool_ = v;
  return j;
}
JsonValue JsonValue::Number(double v) {
  JsonValue j;
  j.kind_ = Kind::kNumber;
  j.number_ = v;
  return j;
}
JsonValue JsonValue::String(std::string v) {
  JsonValue j;
  j.kind_ = Kind::kString;
  j.string_ = std::move(v);
  return j;
}
JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue j;
  j.kind_ = Kind::kArray;
  j.items_ = std::move(items);
  return j;
}
JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> m) {
  JsonValue j;
  j.kind_ = Kind::kObject;
  j.members_ = std::move(m);
  return j;
}

namespace {

constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWs();
    URR_ASSIGN_OR_RETURN(JsonValue v, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Err("trailing characters after the JSON document");
    }
    return v;
  }

 private:
  Status Err(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting deeper than 64 levels");
    if (AtEnd()) return Err("unexpected end of input");
    switch (Peek()) {
      case '{': return ParseObject(depth);
      case '[': return ParseArray(depth);
      case '"': {
        URR_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        URR_RETURN_NOT_OK(Expect("true"));
        return JsonValue::Bool(true);
      case 'f':
        URR_RETURN_NOT_OK(Expect("false"));
        return JsonValue::Bool(false);
      case 'n':
        URR_RETURN_NOT_OK(Expect("null"));
        return JsonValue::Null();
      default:
        return ParseNumber();
    }
  }

  Status Expect(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return Err("expected '" + std::string(word) + "'");
    }
    pos_ += word.size();
    return Status::OK();
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (!AtEnd() && Peek() == '-') ++pos_;
    while (!AtEnd() && (std::isdigit(static_cast<unsigned char>(Peek())) ||
                        Peek() == '.' || Peek() == 'e' || Peek() == 'E' ||
                        Peek() == '+' || Peek() == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    // Strict JSON: no leading zeros ("01") — strtod would accept them.
    const size_t digits = token[0] == '-' ? 1 : 0;
    if (token.size() > digits + 1 && token[digits] == '0' &&
        std::isdigit(static_cast<unsigned char>(token[digits + 1]))) {
      pos_ = start;
      return Err("malformed number '" + token + "'");
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(v)) {
      pos_ = start;
      return Err("malformed number '" + token + "'");
    }
    return JsonValue::Number(v);
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (AtEnd()) return Err("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Err("raw control character inside a string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (AtEnd()) return Err("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Err("truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else return Err("bad hex digit in \\u escape");
          }
          // UTF-8 encode the code point (surrogate pairs are passed through
          // as two 3-byte sequences — the protocol never emits them).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Err(std::string("unknown escape '\\") + esc + "'");
      }
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWs();
    if (!AtEnd() && Peek() == ']') {
      ++pos_;
      return JsonValue::Array(std::move(items));
    }
    while (true) {
      SkipWs();
      URR_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      items.push_back(std::move(v));
      SkipWs();
      if (AtEnd()) return Err("unterminated array");
      const char c = text_[pos_++];
      if (c == ']') return JsonValue::Array(std::move(items));
      if (c != ',') {
        --pos_;
        return Err("expected ',' or ']' in array");
      }
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWs();
    if (!AtEnd() && Peek() == '}') {
      ++pos_;
      return JsonValue::Object(std::move(members));
    }
    while (true) {
      SkipWs();
      if (AtEnd() || Peek() != '"') return Err("expected an object key");
      URR_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (AtEnd() || text_[pos_] != ':') return Err("expected ':' after key");
      ++pos_;
      SkipWs();
      URR_ASSIGN_OR_RETURN(JsonValue v, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(v));
      SkipWs();
      if (AtEnd()) return Err("unterminated object");
      const char c = text_[pos_++];
      if (c == '}') return JsonValue::Object(std::move(members));
      if (c != ',') {
        --pos_;
        return Err("expected ',' or '}' in object");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace urr
