// Minimal recursive-descent JSON parser for the dispatch service's wire
// protocol (src/server/). Parses the full JSON grammar into a JsonValue
// tree; objects keep insertion order. Built for small request frames, not
// bulk data: inputs are capped by the protocol's frame limit and nesting is
// capped to keep a hostile payload from recursing the stack away.
#ifndef URR_COMMON_JSON_PARSER_H_
#define URR_COMMON_JSON_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace urr {

/// One parsed JSON value. A tagged tree: scalars hold their value inline,
/// containers own their children.
class JsonValue {
 public:
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// True when this is a finite, integral number within int64, which is
  /// then stored in `*out`. A plain cast would truncate 3.7 and is
  /// undefined for 1e300.
  bool AsInt64(int64_t* out) const;
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// Object lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed object lookups with defaults (the idiom request handlers use).
  /// GetInt falls back unless the value passes AsInt64.
  double GetNumber(std::string_view key, double fallback) const;
  int64_t GetInt(std::string_view key, int64_t fallback) const;
  std::string GetString(std::string_view key, std::string_view fallback) const;
  bool GetBool(std::string_view key, bool fallback) const;
  /// True when the key is present AND holds the expected kind.
  bool Has(std::string_view key) const { return Find(key) != nullptr; }

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v);
  static JsonValue Number(double v);
  static JsonValue String(std::string v);
  static JsonValue Array(std::vector<JsonValue> items);
  static JsonValue Object(std::vector<std::pair<std::string, JsonValue>> m);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Parses exactly one JSON document (leading/trailing whitespace allowed;
/// trailing garbage is an error). Rejects: unterminated strings/containers,
/// bad escapes, bare NaN/Infinity, nesting deeper than 64 levels.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace urr

#endif  // URR_COMMON_JSON_PARSER_H_
