#ifndef NDE_COMMON_JSON_H_
#define NDE_COMMON_JSON_H_

#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace nde {
namespace json {

/// Minimal JSON document model. The library *produces* JSON in several places
/// (metrics, run reports, Describe), but the serving layer is the first
/// consumer: `POST /jobs` bodies arrive as JSON, and tests parse responses.
/// Scope is exactly what that needs — objects, arrays, strings with the
/// standard escapes, numbers, booleans, null — with strict errors instead of
/// lenient recovery.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kObject, kArray };

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  /// Scalar accessors; only meaningful when the type matches.
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  /// Decoded string contents (escapes resolved).
  const std::string& as_string() const { return string_; }

  /// The verbatim source token for scalars ("1e-3" stays "1e-3", "true",
  /// "null"); empty for objects, arrays, and strings. Lets option maps keep a
  /// number's exact spelling instead of a double round-trip.
  const std::string& raw() const { return raw_; }

  /// Array elements (empty unless is_array()).
  const std::vector<Value>& items() const { return items_; }

  /// Object members in source order (empty unless is_object()). Duplicate
  /// keys are rejected at parse time.
  const std::vector<std::pair<std::string, Value>>& members() const {
    return members_;
  }

  /// Object lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;

  /// Construction (used by the parser; handy for tests).
  static Value Null();
  static Value Bool(bool value);
  static Value Number(double value, std::string raw);
  static Value String(std::string value);
  static Value Object(std::vector<std::pair<std::string, Value>> members);
  static Value Array(std::vector<Value> items);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::string raw_;
  std::vector<Value> items_;
  std::vector<std::pair<std::string, Value>> members_;
};

/// Parses one JSON document. Strict: the whole input must be consumed
/// (trailing garbage is an error), nesting depth is capped, and malformed
/// escapes/numbers/duplicated object keys return InvalidArgument with the
/// byte offset of the problem.
Result<Value> Parse(const std::string& text);

}  // namespace json

/// Escapes a string for embedding in a JSON string literal (no quotes
/// added): quote, backslash and control characters; every other byte is
/// copied as is. Every JSON emitter in the library uses this one escaper.
std::string JsonEscape(const std::string& text);

}  // namespace nde

#endif  // NDE_COMMON_JSON_H_
