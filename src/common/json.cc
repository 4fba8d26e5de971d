#include "common/json.h"

#include <cstdlib>
#include <unordered_set>

#include "common/string_util.h"

namespace nde {
namespace json {

const Value* Value::Find(const std::string& key) const {
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Value Value::Null() {
  Value v;
  v.raw_ = "null";
  return v;
}

Value Value::Bool(bool value) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = value;
  v.raw_ = value ? "true" : "false";
  return v;
}

Value Value::Number(double value, std::string raw) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = value;
  v.raw_ = std::move(raw);
  return v;
}

Value Value::String(std::string value) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(value);
  return v;
}

Value Value::Object(std::vector<std::pair<std::string, Value>> members) {
  Value v;
  v.type_ = Type::kObject;
  v.members_ = std::move(members);
  return v;
}

Value Value::Array(std::vector<Value> items) {
  Value v;
  v.type_ = Type::kArray;
  v.items_ = std::move(items);
  return v;
}

namespace {

/// Recursive-descent parser over a borrowed string. Depth is capped so a
/// pathological request body cannot exhaust the serving thread's stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWhitespace();
    NDE_ASSIGN_OR_RETURN(Value value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after the JSON document");
    }
    return value;
  }

 private:
  static constexpr size_t kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(
        StrFormat("json: %s at byte %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    size_t len = std::string::traits_type::length(word);
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      NDE_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Value::String(std::move(s));
    }
    if (ConsumeWord("true")) return Value::Bool(true);
    if (ConsumeWord("false")) return Value::Bool(false);
    if (ConsumeWord("null")) return Value::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(StrFormat("unexpected character '%c'", c));
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ + 1 < text_.size() && text_[pos_] == '0' &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("leading zero in number");
    }
    if (!ConsumeDigits()) return Error("malformed number");
    if (Consume('.')) {
      if (!ConsumeDigits()) return Error("malformed number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Error("malformed number");
    }
    std::string raw = text_.substr(start, pos_ - start);
    // Evaluated before the call: the moved-from `raw` must not feed strtod
    // (argument evaluation order is unspecified).
    double value = std::strtod(raw.c_str(), nullptr);
    return Value::Number(value, std::move(raw));
  }

  bool ConsumeDigits() {
    size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ > start;
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          NDE_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // Surrogate pair: a leading surrogate must be followed by \uDCxx.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!ConsumeWord("\\u")) return Error("unpaired surrogate");
            NDE_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("unpaired surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error(StrFormat("invalid escape '\\%c'", e));
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("truncated \\u escape");
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("malformed \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<Value> ParseObject(size_t depth) {
    Consume('{');
    std::vector<std::pair<std::string, Value>> members;
    SkipWhitespace();
    if (Consume('}')) return Value::Object(std::move(members));
    // Keys seen so far, hashed: a request body may hold ~100k keys, and a
    // scan of the earlier members per key would be quadratic.
    std::unordered_set<std::string> keys;
    while (true) {
      SkipWhitespace();
      NDE_ASSIGN_OR_RETURN(std::string key, ParseString());
      if (!keys.insert(key).second) {
        return Error(StrFormat("duplicate object key '%s'", key.c_str()));
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      NDE_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Value::Object(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray(size_t depth) {
    Consume('[');
    std::vector<Value> items;
    SkipWhitespace();
    if (Consume(']')) return Value::Array(std::move(items));
    while (true) {
      SkipWhitespace();
      NDE_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Value::Array(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace json

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace nde
