#include "common/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <unordered_set>
#include <utility>

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

namespace {

/// Length of the well-formed UTF-8 sequence that starts at text[i], a byte
/// of 0x80 or above, or 0 when none does. RFC 3629's second-byte ranges rule
/// out overlong forms (E0, F0), surrogates (ED) and code points past U+10FFFF.
size_t Utf8SequenceLength(std::string_view text, size_t i) {
  unsigned char lead = static_cast<unsigned char>(text[i]);
  size_t length = lead >= 0xF0 ? 4 : lead >= 0xE0 ? 3 : 2;
  if (lead < 0xC2 || lead > 0xF4 || text.size() - i < length) return 0;
  unsigned char lo = lead == 0xE0 ? 0xA0 : lead == 0xF0 ? 0x90 : 0x80;
  unsigned char hi = lead == 0xED ? 0x9F : lead == 0xF4 ? 0x8F : 0xBF;
  for (size_t k = 1; k < length; ++k, lo = 0x80, hi = 0xBF) {
    unsigned char c = static_cast<unsigned char>(text[i + k]);
    if (c < lo || c > hi) return 0;
  }
  return length;
}

/// Appends `text` as a JSON string literal (see Writer).
void AppendQuoted(std::string_view text, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  for (size_t i = 0; i < text.size();) {
    unsigned char c = static_cast<unsigned char>(text[i]);
    size_t length = c < 0x80 ? 1 : Utf8SequenceLength(text, i);
    if (length == 0) {
      out->append("\\ufffd");
      length = 1;
    } else if (c == '"' || c == '\\') {
      out->append({'\\', static_cast<char>(c)});
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out->append({'\\', c == '\n' ? 'n' : c == '\r' ? 'r' : 't'});
    } else if (c < 0x20) {
      out->append({'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]});
    } else {
      out->append(text.substr(i, length));
    }
    i += length;
  }
  out->push_back('"');
}

}  // namespace

void Writer::Separate() {
  if (comma_) out_.push_back(',');
  comma_ = true;
}

Writer& Writer::Open(char bracket) {
  Separate();
  out_.push_back(bracket);
  comma_ = false;
  return *this;
}

Writer& Writer::Close(char bracket) {
  out_.push_back(bracket);
  comma_ = true;
  return *this;
}

Writer& Writer::Key(std::string_view key) {
  String(key);
  out_.push_back(':');
  comma_ = false;
  return *this;
}

Writer& Writer::String(std::string_view value) {
  Separate();
  AppendQuoted(value, &out_);
  return *this;
}

Writer& Writer::Int(int64_t value) {
  char buffer[24];
  return Raw({buffer, std::to_chars(buffer, std::end(buffer), value).ptr});
}

Writer& Writer::Uint(uint64_t value) {
  char buffer[24];
  return Raw({buffer, std::to_chars(buffer, std::end(buffer), value).ptr});
}

Writer& Writer::Double(double value) {
  return Raw(std::isfinite(value) ? FormatDouble(value) : "null");
}

Writer& Writer::Raw(std::string_view json) {
  Separate();
  out_.append(json);
  return *this;
}

std::string Writer::Take() {
  comma_ = false;
  return std::exchange(out_, {});
}

}  // namespace json
}  // namespace nde
