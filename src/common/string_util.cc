#include "common/string_util.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <system_error>

#include "common/check.h"

namespace nde {

std::vector<std::string> SplitString(std::string_view text, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      parts.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return parts;
}

std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  size_t end = text.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.compare(0, prefix.size(), prefix) == 0;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string ToLowerAscii(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // Ensure |b| <= |a|.
  std::vector<size_t> prev(b.size() + 1);
  std::vector<size_t> curr(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t substitution = prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, substitution});
    }
    std::swap(prev, curr);
  }
  return prev[b.size()];
}

std::string StrFormat(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  NDE_CHECK_GE(needed, 0);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, format, args_copy);
  va_end(args_copy);
  return out;
}

std::string FormatDouble(double value) {
  // The shortest round-trip spelling (Ryu) fixes the digit count P: no
  // precision below P can read back as `value`. `%.Pg` may still miss it (at
  // a power of two the round-trip interval is lopsided, and the nearest
  // P-digit decimal can fall outside it), so step up until the read-back
  // matches. A value that never matches (NaN) keeps the 17-digit spelling.
  char buffer[32];
  char* const limit = buffer + sizeof(buffer);
  char* end = std::to_chars(buffer, limit, value, std::chars_format::scientific)
                  .ptr;
  int precision = std::max<int>(
      1, std::count_if(buffer, std::find(buffer, end, 'e'),
                       [](char c) { return c >= '0' && c <= '9'; }));
  for (; precision <= 17; ++precision) {
    end = std::to_chars(buffer, limit, value, std::chars_format::general,
                        precision)
              .ptr;
    double parsed = 0.0;
    if (std::from_chars(buffer, end, parsed).ec == std::errc() &&
        parsed == value) {
      break;
    }
  }
  return std::string(buffer, end);
}

}  // namespace nde
