#ifndef NDE_COMMON_STRING_UTIL_H_
#define NDE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace nde {

/// Splits `text` on `delimiter`, keeping empty fields ("a,,b" -> 3 fields).
std::vector<std::string> SplitString(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view separator);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// Case-sensitive prefix/suffix tests.
bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// ASCII lowercase copy.
std::string ToLowerAscii(std::string_view text);

/// Levenshtein edit distance between two strings (O(|a|*|b|) time,
/// O(min(|a|,|b|)) space). Used by the fuzzy-join pipeline operator.
size_t EditDistance(std::string_view a, std::string_view b);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Shortest decimal spelling that strtod parses back to exactly `value`, so
/// every serialized double (registry options, job results, run reports)
/// round-trips bit-identically.
std::string FormatDouble(double value);

}  // namespace nde

#endif  // NDE_COMMON_STRING_UTIL_H_
