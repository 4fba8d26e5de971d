#ifndef NDE_COMMON_STRING_UTIL_H_
#define NDE_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

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

/// Parses a decimal non-negative integer: digits only (no sign, no
/// whitespace) that fit in 64 bits, else InvalidArgument quoting `text`.
Result<uint64_t> ParseUnsigned(const std::string& text);

/// Parses a finite number as strtod spells one, consuming all of `text`,
/// else InvalidArgument quoting `text`.
Result<double> ParseDouble(const std::string& text);

/// Shortest decimal spelling that strtod parses back to exactly `value`, so
/// every serialized double (registry options, job results, run reports)
/// round-trips bit-identically. The bytes are pinned: the first precision P
/// at which `%.Pg` reads back as `value` ("nan"/"-nan" spell as `%.17g`).
/// One pass: the shortest round-trip digit count from std::to_chars is the
/// lowest P that can match, so the search starts there (DESIGN.md §13).
std::string FormatDouble(double value);

}  // namespace nde

#endif  // NDE_COMMON_STRING_UTIL_H_
