#ifndef NDE_DATA_CSV_H_
#define NDE_DATA_CSV_H_

#include <cstddef>
#include <string>

#include "common/result.h"
#include "data/table.h"

namespace nde {

/// The reader cuts its input into chunks of this many bytes and parses them
/// on up to DefaultNumThreads() workers; an input of one chunk or less runs
/// on the calling thread. A constant rather than an option: the table read
/// does not depend on it (DESIGN.md §8).
inline constexpr size_t kCsvChunkBytes = size_t{1} << 20;

/// Options controlling CSV parsing.
struct CsvReadOptions {
  /// Any byte but LF, which always ends a record outside quotes.
  char delimiter = ',';
  /// When true, the first line provides column names; otherwise columns are
  /// named "c0", "c1", ...
  bool has_header = true;
  /// Cells equal to this marker (after trimming) are parsed as null, in
  /// addition to empty cells.
  std::string null_marker = "n/a";
  /// Reject any field longer than this many bytes (0 = unlimited). A guard
  /// against corrupt inputs — an unclosed quote or binary garbage can glue
  /// megabytes into one "field"; better a typed error than a silent
  /// memory-hungry parse.
  size_t max_field_bytes = 0;
};

/// Parses CSV text into a Table. Column types are inferred from the data:
/// a column is int64 if every non-null cell parses as an integer, double if
/// every non-null cell parses as a number, and string otherwise.
///
/// Quoting follows RFC 4180: fields may be double-quoted, `""` escapes a
/// quote, and a quoted field may contain delimiters and line breaks (LF or
/// CRLF), so records can span physical lines. Records end at unquoted LF or
/// CRLF; a final record without a trailing newline is still read. Errors are
/// reported against the physical line where the record (or the offending
/// quote) started; an unterminated quote is reported before any record
/// error, and record errors in record order. The table and the error are
/// the same for any thread count.
Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options = {});

/// Reads a CSV file into memory in one read and parses it. A file that
/// cannot be opened or read in full is an IOError.
Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options = {});

/// Serializes a table to CSV text (header included, nulls as empty cells,
/// fields containing the delimiter/quotes/newlines are double-quoted).
std::string WriteCsvString(const Table& table, char delimiter = ',');

/// Writes a table to a CSV file.
Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter = ',');

}  // namespace nde

#endif  // NDE_DATA_CSV_H_
