#ifndef NDE_TESTS_CSV_REFERENCE_H_
#define NDE_TESTS_CSV_REFERENCE_H_

// The serial, row-wise CSV reader that the chunked parallel one in
// src/data/csv.cc replaced, kept as the oracle the data and property suites
// compare it against: same tables, same error codes and messages. The code
// is the old reader's, with its trace span dropped.

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/result.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/table.h"

namespace nde {
namespace csv_reference {

/// One parsed CSV record: its unquoted fields plus the 1-based physical line
/// it started on (quoted fields may span lines, so records and lines are not
/// one-to-one) and whether the record was a blank line (only whitespace, no
/// quotes or delimiters — such records are dropped at end of input, but a
/// quoted empty field `""` is a real one-null row, not a blank line).
struct RawRecord {
  std::vector<std::string> fields;
  size_t line_number = 1;
  bool blank = true;
};

/// Splits the whole input into records in one quote-aware scan. Unquoted LF
/// or CRLF terminates a record; inside quotes both are field content ("" is
/// an escaped quote). The final record is flushed even when the input does
/// not end in a newline, and a lone trailing '\r' at end of input closes the
/// record like a CRLF would. An unterminated quote is reported against the
/// line where the quote opened.
inline Status SplitCsvRecords(const std::string& text, char delimiter,
                       std::vector<RawRecord>* records) {
  records->clear();
  size_t line = 1;
  size_t quote_open_line = 1;
  RawRecord record;
  std::string current;
  bool in_quotes = false;
  bool record_started = false;  // any byte consumed since the last flush
  auto flush = [&]() {
    record.fields.push_back(std::move(current));
    current.clear();
    records->push_back(std::move(record));
    record = RawRecord{};
  };
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        if (c == '\n') ++line;
        current.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      quote_open_line = line;
      record.blank = false;
      record_started = true;
    } else if (c == delimiter) {
      record.fields.push_back(std::move(current));
      current.clear();
      record.blank = false;
      record_started = true;
    } else if (c == '\n' ||
               (c == '\r' &&
                (i + 1 == text.size() || text[i + 1] == '\n'))) {
      if (c == '\r' && i + 1 < text.size()) ++i;  // consume the CRLF pair
      flush();
      ++line;
      record.line_number = line;
      record_started = false;
    } else {
      if (!std::isspace(static_cast<unsigned char>(c))) record.blank = false;
      current.push_back(c);
      record_started = true;
    }
  }
  if (in_quotes) {
    // A dangling quote means the record is truncated or corrupt; silently
    // accepting it would glue the rest of the file into one field.
    return Status::InvalidArgument(
        StrFormat("line %zu has an unterminated quoted field",
                  quote_open_line));
  }
  if (record_started || !record.fields.empty() || !current.empty()) {
    flush();  // input ended without a trailing newline
  }
  // Drop trailing blank lines (but never quoted-empty records, see above).
  while (!records->empty() && records->back().blank) records->pop_back();
  return Status::OK();
}

inline bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

inline bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

inline Result<Table> ReadCsvString(const std::string& text,
                                   const CsvReadOptions& options = {}) {
  std::vector<RawRecord> raw_records;
  NDE_RETURN_IF_ERROR(
      SplitCsvRecords(text, options.delimiter, &raw_records));
  if (raw_records.empty()) return Status::InvalidArgument("empty CSV input");

  std::vector<std::string> names;
  size_t first_data_record = 0;
  if (options.has_header) {
    for (auto& n : raw_records[0].fields) {
      names.emplace_back(StripWhitespace(n));
    }
    first_data_record = 1;
  } else {
    for (size_t i = 0; i < raw_records[0].fields.size(); ++i) {
      names.push_back(StrFormat("c%zu", i));
    }
  }
  size_t num_cols = names.size();

  // Pass 1: validate record shapes and infer per-column types.
  std::vector<std::vector<std::string>> records;
  records.reserve(raw_records.size() - first_data_record);
  for (size_t i = first_data_record; i < raw_records.size(); ++i) {
    // Per-record chaos hook, keyed by the record index so probabilistic
    // injection replays bit-identically run to run.
    NDE_FAILPOINT_KEYED("csv.record", i - first_data_record);
    std::vector<std::string>& fields = raw_records[i].fields;
    size_t line_number = raw_records[i].line_number;
    if (fields.size() != num_cols) {
      return Status::InvalidArgument(
          StrFormat("line %zu has %zu fields, expected %zu", line_number,
                    fields.size(), num_cols));
    }
    if (options.max_field_bytes > 0) {
      for (size_t c = 0; c < fields.size(); ++c) {
        if (fields[c].size() > options.max_field_bytes) {
          return Status::InvalidArgument(StrFormat(
              "line %zu field %zu is %zu bytes, over the %zu-byte limit",
              line_number, c, fields[c].size(), options.max_field_bytes));
        }
      }
    }
    records.push_back(std::move(fields));
  }

  auto is_null_cell = [&options](const std::string& raw) {
    std::string trimmed(StripWhitespace(raw));
    return trimmed.empty() || trimmed == options.null_marker;
  };

  std::vector<DataType> types(num_cols, DataType::kInt64);
  std::vector<bool> saw_value(num_cols, false);
  for (const auto& record : records) {
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& raw = record[c];
      if (is_null_cell(raw)) continue;
      saw_value[c] = true;
      std::string trimmed(StripWhitespace(raw));
      int64_t iv;
      double dv;
      if (types[c] == DataType::kInt64 && !ParseInt64(trimmed, &iv)) {
        types[c] = DataType::kDouble;
      }
      if (types[c] == DataType::kDouble && !ParseDouble(trimmed, &dv)) {
        types[c] = DataType::kString;
      }
    }
  }
  for (size_t c = 0; c < num_cols; ++c) {
    if (!saw_value[c]) types[c] = DataType::kString;  // All-null: default.
  }

  std::vector<Field> fields;
  fields.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    fields.push_back(Field{names[c], types[c]});
  }
  Table table{Schema(std::move(fields))};

  // Pass 2: materialize typed cells.
  for (const auto& record : records) {
    std::vector<Value> row;
    row.reserve(num_cols);
    for (size_t c = 0; c < num_cols; ++c) {
      const std::string& raw = record[c];
      if (is_null_cell(raw)) {
        row.push_back(Value::Null());
        continue;
      }
      std::string trimmed(StripWhitespace(raw));
      switch (types[c]) {
        case DataType::kInt64: {
          int64_t iv = 0;
          ParseInt64(trimmed, &iv);
          row.emplace_back(iv);
          break;
        }
        case DataType::kDouble: {
          double dv = 0.0;
          ParseDouble(trimmed, &dv);
          row.emplace_back(dv);
          break;
        }
        case DataType::kString:
          row.emplace_back(raw);
          break;
      }
    }
    NDE_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

}  // namespace csv_reference
}  // namespace nde

#endif  // NDE_TESTS_CSV_REFERENCE_H_
