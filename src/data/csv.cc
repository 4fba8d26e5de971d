#include "data/csv.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

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
Status SplitCsvRecords(const std::string& text, char delimiter,
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

bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

bool NeedsQuoting(const std::string& field, char delimiter) {
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') return true;
  }
  return false;
}

std::string QuoteField(const std::string& field) {
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

Result<Table> ReadCsvString(const std::string& text,
                            const CsvReadOptions& options) {
  NDE_TRACE_SPAN_VAR(span, "csv.parse", "data");
  NDE_SPAN_ARG(span, "bytes", static_cast<int64_t>(text.size()));
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
  NDE_SPAN_ARG(span, "rows", static_cast<int64_t>(table.num_rows()));
  return table;
}

Result<Table> ReadCsvFile(const std::string& path,
                          const CsvReadOptions& options) {
  NDE_FAILPOINT("csv.open");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsvString(buffer.str(), options);
}

std::string WriteCsvString(const Table& table, char delimiter) {
  std::ostringstream os;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) os << delimiter;
    const std::string& name = table.schema().field(c).name;
    os << (NeedsQuoting(name, delimiter) ? QuoteField(name) : name);
  }
  os << "\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) line.push_back(delimiter);
      std::string cell = table.At(r, c).ToString();
      line += NeedsQuoting(cell, delimiter) ? QuoteField(cell) : cell;
    }
    // A single-column null row would render as a blank line, which the
    // reader drops at end of input; a quoted empty field round-trips to the
    // same null without being mistaken for a trailing blank line.
    if (line.empty()) line = "\"\"";
    os << line << "\n";
  }
  return os.str();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError(StrFormat("cannot open '%s' for writing",
                                     path.c_str()));
  }
  out << WriteCsvString(table, delimiter);
  if (!out) {
    return Status::IOError(StrFormat("failed writing '%s'", path.c_str()));
  }
  return Status::OK();
}

}  // namespace nde
