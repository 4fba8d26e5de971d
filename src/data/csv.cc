#include "data/csv.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

constexpr size_t kNone = std::numeric_limits<size_t>::max();

/// The least of int64 < double < string that every non-null cell of a
/// column seen so far parses as; kNoValue until a non-null cell shows up.
/// Joining two column summaries is max(): int64 text always parses as a
/// double too, so the order is a chain.
enum class Need : uint8_t { kNoValue, kInt64, kDouble, kString };

/// strtoll's base-10 grammar over the whole view: an optional sign and
/// digits, in range.
bool ParseInt64(std::string_view text, int64_t* out) {
  size_t sign = !text.empty() && (text[0] == '+' || text[0] == '-') ? 1 : 0;
  if (text.size() == sign) return false;
  for (size_t i = sign; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
  }
  // from_chars takes a '-' but not a '+'; it rejects text out of range.
  const char* end = text.data() + text.size();
  std::from_chars_result parsed =
      std::from_chars(text.data() + (text[0] == '+' ? 1 : 0), end, *out);
  return parsed.ec == std::errc() && parsed.ptr == end;
}

/// strtod over the whole view (copied to a terminated buffer); text out of
/// double's range (ERANGE) does not parse.
bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  char small[64];
  std::string large;
  const char* start = small;
  if (text.size() < sizeof(small)) {
    std::memcpy(small, text.data(), text.size());
    small[text.size()] = '\0';
  } else {
    large.assign(text);
    start = large.c_str();
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(start, &end);
  if (errno != 0 || end != start + text.size()) return false;
  *out = v;
  return true;
}

/// The input, the options and the column count every pass reads.
struct CsvInput {
  CsvInput(std::string_view text, const CsvReadOptions& options)
      : text(text), options(options) {
    for (char c : {options.delimiter, '"', '\n', '\r'}) {
      special[static_cast<unsigned char>(c)] = true;
    }
  }

  bool IsNull(std::string_view trimmed) const {
    return trimmed.empty() || trimmed == options.null_marker;
  }

  std::string_view text;
  const CsvReadOptions& options;
  /// Bytes that can end an unquoted run: the delimiter, '"', LF and CR.
  std::array<bool, 256> special{};
  size_t num_cols = 0;
};

/// What SplitRecord learned about one record.
struct RecordShape {
  size_t next = 0;     ///< first byte after the record's line break
  size_t lines = 0;    ///< LF bytes inside the record and its line break
  bool blank = false;  ///< one field, no quotes, whitespace only
  /// When the record runs off the end of the input inside quotes: the LF
  /// bytes between its start and the quote that opened them.
  size_t unterminated_at = kNone;
};

/// Splits the record that starts at `pos` (outside quotes) and appends one
/// view per field to `cells`: a view of the input for a field without
/// quotes, else of a string appended to `unescaped`, whose elements never
/// move. Quoting follows RFC 4180 as ReadCsvString documents it: inside
/// quotes a delimiter or line break is content and `""` is one quote, and a
/// quote outside quotes opens them anywhere in a field. The record ends at
/// an unquoted LF or CRLF, at a CR that ends the input, or at the end of the
/// input.
RecordShape SplitRecord(const CsvInput& in, size_t pos,
                        std::vector<std::string_view>* cells,
                        std::deque<std::string>* unescaped) {
  const std::string_view text = in.text;
  const size_t n = text.size();
  const size_t first_cell = cells->size();
  RecordShape shape;
  bool quoted = false;
  size_t field = pos;  // where the current field starts
  size_t run = pos;    // unquoted bytes from here on are not yet in `buffer`
  std::string* buffer = nullptr;  // the field's bytes once it has a quote
  auto end_field = [&](size_t end) {
    if (buffer == nullptr) {
      cells->emplace_back(text.data() + field, end - field);
      return;
    }
    buffer->append(text.substr(run, end - run));
    cells->emplace_back(*buffer);
    buffer = nullptr;
  };
  size_t i = pos;
  for (;;) {
    while (i < n && !in.special[static_cast<unsigned char>(text[i])]) ++i;
    if (i == n) {
      end_field(n);
      shape.next = n;
      break;
    }
    char c = text[i];
    if (c == '"') {
      quoted = true;
      if (buffer == nullptr) {
        buffer = &unescaped->emplace_back();
        run = field;
      }
      buffer->append(text.substr(run, i - run));
      size_t open_lines = shape.lines;
      for (++i;;) {
        size_t close = text.find('"', i);
        if (close == std::string_view::npos) {
          cells->resize(first_cell);
          shape.unterminated_at = open_lines;
          return shape;
        }
        shape.lines += static_cast<size_t>(
            std::count(text.begin() + i, text.begin() + close, '\n'));
        buffer->append(text.substr(i, close - i));
        i = close + 1;
        if (i == n || text[i] != '"') break;
        buffer->push_back('"');
        ++i;
      }
      run = i;
    } else if (c == in.options.delimiter) {
      end_field(i);
      field = run = ++i;
    } else if (c == '\n' || i + 1 == n || text[i + 1] == '\n') {
      // c is LF, or a CR that ends the input or starts a CRLF.
      end_field(i);
      shape.next = c == '\r' && i + 1 < n ? i + 2 : i + 1;
      if (text[shape.next - 1] == '\n') ++shape.lines;
      break;
    } else {
      ++i;  // a CR inside a field is content
    }
  }
  if (!quoted && cells->size() == first_cell + 1) {
    std::string_view only = cells->back();
    shape.blank = std::all_of(only.begin(), only.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) != 0;
    });
  }
  return shape;
}

Status UnterminatedQuote(size_t line) {
  // A dangling quote means the record is truncated or corrupt; silently
  // accepting it would glue the rest of the file into one field.
  return Status::InvalidArgument(
      StrFormat("line %zu has an unterminated quoted field", line));
}

/// A failing record, by its index among its chunk's records.
struct RecordError {
  size_t record = kNone;
  Status status;
};

/// One chunk of the input and what each pass learned about it.
struct Chunk {
  size_t begin = 0, end = 0;  ///< input bytes [begin, end)

  // Pass 1.
  size_t quotes = 0, newlines = 0;

  // Serial prefix: the scanner's state at `begin`. Every quote flips it
  // (an escaped `""` flips it twice), so it is the parity of the quotes
  // before the chunk.
  bool in_quotes = false;
  size_t line = 1;  ///< physical line of byte `begin`

  // Pass 2, over the records that start in [begin, end).
  size_t records = 0;
  size_t last_nonblank = kNone;
  std::vector<std::string_view> cells;  ///< num_cols per record kept
  std::deque<std::string> unescaped;
  std::vector<Need> needs;  ///< per column, over the records kept
  RecordError error;        ///< the chunk's first failing record
  size_t unterminated_line = kNone;

  // Serial join.
  size_t first_record = 0;  ///< index of the chunk's first record; header 0
  size_t first_row = 0, rows = 0;
};

void CountChunk(std::string_view text, Chunk* chunk) {
  size_t quotes = 0, newlines = 0;
  for (size_t i = chunk->begin; i < chunk->end; ++i) {
    quotes += text[i] == '"';
    newlines += text[i] == '\n';
  }
  chunk->quotes = quotes;
  chunk->newlines = newlines;
}

Status CheckRecord(const CsvInput& in, size_t line,
                   const std::string_view* cells, size_t count) {
  if (count != in.num_cols) {
    return Status::InvalidArgument(
        StrFormat("line %zu has %zu fields, expected %zu", line, count,
                  in.num_cols));
  }
  size_t limit = in.options.max_field_bytes;
  for (size_t c = 0; limit > 0 && c < count; ++c) {
    if (cells[c].size() > limit) {
      return Status::InvalidArgument(StrFormat(
          "line %zu field %zu is %zu bytes, over the %zu-byte limit", line, c,
          cells[c].size(), limit));
    }
  }
  return Status::OK();
}

void InferTypes(const CsvInput& in, const std::string_view* cells,
                std::vector<Need>* needs) {
  for (size_t c = 0; c < in.num_cols; ++c) {
    Need& need = (*needs)[c];
    if (need == Need::kString) continue;
    std::string_view trimmed = StripWhitespace(cells[c]);
    if (in.IsNull(trimmed)) continue;
    int64_t iv = 0;
    double dv = 0.0;
    Need cell = need <= Need::kInt64 && ParseInt64(trimmed, &iv)
                    ? Need::kInt64
                : ParseDouble(trimmed, &dv) ? Need::kDouble
                                            : Need::kString;
    need = std::max(need, cell);
  }
}

/// Pass 2: splits the records that start in the chunk (the first one at
/// `body` in chunk 0, else after the chunk's first unquoted LF), checks each
/// against the header and folds its cells into the column types. After its
/// first failing record the chunk keeps splitting only to find an
/// unterminated quote, which outranks it.
void SplitChunk(const CsvInput& in, size_t body, size_t body_line,
                Chunk* chunk) {
  const std::string_view text = in.text;
  size_t pos = kNone;
  size_t line = chunk->line;
  if (chunk->begin == 0) {
    pos = body;
    line = body_line;
  } else {
    bool in_quotes = chunk->in_quotes;
    if (!in_quotes && text[chunk->begin - 1] == '\n') pos = chunk->begin;
    for (size_t j = chunk->begin; pos == kNone && j + 1 < chunk->end; ++j) {
      if (text[j] == '"') {
        in_quotes = !in_quotes;
      } else if (text[j] == '\n') {
        ++line;
        if (!in_quotes) pos = j + 1;
      }
    }
    if (pos == kNone) return;  // a record from an earlier chunk covers it
  }
  while (pos < chunk->end) {
    size_t record = chunk->records++;
    size_t first = chunk->cells.size();
    RecordShape shape = SplitRecord(in, pos, &chunk->cells, &chunk->unescaped);
    if (shape.unterminated_at != kNone) {
      chunk->unterminated_line = line + shape.unterminated_at;
      return;
    }
    size_t record_line = line;
    line += shape.lines;
    pos = shape.next;
    if (!shape.blank) chunk->last_nonblank = record;
    if (chunk->error.record == kNone) {
      Status status = CheckRecord(in, record_line, chunk->cells.data() + first,
                                  chunk->cells.size() - first);
      if (status.ok()) {
        InferTypes(in, chunk->cells.data() + first, &chunk->needs);
        continue;
      }
      chunk->error = {record, std::move(status)};
    }
    chunk->cells.resize(first);  // a failing record, or one after it
  }
}

/// Pass 3: writes the chunk's cells of the string columns (`strings`) or of
/// the numeric ones at their global rows.
void WriteCells(const CsvInput& in, const std::vector<DataType>& types,
                bool strings, const Chunk& chunk,
                std::vector<std::vector<Value>>* columns) {
  for (size_t r = 0; r < chunk.rows; ++r) {
    const std::string_view* cells = chunk.cells.data() + r * in.num_cols;
    size_t row = chunk.first_row + r;
    for (size_t c = 0; c < in.num_cols; ++c) {
      if ((types[c] == DataType::kString) != strings) continue;
      std::string_view trimmed = StripWhitespace(cells[c]);
      if (in.IsNull(trimmed)) continue;  // the columns start out null
      Value& cell = (*columns)[c][row];
      switch (types[c]) {
        case DataType::kInt64: {
          int64_t iv = 0;
          ParseInt64(trimmed, &iv);
          cell = Value(iv);
          break;
        }
        case DataType::kDouble: {
          double dv = 0.0;
          ParseDouble(trimmed, &dv);
          cell = Value(dv);
          break;
        }
        case DataType::kString:
          cell = Value(std::string(cells[c]));  // untrimmed
          break;
      }
    }
  }
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
  if (options.delimiter == '\n') {
    return Status::InvalidArgument("the CSV delimiter cannot be LF");
  }
  if (text.empty()) return Status::InvalidArgument("empty CSV input");
  CsvInput in(text, options);

  // The first record fixes the column count (and, with a header, names).
  std::vector<std::string_view> head;
  std::deque<std::string> head_unescaped;
  RecordShape header = SplitRecord(in, 0, &head, &head_unescaped);
  if (header.unterminated_at != kNone) {
    return UnterminatedQuote(1 + header.unterminated_at);
  }
  in.num_cols = head.size();
  std::vector<std::string> names;
  for (size_t c = 0; c < head.size(); ++c) {
    names.push_back(options.has_header ? std::string(StripWhitespace(head[c]))
                                       : StrFormat("c%zu", c));
  }

  std::vector<Chunk> chunks((text.size() + kCsvChunkBytes - 1) /
                            kCsvChunkBytes);
  for (size_t k = 0; k < chunks.size(); ++k) {
    chunks[k].begin = k * kCsvChunkBytes;
    chunks[k].end = std::min(text.size(), (k + 1) * kCsvChunkBytes);
  }
  NDE_RETURN_IF_ERROR(
      TryParallelFor(
          0, chunks.size(),
          [&](size_t k) { CountChunk(in.text, &chunks[k]); }, 0, "csv.count")
          .status());
  // Memory the passes keep is allocated here, on the calling thread:
  // ParallelFor's workers are fresh threads, and what they allocate lands in
  // their own malloc arenas, where a long-running server's RSS grew with it
  // (DESIGN.md §7). At most newlines + 2 records start in a chunk, and each
  // kept record but the last spans at least num_cols bytes of it.
  size_t quotes = 0, line = 1;
  for (Chunk& chunk : chunks) {
    chunk.in_quotes = quotes % 2 == 1;
    chunk.line = line;
    quotes += chunk.quotes;
    line += chunk.newlines;
    chunk.cells.reserve(std::min((chunk.newlines + 2) * in.num_cols,
                                 chunk.end - chunk.begin + in.num_cols));
    chunk.needs.assign(in.num_cols, Need::kNoValue);
  }

  size_t data_begin = options.has_header ? 1 : 0;  // record index
  size_t body = options.has_header ? header.next : 0;
  size_t body_line = options.has_header ? 1 + header.lines : 1;
  NDE_RETURN_IF_ERROR(TryParallelFor(
                          0, chunks.size(),
                          [&](size_t k) {
                            SplitChunk(in, body, body_line, &chunks[k]);
                          },
                          0, "csv.split")
                          .status());

  // Serial join. An unterminated quote outranks every record error.
  for (const Chunk& chunk : chunks) {
    if (chunk.unterminated_line != kNone) {
      return UnterminatedQuote(chunk.unterminated_line);
    }
  }
  // Trailing blank records are dropped (a quoted empty field is not blank).
  size_t records = data_begin;
  size_t last = options.has_header && !header.blank ? 0 : kNone;
  for (Chunk& chunk : chunks) {
    chunk.first_record = records;
    if (chunk.last_nonblank != kNone) last = records + chunk.last_nonblank;
    records += chunk.records;
  }
  if (last == kNone) return Status::InvalidArgument("empty CSV input");

  // The first failing record in record order wins, unless it is one of the
  // dropped trailing blank records; then so is every record after it.
  const Status* error = nullptr;
  size_t error_record = kNone;
  for (const Chunk& chunk : chunks) {
    if (chunk.error.record == kNone) continue;
    if (chunk.first_record + chunk.error.record <= last) {
      error_record = chunk.first_record + chunk.error.record;
      error = &chunk.error.status;
    }
    break;
  }
  if (failpoint::AnyArmed()) {
    // Per-record chaos hook, keyed by the data-record index so probabilistic
    // injection replays bit-identically run to run, and fired in record
    // order up to the first failing record, so `#N` and `xM` count records.
    for (size_t r = data_begin; r <= std::min(last, error_record); ++r) {
      NDE_FAILPOINT_KEYED("csv.record", r - data_begin);
    }
  }
  if (error != nullptr) return *error;

  std::vector<Need> needs(in.num_cols, Need::kNoValue);
  for (const Chunk& chunk : chunks) {
    for (size_t c = 0; c < in.num_cols; ++c) {
      needs[c] = std::max(needs[c], chunk.needs[c]);
    }
  }
  std::vector<DataType> types;
  std::vector<Field> fields;
  for (size_t c = 0; c < in.num_cols; ++c) {
    // An all-null column defaults to string.
    types.push_back(needs[c] == Need::kInt64    ? DataType::kInt64
                    : needs[c] == Need::kDouble ? DataType::kDouble
                                                : DataType::kString);
    fields.push_back(Field{std::move(names[c]), types[c]});
  }

  size_t num_rows = last + 1 - data_begin;
  for (Chunk& chunk : chunks) {
    chunk.first_row = chunk.first_record - data_begin;
    chunk.rows = last + 1 > chunk.first_record
                     ? std::min(chunk.records, last + 1 - chunk.first_record)
                     : 0;
  }
  std::vector<std::vector<Value>> columns(in.num_cols);
  for (std::vector<Value>& column : columns) column.resize(num_rows);
  NDE_RETURN_IF_ERROR(TryParallelFor(
                          0, chunks.size(),
                          [&](size_t k) {
                            WriteCells(in, types, /*strings=*/false,
                                       chunks[k], &columns);
                          },
                          0, "csv.write")
                          .status());
  // String cells outlive the parse, so they are allocated here too.
  for (const Chunk& chunk : chunks) {
    WriteCells(in, types, /*strings=*/true, chunk, &columns);
  }
  NDE_ASSIGN_OR_RETURN(
      Table table,
      Table::FromColumns(Schema(std::move(fields)), std::move(columns)));
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
  // One read loop for every kind of file. A regular file's size only
  // reserves the string; a pipe has none, and a directory opens but fails
  // its first read, which istream::read turns into badbit.
  std::string text;
  std::error_code size_error;
  std::uintmax_t size = std::filesystem::file_size(path, size_error);
  if (!size_error && size < text.max_size()) text.reserve(size);
  std::vector<char> block(size_t{1} << 16);
  while (in.read(block.data(), static_cast<std::streamsize>(block.size())) ||
         in.gcount() > 0) {
    text.append(block.data(), static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    return Status::IOError(StrFormat("failed reading '%s'", path.c_str()));
  }
  return ReadCsvString(text, options);
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
