#include "data/table.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/string_util.h"

namespace nde {

Result<size_t> Schema::FieldIndex(const std::string& name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return Status::NotFound(StrFormat("no column named '%s'", name.c_str()));
}

bool Schema::HasField(const std::string& name) const {
  return FieldIndex(name).ok();
}

Status Schema::AddField(Field field) {
  if (HasField(field.name)) {
    return Status::AlreadyExists(
        StrFormat("column '%s' already exists", field.name.c_str()));
  }
  fields_.push_back(std::move(field));
  return Status::OK();
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(fields_.size());
  for (const Field& f : fields_) {
    parts.push_back(f.name + ":" + DataTypeToString(f.type));
  }
  return JoinStrings(parts, ", ");
}

Table::SharedColumn::SharedColumn(std::vector<Value> cells)
    : buffer_(new Buffer{std::move(cells)}) {}

Table::SharedColumn::SharedColumn(const SharedColumn& other) noexcept
    : buffer_(other.buffer_) {
  buffer_->holders.fetch_add(1);
}

Table::SharedColumn::SharedColumn(SharedColumn&& other) noexcept
    : buffer_(std::exchange(other.buffer_, nullptr)) {}

Table::SharedColumn& Table::SharedColumn::operator=(
    SharedColumn other) noexcept {
  std::swap(buffer_, other.buffer_);
  return *this;
}

Table::SharedColumn::~SharedColumn() {
  if (buffer_ != nullptr && buffer_->holders.fetch_sub(1) == 1) delete buffer_;
}

std::vector<Value>& Table::SharedColumn::MutableCells() {
  // Reading 1 means no other table holds the buffer, and none can start to:
  // a new holder is made only by copying a holder, and this one belongs to
  // a table that its thread has to itself. Reading more than 1 copies.
  if (buffer_->holders.load() != 1) *this = SharedColumn(buffer_->cells);
  return buffer_->cells;
}

Table::Table(Schema schema)
    : schema_(std::move(schema)), columns_(schema_.num_fields()) {}

Result<Table> Table::FromRows(Schema schema,
                              std::vector<std::vector<Value>> rows) {
  Table table(std::move(schema));
  for (auto& row : rows) {
    NDE_RETURN_IF_ERROR(table.AppendRow(std::move(row)));
  }
  return table;
}

Result<Table> Table::FromColumns(Schema schema,
                                 std::vector<std::vector<Value>> columns) {
  Table table;
  table.schema_ = std::move(schema);
  table.num_rows_ = columns.empty() ? 0 : columns.front().size();
  table.columns_.reserve(columns.size());
  for (std::vector<Value>& cells : columns) {
    table.columns_.emplace_back(std::move(cells));
  }
  Status status = table.Validate();
  if (!status.ok()) return Status::InvalidArgument(status.message());
  return table;
}

Result<const std::vector<Value>*> Table::ColumnByName(
    const std::string& name) const {
  NDE_ASSIGN_OR_RETURN(size_t index, schema_.FieldIndex(name));
  return &columns_[index].cells();
}

Status Table::SetCell(size_t row, size_t col, Value value) {
  if (col >= columns_.size()) {
    return Status::OutOfRange(StrFormat("column %zu out of range", col));
  }
  if (row >= num_rows_) {
    return Status::OutOfRange(StrFormat("row %zu out of range", row));
  }
  if (!value.MatchesType(schema_.field(col).type)) {
    return Status::InvalidArgument(
        StrFormat("value type mismatch for column '%s' (%s)",
                  schema_.field(col).name.c_str(),
                  DataTypeToString(schema_.field(col).type)));
  }
  columns_[col].MutableCells()[row] = std::move(value);
  return Status::OK();
}

std::vector<Value> Table::Row(size_t row) const {
  NDE_CHECK_LT(row, num_rows_);
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const SharedColumn& col : columns_) out.push_back(col.cells()[row]);
  return out;
}

Status Table::AppendRow(std::vector<Value> row) {
  if (row.size() != schema_.num_fields()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu cells, schema has %zu columns", row.size(),
                  schema_.num_fields()));
  }
  for (size_t c = 0; c < row.size(); ++c) {
    if (!row[c].MatchesType(schema_.field(c).type)) {
      return Status::InvalidArgument(StrFormat(
          "cell %zu ('%s') has wrong type; expected %s, got '%s'", c,
          schema_.field(c).name.c_str(),
          DataTypeToString(schema_.field(c).type), row[c].ToString().c_str()));
    }
  }
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].MutableCells().push_back(std::move(row[c]));
  }
  ++num_rows_;
  return Status::OK();
}

Status Table::AppendTable(const Table& other) {
  if (!(schema_ == other.schema_)) {
    return Status::InvalidArgument("schema mismatch in AppendTable");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    // Holding the source makes `this` share it when `other` is `this`, so
    // the cells are copied before they are appended to.
    SharedColumn source = other.columns_[c];
    std::vector<Value>& cells = columns_[c].MutableCells();
    cells.insert(cells.end(), source.cells().begin(), source.cells().end());
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

Status Table::AddColumn(Field field, std::vector<Value> values) {
  if (values.size() != num_rows_) {
    return Status::InvalidArgument(
        StrFormat("column '%s' has %zu values, table has %zu rows",
                  field.name.c_str(), values.size(), num_rows_));
  }
  for (const Value& v : values) {
    if (!v.MatchesType(field.type)) {
      return Status::InvalidArgument(
          StrFormat("value '%s' does not match type %s for column '%s'",
                    v.ToString().c_str(), DataTypeToString(field.type),
                    field.name.c_str()));
    }
  }
  NDE_RETURN_IF_ERROR(schema_.AddField(std::move(field)));
  columns_.emplace_back(std::move(values));
  return Status::OK();
}

Status Table::DropColumn(const std::string& name) {
  NDE_ASSIGN_OR_RETURN(size_t index, schema_.FieldIndex(name));
  std::vector<Field> fields = schema_.fields();
  fields.erase(fields.begin() + static_cast<ptrdiff_t>(index));
  schema_ = Schema(std::move(fields));
  columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(index));
  return Status::OK();
}

Result<Table> Table::SelectColumns(const std::vector<std::string>& names) const {
  std::vector<Field> fields;
  std::vector<SharedColumn> cols;
  for (const std::string& name : names) {
    NDE_ASSIGN_OR_RETURN(size_t index, schema_.FieldIndex(name));
    fields.push_back(schema_.field(index));
    cols.push_back(columns_[index]);
  }
  Table out;
  out.schema_ = Schema(std::move(fields));
  out.columns_ = std::move(cols);
  out.num_rows_ = num_rows_;
  return out;
}

Table Table::SelectRows(const std::vector<size_t>& row_indices) const {
  bool every_row_in_order = row_indices.size() == num_rows_;
  for (size_t i = 0; i < row_indices.size(); ++i) {
    NDE_CHECK_LT(row_indices[i], num_rows_);
    every_row_in_order &= row_indices[i] == i;
  }
  if (every_row_in_order) return *this;
  Table out;
  out.schema_ = schema_;
  out.num_rows_ = row_indices.size();
  out.columns_.reserve(columns_.size());
  for (const SharedColumn& column : columns_) {
    std::vector<Value> cells;
    cells.reserve(row_indices.size());
    for (size_t r : row_indices) cells.push_back(column.cells()[r]);
    out.columns_.emplace_back(std::move(cells));
  }
  return out;
}

Table Table::FilterRows(const std::function<bool(size_t)>& predicate,
                        std::vector<size_t>* kept) const {
  std::vector<size_t> indices;
  for (size_t r = 0; r < num_rows_; ++r) {
    if (predicate(r)) indices.push_back(r);
  }
  if (kept != nullptr) *kept = indices;
  return SelectRows(indices);
}

size_t Table::CountNulls(size_t col) const {
  NDE_CHECK_LT(col, columns_.size());
  size_t count = 0;
  for (const Value& v : columns_[col].cells()) {
    if (v.is_null()) ++count;
  }
  return count;
}

Status Table::Validate() const {
  if (columns_.size() != schema_.num_fields()) {
    return Status::Internal("column count does not match schema");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    const std::vector<Value>& cells = columns_[c].cells();
    if (cells.size() != num_rows_) {
      return Status::Internal(
          StrFormat("column '%s' has %zu values, expected %zu",
                    schema_.field(c).name.c_str(), cells.size(), num_rows_));
    }
    for (size_t r = 0; r < num_rows_; ++r) {
      if (!cells[r].MatchesType(schema_.field(c).type)) {
        return Status::Internal(
            StrFormat("cell (%zu, %zu) violates column type %s", r, c,
                      DataTypeToString(schema_.field(c).type)));
      }
    }
  }
  return Status::OK();
}

std::string Table::DebugString(size_t max_rows) const {
  std::ostringstream os;
  os << "Table[" << num_rows_ << " rows] " << schema_.ToString();
  size_t show = std::min(num_rows_, max_rows);
  for (size_t r = 0; r < show; ++r) {
    os << "\n  ";
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) os << " | ";
      os << columns_[c].cells()[r].ToString();
    }
  }
  if (show < num_rows_) os << "\n  ... (" << (num_rows_ - show) << " more)";
  return os.str();
}

TableBuilder& TableBuilder::AddDoubleColumn(const std::string& name,
                                            std::vector<double> values) {
  std::vector<Value> cells;
  cells.reserve(values.size());
  for (double v : values) cells.emplace_back(v);
  return AddValueColumn(name, DataType::kDouble, std::move(cells));
}

TableBuilder& TableBuilder::AddInt64Column(const std::string& name,
                                           std::vector<int64_t> values) {
  std::vector<Value> cells;
  cells.reserve(values.size());
  for (int64_t v : values) cells.emplace_back(v);
  return AddValueColumn(name, DataType::kInt64, std::move(cells));
}

TableBuilder& TableBuilder::AddStringColumn(const std::string& name,
                                            std::vector<std::string> values) {
  std::vector<Value> cells;
  cells.reserve(values.size());
  for (std::string& v : values) cells.emplace_back(std::move(v));
  return AddValueColumn(name, DataType::kString, std::move(cells));
}

TableBuilder& TableBuilder::AddValueColumn(const std::string& name,
                                           DataType type,
                                           std::vector<Value> values) {
  if (!fields_.empty()) {
    NDE_CHECK_EQ(values.size(), columns_.front().size())
        << "column '" << name << "' length mismatch";
  }
  fields_.push_back(Field{name, type});
  columns_.push_back(std::move(values));
  return *this;
}

Table TableBuilder::Build() {
  Result<Table> table =
      Table::FromColumns(Schema(fields_), std::move(columns_));
  NDE_CHECK(table.ok()) << table.status().ToString();
  return std::move(table).value();
}

}  // namespace nde
