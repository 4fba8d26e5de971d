#include "pipeline/plan.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

thread_local PlanProfiler* t_active_profiler = nullptr;

}  // namespace

Result<AnnotatedTable> PlanNode::Execute() const {
  // One chaos hook covers every operator: Execute() is the NVI gateway all
  // plan nodes funnel through, so arming `pipeline.execute` proves the whole
  // operator tree propagates a mid-plan failure instead of aborting.
  NDE_FAILPOINT("pipeline.execute");
  PlanProfiler* profiler = t_active_profiler;
  // With NDE_TELEMETRY_ENABLED == 0 `traced` is constant false and the
  // whole instrumented branch folds away.
  const bool traced = NDE_TELEMETRY_ENABLED && telemetry::Enabled();
  if (profiler == nullptr && !traced) return ExecuteImpl();

  std::optional<telemetry::ScopedSpan> span;
  if (traced) span.emplace(label(), "plan");
  auto start = std::chrono::steady_clock::now();
  Result<AnnotatedTable> result = ExecuteImpl();
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  size_t rows_out = result.ok() ? result->table.num_rows() : 0;
  if (profiler != nullptr) profiler->Record(this, rows_out, wall_ms);
  if (traced) {
    span->AddArg("rows_out", static_cast<int64_t>(rows_out));
    NDE_METRIC_RECORD("pipeline.operator_ms", wall_ms);
    NDE_METRIC_COUNT("pipeline.operator_executions", 1);
    NDE_METRIC_COUNT("pipeline.operator_rows_out", rows_out);
  }
  return result;
}

PlanProfiler::PlanProfiler() : previous_(t_active_profiler) {
  t_active_profiler = this;
}

PlanProfiler::~PlanProfiler() { t_active_profiler = previous_; }

PlanProfiler* PlanProfiler::Active() { return t_active_profiler; }

void PlanProfiler::Record(const PlanNode* node, size_t rows_out,
                          double wall_ms) {
  OperatorStats& stats = stats_[node];
  ++stats.invocations;
  stats.rows_out += rows_out;
  stats.wall_ms += wall_ms;
}

const OperatorStats* PlanProfiler::StatsFor(const PlanNode& node) const {
  auto it = stats_.find(&node);
  return it == stats_.end() ? nullptr : &it->second;
}

namespace {

void AppendAnnotatedPlanText(const PlanProfiler& profiler, const PlanNode& node,
                             size_t depth, std::ostringstream* os) {
  for (size_t i = 0; i < depth; ++i) *os << "  ";
  *os << node.label();
  if (const OperatorStats* stats = profiler.StatsFor(node)) {
    size_t rows_in = 0;
    double children_ms = 0.0;
    for (const PlanNode* child : node.children()) {
      if (const OperatorStats* child_stats = profiler.StatsFor(*child)) {
        rows_in += child_stats->rows_out;
        children_ms += child_stats->wall_ms;
      }
    }
    *os << StrFormat("  [%zu -> %zu rows, %.3f ms total, %.3f ms self",
                     rows_in, stats->rows_out, stats->wall_ms,
                     std::max(stats->wall_ms - children_ms, 0.0));
    if (stats->invocations > 1) {
      *os << StrFormat(", %zu runs", stats->invocations);
    }
    *os << "]";
  }
  *os << "\n";
  for (const PlanNode* child : node.children()) {
    AppendAnnotatedPlanText(profiler, *child, depth + 1, os);
  }
}

}  // namespace

std::string PlanProfiler::AnnotatedPlan(const PlanNode& root) const {
  std::ostringstream os;
  AppendAnnotatedPlanText(*this, root, 0, &os);
  return os.str();
}

Status AnnotatedTable::Validate() const {
  NDE_RETURN_IF_ERROR(table.Validate());
  if (provenance.size() != table.num_rows()) {
    return Status::Internal(
        StrFormat("provenance entries %zu != table rows %zu",
                  provenance.size(), table.num_rows()));
  }
  return Status::OK();
}

AnnotatedTable KeepRows(AnnotatedTable in, const std::vector<size_t>& kept) {
  if (kept.size() == in.table.num_rows()) return in;
  AnnotatedTable out;
  out.table = in.table.SelectRows(kept);
  out.provenance.reserve(kept.size());
  for (size_t r : kept) out.provenance.push_back(std::move(in.provenance[r]));
  return out;
}

Result<Value> RowView::Get(const std::string& column) const {
  NDE_ASSIGN_OR_RETURN(size_t col, table_->schema().FieldIndex(column));
  return table_->At(row_, col);
}

const Value& RowView::GetOrDie(const std::string& column) const {
  Result<size_t> col = table_->schema().FieldIndex(column);
  NDE_CHECK(col.ok()) << "unknown column '" << column << "'";
  return table_->At(row_, col.value());
}

namespace {

class SourceNode : public PlanNode {
 public:
  SourceNode(int32_t table_id, std::string name, Table table)
      : table_id_(table_id), name_(std::move(name)), table_(std::move(table)) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    AnnotatedTable out;
    out.table = table_;
    out.provenance.reserve(table_.num_rows());
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      out.provenance.emplace_back(
          SourceRef{table_id_, static_cast<uint32_t>(r)});
    }
    return out;
  }

  std::string label() const override {
    return StrFormat("Source(%s, id=%d, %zu rows)", name_.c_str(), table_id_,
                     table_.num_rows());
  }

  std::vector<const PlanNode*> children() const override { return {}; }

 private:
  int32_t table_id_;
  std::string name_;
  Table table_;
};

class FilterNode : public PlanNode {
 public:
  FilterNode(PlanNodePtr input, std::string description, RowPredicate predicate)
      : input_(std::move(input)),
        description_(std::move(description)),
        predicate_(std::move(predicate)) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    NDE_ASSIGN_OR_RETURN(AnnotatedTable in, input_->Execute());
    std::vector<size_t> kept;
    for (size_t r = 0; r < in.table.num_rows(); ++r) {
      if (predicate_(RowView(&in.table, r))) kept.push_back(r);
    }
    return KeepRows(std::move(in), kept);
  }

  std::string label() const override {
    return StrFormat("Filter(%s)", description_.c_str());
  }

  std::vector<const PlanNode*> children() const override {
    return {input_.get()};
  }

 private:
  PlanNodePtr input_;
  std::string description_;
  RowPredicate predicate_;
};

class ProjectNode : public PlanNode {
 public:
  ProjectNode(PlanNodePtr input, std::vector<std::string> columns,
              std::vector<ComputedColumn> computed)
      : input_(std::move(input)),
        columns_(std::move(columns)),
        computed_(std::move(computed)) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    NDE_ASSIGN_OR_RETURN(AnnotatedTable in, input_->Execute());
    AnnotatedTable out;
    NDE_ASSIGN_OR_RETURN(out.table, in.table.SelectColumns(columns_));
    for (const ComputedColumn& cc : computed_) {
      std::vector<Value> values;
      values.reserve(in.table.num_rows());
      for (size_t r = 0; r < in.table.num_rows(); ++r) {
        values.push_back(cc.udf(RowView(&in.table, r)));
      }
      NDE_RETURN_IF_ERROR(out.table.AddColumn(cc.field, std::move(values)));
    }
    out.provenance = std::move(in.provenance);
    return out;
  }

  std::string label() const override {
    std::string cols = JoinStrings(columns_, ", ");
    if (!computed_.empty()) {
      std::vector<std::string> names;
      for (const ComputedColumn& cc : computed_) names.push_back(cc.field.name);
      cols += " + udf[" + JoinStrings(names, ", ") + "]";
    }
    return StrFormat("Project(%s)", cols.c_str());
  }

  std::vector<const PlanNode*> children() const override {
    return {input_.get()};
  }

 private:
  PlanNodePtr input_;
  std::vector<std::string> columns_;
  std::vector<ComputedColumn> computed_;
};

/// Output schema shared by both join flavors: left columns then right columns
/// minus the right key, with "_r" suffixes on collisions.
Result<Schema> JoinOutputSchema(const Schema& left, const Schema& right,
                                const std::string& right_key,
                                std::vector<size_t>* right_cols) {
  std::vector<Field> fields = left.fields();
  NDE_ASSIGN_OR_RETURN(size_t right_key_idx, right.FieldIndex(right_key));
  for (size_t c = 0; c < right.num_fields(); ++c) {
    if (c == right_key_idx) continue;
    Field f = right.field(c);
    if (left.HasField(f.name)) f.name += "_r";
    fields.push_back(std::move(f));
    right_cols->push_back(c);
  }
  // Detect any remaining duplicates (e.g., both sides had "x" and "x_r").
  Schema schema;
  for (Field& f : fields) {
    NDE_RETURN_IF_ERROR(schema.AddField(std::move(f)));
  }
  return schema;
}

/// Materializes one joined row.
std::vector<Value> JoinRow(const Table& left, size_t lr, const Table& right,
                           size_t rr, const std::vector<size_t>& right_cols) {
  std::vector<Value> row = left.Row(lr);
  row.reserve(row.size() + right_cols.size());
  for (size_t c : right_cols) row.push_back(right.At(rr, c));
  return row;
}

class HashJoinNode : public PlanNode {
 public:
  HashJoinNode(PlanNodePtr left, PlanNodePtr right, std::string left_key,
               std::string right_key)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    NDE_ASSIGN_OR_RETURN(AnnotatedTable l, left_->Execute());
    NDE_ASSIGN_OR_RETURN(AnnotatedTable r, right_->Execute());
    NDE_ASSIGN_OR_RETURN(size_t lk, l.table.schema().FieldIndex(left_key_));
    NDE_ASSIGN_OR_RETURN(size_t rk, r.table.schema().FieldIndex(right_key_));

    std::vector<size_t> right_cols;
    NDE_ASSIGN_OR_RETURN(
        Schema schema,
        JoinOutputSchema(l.table.schema(), r.table.schema(), right_key_,
                         &right_cols));

    // Build side: right table keyed by join value.
    std::unordered_map<Value, std::vector<size_t>, ValueHash> build;
    build.reserve(r.table.num_rows() * 2);
    for (size_t rr = 0; rr < r.table.num_rows(); ++rr) {
      const Value& key = r.table.At(rr, rk);
      if (key.is_null()) continue;
      build[key].push_back(rr);
    }

    AnnotatedTable out;
    out.table = Table(schema);
    for (size_t lr = 0; lr < l.table.num_rows(); ++lr) {
      const Value& key = l.table.At(lr, lk);
      if (key.is_null()) continue;
      auto it = build.find(key);
      if (it == build.end()) continue;
      for (size_t rr : it->second) {
        NDE_RETURN_IF_ERROR(
            out.table.AppendRow(JoinRow(l.table, lr, r.table, rr, right_cols)));
        out.provenance.push_back(
            RowProvenance::Merge(l.provenance[lr], r.provenance[rr]));
      }
    }
    return out;
  }

  std::string label() const override {
    return StrFormat("Join(%s = %s)", left_key_.c_str(), right_key_.c_str());
  }

  std::vector<const PlanNode*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PlanNodePtr left_;
  PlanNodePtr right_;
  std::string left_key_;
  std::string right_key_;
};

class FuzzyJoinNode : public PlanNode {
 public:
  FuzzyJoinNode(PlanNodePtr left, PlanNodePtr right, std::string left_key,
                std::string right_key, size_t max_edit_distance)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_key_(std::move(left_key)),
        right_key_(std::move(right_key)),
        max_distance_(max_edit_distance) {}

  Result<AnnotatedTable> ExecuteImpl() const override {
    NDE_ASSIGN_OR_RETURN(AnnotatedTable l, left_->Execute());
    NDE_ASSIGN_OR_RETURN(AnnotatedTable r, right_->Execute());
    NDE_ASSIGN_OR_RETURN(size_t lk, l.table.schema().FieldIndex(left_key_));
    NDE_ASSIGN_OR_RETURN(size_t rk, r.table.schema().FieldIndex(right_key_));
    if (l.table.schema().field(lk).type != DataType::kString ||
        r.table.schema().field(rk).type != DataType::kString) {
      return Status::InvalidArgument("fuzzy join requires string keys");
    }

    std::vector<size_t> right_cols;
    NDE_ASSIGN_OR_RETURN(
        Schema schema,
        JoinOutputSchema(l.table.schema(), r.table.schema(), right_key_,
                         &right_cols));

    // Bucket right rows by key length so candidates outside the edit-distance
    // length band are skipped without computing the DP.
    std::map<size_t, std::vector<size_t>> by_length;
    for (size_t rr = 0; rr < r.table.num_rows(); ++rr) {
      const Value& key = r.table.At(rr, rk);
      if (key.is_null()) continue;
      by_length[key.as_string().size()].push_back(rr);
    }

    AnnotatedTable out;
    out.table = Table(schema);
    for (size_t lr = 0; lr < l.table.num_rows(); ++lr) {
      const Value& key = l.table.At(lr, lk);
      if (key.is_null()) continue;
      const std::string& lkey = key.as_string();
      size_t lo = lkey.size() > max_distance_ ? lkey.size() - max_distance_ : 0;
      size_t hi = lkey.size() + max_distance_;
      for (auto it = by_length.lower_bound(lo);
           it != by_length.end() && it->first <= hi; ++it) {
        for (size_t rr : it->second) {
          const std::string& rkey = r.table.At(rr, rk).as_string();
          if (EditDistance(lkey, rkey) > max_distance_) continue;
          NDE_RETURN_IF_ERROR(out.table.AppendRow(
              JoinRow(l.table, lr, r.table, rr, right_cols)));
          out.provenance.push_back(
              RowProvenance::Merge(l.provenance[lr], r.provenance[rr]));
        }
      }
    }
    return out;
  }

  std::string label() const override {
    return StrFormat("FuzzyJoin(%s ~ %s, d<=%zu)", left_key_.c_str(),
                     right_key_.c_str(), max_distance_);
  }

  std::vector<const PlanNode*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  PlanNodePtr left_;
  PlanNodePtr right_;
  std::string left_key_;
  std::string right_key_;
  size_t max_distance_;
};

void AppendPlanText(const PlanNode& node, size_t depth, std::ostringstream* os) {
  for (size_t i = 0; i < depth; ++i) *os << "  ";
  *os << node.label() << "\n";
  for (const PlanNode* child : node.children()) {
    AppendPlanText(*child, depth + 1, os);
  }
}

void CollectDotNodes(const PlanNode& node,
                     std::map<const PlanNode*, size_t>* ids,
                     std::ostringstream* os) {
  if (ids->count(&node) > 0) return;
  size_t id = ids->size();
  (*ids)[&node] = id;
  std::string label = node.label();
  // Escape double quotes for DOT.
  std::string escaped;
  for (char c : label) {
    if (c == '"') escaped += "\\\"";
    else escaped.push_back(c);
  }
  *os << "  n" << id << " [label=\"" << escaped << "\"];\n";
  for (const PlanNode* child : node.children()) {
    CollectDotNodes(*child, ids, os);
    *os << "  n" << (*ids)[child] << " -> n" << id << ";\n";
  }
}

}  // namespace

PlanNodePtr MakeSource(int32_t table_id, std::string name, Table table) {
  return std::make_shared<SourceNode>(table_id, std::move(name),
                                      std::move(table));
}

PlanNodePtr MakeFilter(PlanNodePtr input, std::string description,
                       RowPredicate predicate) {
  NDE_CHECK(input != nullptr);
  return std::make_shared<FilterNode>(std::move(input), std::move(description),
                                      std::move(predicate));
}

PlanNodePtr MakeFilterEquals(PlanNodePtr input, const std::string& column,
                             Value value) {
  std::string description = column + " == " + value.ToString();
  return MakeFilter(std::move(input), std::move(description),
                    [column, value](const RowView& row) {
                      Result<Value> cell = row.Get(column);
                      return cell.ok() && !cell.value().is_null() &&
                             cell.value() == value;
                    });
}

PlanNodePtr MakeProject(PlanNodePtr input, std::vector<std::string> columns,
                        std::vector<ComputedColumn> computed) {
  NDE_CHECK(input != nullptr);
  return std::make_shared<ProjectNode>(std::move(input), std::move(columns),
                                       std::move(computed));
}

PlanNodePtr MakeHashJoin(PlanNodePtr left, PlanNodePtr right,
                         std::string left_key, std::string right_key) {
  NDE_CHECK(left != nullptr);
  NDE_CHECK(right != nullptr);
  return std::make_shared<HashJoinNode>(std::move(left), std::move(right),
                                        std::move(left_key),
                                        std::move(right_key));
}

PlanNodePtr MakeFuzzyJoin(PlanNodePtr left, PlanNodePtr right,
                          std::string left_key, std::string right_key,
                          size_t max_edit_distance) {
  NDE_CHECK(left != nullptr);
  NDE_CHECK(right != nullptr);
  return std::make_shared<FuzzyJoinNode>(std::move(left), std::move(right),
                                         std::move(left_key),
                                         std::move(right_key),
                                         max_edit_distance);
}

std::string PlanToString(const PlanNode& root) {
  std::ostringstream os;
  AppendPlanText(root, 0, &os);
  return os.str();
}

std::string PlanToDot(const PlanNode& root) {
  std::ostringstream os;
  os << "digraph pipeline {\n  rankdir=BT;\n";
  std::map<const PlanNode*, size_t> ids;
  CollectDotNodes(root, &ids, &os);
  os << "}\n";
  return os.str();
}

}  // namespace nde
