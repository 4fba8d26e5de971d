#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "ml/logistic_regression.h"  // SoftmaxRowsInPlace

namespace nde {

namespace {
constexpr double kLogTwoPi = 1.8378770664093454835606594728112;
}  // namespace

GaussianNaiveBayes::GaussianNaiveBayes(double var_smoothing)
    : var_smoothing_(var_smoothing) {
  NDE_CHECK_GE(var_smoothing, 0.0);
}

Status GaussianNaiveBayes::Fit(const MlDataset& data) {
  return FitWithClasses(data, data.NumClasses());
}

Status GaussianNaiveBayes::FitWithClasses(const MlDataset& data,
                                          int num_classes) {
  NDE_RETURN_IF_ERROR(data.Validate());
  if (data.size() == 0) {
    return Status::InvalidArgument("cannot fit naive Bayes on empty data");
  }
  if (num_classes < data.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  num_classes_ = std::max(num_classes, 1);
  size_t n = data.size();
  size_t d = data.features.cols();

  means_ = Matrix(static_cast<size_t>(num_classes_), d);
  variances_ = Matrix(static_cast<size_t>(num_classes_), d);
  std::vector<size_t> counts(static_cast<size_t>(num_classes_), 0);

  for (size_t i = 0; i < n; ++i) {
    size_t c = static_cast<size_t>(data.labels[i]);
    ++counts[c];
    const double* row = data.features.RowPtr(i);
    for (size_t j = 0; j < d; ++j) means_(c, j) += row[j];
  }
  for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
    if (counts[c] == 0) continue;
    for (size_t j = 0; j < d; ++j) {
      means_(c, j) /= static_cast<double>(counts[c]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    size_t c = static_cast<size_t>(data.labels[i]);
    const double* row = data.features.RowPtr(i);
    for (size_t j = 0; j < d; ++j) {
      double diff = row[j] - means_(c, j);
      variances_(c, j) += diff * diff;
    }
  }
  // Global per-feature statistics: the fallback distribution for classes
  // absent from the training subset (a tiny prior times the global density,
  // instead of a degenerate spike at zero).
  std::vector<double> global_mean(d, 0.0);
  std::vector<double> global_var(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.features.RowPtr(i);
    for (size_t j = 0; j < d; ++j) global_mean[j] += row[j];
  }
  for (size_t j = 0; j < d; ++j) global_mean[j] /= static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = data.features.RowPtr(i);
    for (size_t j = 0; j < d; ++j) {
      double diff = row[j] - global_mean[j];
      global_var[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d; ++j) global_var[j] /= static_cast<double>(n);

  double max_feature_var = 0.0;
  for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
    for (size_t j = 0; j < d; ++j) {
      if (counts[c] > 0) {
        variances_(c, j) /= static_cast<double>(counts[c]);
      } else {
        means_(c, j) = global_mean[j];
        variances_(c, j) = global_var[j];
      }
      max_feature_var = std::max(max_feature_var, variances_(c, j));
    }
  }
  double floor = var_smoothing_ * std::max(max_feature_var, 1.0) + 1e-12;
  for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
    for (size_t j = 0; j < d; ++j) variances_(c, j) += floor;
  }

  log_priors_.assign(static_cast<size_t>(num_classes_), 0.0);
  for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
    // Laplace-smoothed priors: classes absent from a subset get small but
    // non-zero prior instead of -inf.
    double prior = (static_cast<double>(counts[c]) + 1.0) /
                   (static_cast<double>(n) + num_classes_);
    log_priors_[c] = std::log(prior);
  }
  fitted_ = true;
  return Status::OK();
}

Matrix GaussianNaiveBayes::LogJoint(const Matrix& features) const {
  NDE_CHECK(fitted_);
  NDE_CHECK_EQ(features.cols(), means_.cols());
  size_t d = features.cols();
  Matrix log_joint(features.rows(), static_cast<size_t>(num_classes_));
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* row = features.RowPtr(r);
    for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
      double acc = log_priors_[c];
      for (size_t j = 0; j < d; ++j) {
        double var = variances_(c, j);
        double diff = row[j] - means_(c, j);
        acc -= 0.5 * (kLogTwoPi + std::log(var) + diff * diff / var);
      }
      log_joint(r, c) = acc;
    }
  }
  return log_joint;
}

std::vector<int> GaussianNaiveBayes::Predict(const Matrix& features) const {
  Matrix log_joint = LogJoint(features);
  std::vector<int> out(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (log_joint(r, static_cast<size_t>(c)) >
          log_joint(r, static_cast<size_t>(best))) {
        best = c;
      }
    }
    out[r] = best;
  }
  return out;
}

Matrix GaussianNaiveBayes::PredictProba(const Matrix& features) const {
  Matrix log_joint = LogJoint(features);
  SoftmaxRowsInPlace(&log_joint);
  return log_joint;
}

std::unique_ptr<Classifier> GaussianNaiveBayes::Clone() const {
  return std::make_unique<GaussianNaiveBayes>(var_smoothing_);
}

// ---------------------------------------------------------------------------
// Incremental coalition scorer.
//
// Exactness argument (the cold fit sees the coalition sorted ascending, per
// the UtilityFunction subset convention): every per-(class, feature) sum in
// the cold two-pass fit accumulates the class's member rows in ascending
// parent-index order. The scorer keeps member lists sorted, so recomputing
// the pushed class's mean/variance passes over its sorted list replays the
// identical floating-point chain; untouched classes keep their previous —
// likewise identical — values. Global fallback statistics are maintained the
// same way, and only while some class is absent: once every class has a
// member the cold fit still computes them but never reads them, so skipping
// them is value-identical. max_feature_var is a max over a fixed set
// (order-independent), and the floor, priors and LogJoint expressions are
// replicated operation for operation. This is deliberately NOT a
// Welford-style running update, which would change bits.
//
// Cost per Push: O(|class| * d) moment recompute plus O(m * C * d) scoring,
// versus the cold path's O(n * d) fit, O(n * d) coalition copy and a model
// allocation per prefix.
// ---------------------------------------------------------------------------

namespace {

/// Shifts the sorted prefix [0, count) up by one slot and inserts `value`.
void InsertSorted(uint32_t* arr, size_t count, uint32_t value) {
  size_t pos = count;
  while (pos > 0 && arr[pos - 1] > value) {
    arr[pos] = arr[pos - 1];
    --pos;
  }
  arr[pos] = value;
}

class NbCoalitionContext;

class NbCoalitionScorer final : public CoalitionScorer {
 public:
  explicit NbCoalitionScorer(const NbCoalitionContext* context);

  void Add(size_t train_index) override;
  const std::vector<int>& Predict() override;
  size_t NumCorrect() override;

 private:
  void RefreshDerived();

  const NbCoalitionContext* context_;
  size_t d_;
  int num_classes_;
  size_t capacity_;  ///< Training-set size; bounds every member list.
  std::vector<double> means_;        ///< C x d; rows valid where counts_ > 0.
  std::vector<double> vars_;         ///< C x d, unfloored.
  std::vector<double> global_mean_;  ///< d; kept only while a class is absent.
  std::vector<double> global_var_;   ///< d, unfloored.
  std::vector<double> log_priors_;   ///< C.
  std::vector<double> var_cache_;    ///< C x d, floored; absent ones resolved.
  std::vector<double> log_var_cache_;  ///< C x d, log of var_cache_.
  std::vector<double> mean_cache_;     ///< C x d; absent classes resolved.
  std::vector<uint32_t> members_;      ///< Sorted coalition so far.
  std::vector<uint32_t> class_members_;  ///< C x capacity, sorted per class.
  std::vector<uint32_t> counts_;         ///< C.
  size_t num_members_ = 0;
  int present_classes_ = 0;
  bool derived_dirty_ = false;
  std::vector<int> predictions_;
};

class NbCoalitionContext final : public CoalitionScorerContext {
 public:
  NbCoalitionContext(const MlDataset& train, const MlDataset& eval,
                     int num_classes, double var_smoothing)
      : train_features_(&train.features),
        eval_(&eval),
        labels_(train.labels),
        num_classes_(num_classes),
        var_smoothing_(var_smoothing) {
    NDE_CHECK_LT(train.size(), std::numeric_limits<uint32_t>::max());
    NDE_CHECK_EQ(train.features.cols(), eval.features.cols());
    NDE_CHECK_EQ(eval.features.rows(), eval.size());
  }

  std::unique_ptr<CoalitionScorer> NewScorer() const override {
    return std::make_unique<NbCoalitionScorer>(this);
  }

  // ReplacesColdFit stays false: every Add recomputes the pushed class's
  // moments over all of its members, so scoring a whole coalition through a
  // scorer costs O(n^2 d) against the cold fit's O(n d).

  const Matrix& train_features() const { return *train_features_; }
  const Matrix& eval_features() const { return eval_->features; }
  const std::vector<int>& eval_labels() const { return eval_->labels; }
  int label(size_t i) const { return labels_[i]; }
  size_t train_size() const { return labels_.size(); }
  int num_classes() const { return num_classes_; }
  double var_smoothing() const { return var_smoothing_; }

 private:
  const Matrix* train_features_;  ///< Borrowed; caller keeps it alive.
  const MlDataset* eval_;         ///< Borrowed; caller keeps it alive.
  std::vector<int> labels_;
  int num_classes_;
  double var_smoothing_;
};

NbCoalitionScorer::NbCoalitionScorer(const NbCoalitionContext* context)
    : context_(context),
      d_(context->train_features().cols()),
      num_classes_(context->num_classes()),
      capacity_(context->train_size()),
      predictions_(context->eval_features().rows(), 0) {
  const size_t classes = static_cast<size_t>(num_classes_);
  const size_t stats = classes * d_;
  means_.resize(stats);
  vars_.resize(stats);
  global_mean_.resize(d_);
  global_var_.resize(d_);
  log_priors_.resize(classes);
  var_cache_.resize(stats);
  log_var_cache_.resize(stats);
  mean_cache_.resize(stats);
  members_.resize(capacity_);
  class_members_.resize(classes * capacity_);
  counts_.resize(classes);
}

void NbCoalitionScorer::Add(size_t train_index) {
  const uint32_t index32 = static_cast<uint32_t>(train_index);
  const size_t c = static_cast<size_t>(context_->label(train_index));
  InsertSorted(members_.data(), num_members_, index32);
  ++num_members_;
  InsertSorted(class_members_.data() + c * capacity_, counts_[c], index32);
  if (++counts_[c] == 1) ++present_classes_;

  // Recompute the pushed class's moments over its sorted member list: the
  // same two passes, in the same order, as the cold fit restricted to this
  // class.
  const Matrix& train = context_->train_features();
  const uint32_t* members = class_members_.data() + c * capacity_;
  const size_t count = counts_[c];
  double* mean = means_.data() + c * d_;
  double* var = vars_.data() + c * d_;
  std::fill(mean, mean + d_, 0.0);
  std::fill(var, var + d_, 0.0);
  for (size_t k = 0; k < count; ++k) {
    const double* row = train.RowPtr(members[k]);
    for (size_t j = 0; j < d_; ++j) mean[j] += row[j];
  }
  for (size_t j = 0; j < d_; ++j) mean[j] /= static_cast<double>(count);
  for (size_t k = 0; k < count; ++k) {
    const double* row = train.RowPtr(members[k]);
    for (size_t j = 0; j < d_; ++j) {
      double diff = row[j] - mean[j];
      var[j] += diff * diff;
    }
  }
  for (size_t j = 0; j < d_; ++j) var[j] /= static_cast<double>(count);

  // Global fallback moments: only read by the cold fit while some class is
  // absent, so they are only maintained while some class is absent.
  if (present_classes_ < num_classes_) {
    std::fill(global_mean_.begin(), global_mean_.end(), 0.0);
    std::fill(global_var_.begin(), global_var_.end(), 0.0);
    for (size_t k = 0; k < num_members_; ++k) {
      const double* row = train.RowPtr(members_[k]);
      for (size_t j = 0; j < d_; ++j) global_mean_[j] += row[j];
    }
    for (size_t j = 0; j < d_; ++j) {
      global_mean_[j] /= static_cast<double>(num_members_);
    }
    for (size_t k = 0; k < num_members_; ++k) {
      const double* row = train.RowPtr(members_[k]);
      for (size_t j = 0; j < d_; ++j) {
        double diff = row[j] - global_mean_[j];
        global_var_[j] += diff * diff;
      }
    }
    for (size_t j = 0; j < d_; ++j) {
      global_var_[j] /= static_cast<double>(num_members_);
    }
  }
  derived_dirty_ = true;
}

void NbCoalitionScorer::RefreshDerived() {
  const size_t classes = static_cast<size_t>(num_classes_);
  // max over a fixed set of variances: order-independent, so one flat pass
  // yields the cold fit's value.
  double max_feature_var = 0.0;
  for (size_t c = 0; c < classes; ++c) {
    const double* var =
        counts_[c] > 0 ? vars_.data() + c * d_ : global_var_.data();
    for (size_t j = 0; j < d_; ++j) {
      max_feature_var = std::max(max_feature_var, var[j]);
    }
  }
  const double floor =
      context_->var_smoothing() * std::max(max_feature_var, 1.0) + 1e-12;
  // Floored variances and their logs, one per (class, feature) per Push
  // instead of one per (eval row, class, feature): the cached doubles are
  // the exact values the cold LogJoint computes inline.
  for (size_t c = 0; c < classes; ++c) {
    const bool present = counts_[c] > 0;
    const double* var = present ? vars_.data() + c * d_ : global_var_.data();
    const double* mean =
        present ? means_.data() + c * d_ : global_mean_.data();
    for (size_t j = 0; j < d_; ++j) {
      const double floored = var[j] + floor;
      var_cache_[c * d_ + j] = floored;
      log_var_cache_[c * d_ + j] = std::log(floored);
      mean_cache_[c * d_ + j] = mean[j];
    }
  }
  for (size_t c = 0; c < classes; ++c) {
    double prior = (static_cast<double>(counts_[c]) + 1.0) /
                   (static_cast<double>(num_members_) + num_classes_);
    log_priors_[c] = std::log(prior);
  }
  derived_dirty_ = false;
}

const std::vector<int>& NbCoalitionScorer::Predict() {
  NDE_CHECK_GT(num_members_, 0u);
  if (derived_dirty_) RefreshDerived();
  const Matrix& eval = context_->eval_features();
  const size_t m = eval.rows();
  const size_t classes = static_cast<size_t>(num_classes_);
  for (size_t r = 0; r < m; ++r) {
    const double* row = eval.RowPtr(r);
    int best = 0;
    double best_acc = 0.0;
    for (size_t c = 0; c < classes; ++c) {
      // The cold LogJoint chain, operation for operation.
      double acc = log_priors_[c];
      const double* mean = mean_cache_.data() + c * d_;
      const double* var = var_cache_.data() + c * d_;
      const double* log_var = log_var_cache_.data() + c * d_;
      for (size_t j = 0; j < d_; ++j) {
        double diff = row[j] - mean[j];
        acc -= 0.5 * (kLogTwoPi + log_var[j] + diff * diff / var[j]);
      }
      if (c == 0 || acc > best_acc) {
        best = static_cast<int>(c);
        best_acc = acc;
      }
    }
    predictions_[r] = best;
  }
  return predictions_;
}

size_t NbCoalitionScorer::NumCorrect() {
  const std::vector<int>& predicted = Predict();
  const std::vector<int>& truth = context_->eval_labels();
  size_t correct = 0;
  for (size_t r = 0; r < predicted.size(); ++r) {
    if (predicted[r] == truth[r]) ++correct;
  }
  return correct;
}

}  // namespace

Result<std::shared_ptr<const CoalitionScorerContext>>
GaussianNaiveBayes::NewCoalitionScorerContext(
    const MlDataset& train, const MlDataset& eval, int num_classes,
    const ParallelRunner& parallel) const {
  (void)parallel;
  if (train.size() == 0 || eval.size() == 0) {
    return std::shared_ptr<const CoalitionScorerContext>();
  }
  if (num_classes < train.NumClasses()) num_classes = train.NumClasses();
  return std::shared_ptr<const CoalitionScorerContext>(
      std::make_shared<NbCoalitionContext>(
          train, eval, std::max(num_classes, 1), var_smoothing_));
}

}  // namespace nde
