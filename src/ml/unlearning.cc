#include "ml/unlearning.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "ml/knn.h"                  // KeepNearest, SquaredDistance
#include "ml/logistic_regression.h"  // SoftmaxRowsInPlace

namespace nde {

namespace {
constexpr double kLogTwoPi = 1.8378770664093454835606594728112;
}  // namespace

DecrementalGaussianNb::DecrementalGaussianNb(double var_smoothing)
    : var_smoothing_(var_smoothing) {
  NDE_CHECK_GE(var_smoothing, 0.0);
}

Status DecrementalGaussianNb::Fit(const MlDataset& data) {
  return FitWithClasses(data, data.NumClasses());
}

Status DecrementalGaussianNb::FitWithClasses(const MlDataset& data,
                                             int num_classes) {
  NDE_RETURN_IF_ERROR(data.Validate());
  if (data.size() == 0) {
    return Status::InvalidArgument("cannot fit on empty data");
  }
  if (num_classes < data.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  num_classes_ = std::max(num_classes, 1);
  train_ = data;
  forgotten_.assign(data.size(), false);
  remaining_ = data.size();

  size_t d = data.features.cols();
  class_counts_.assign(static_cast<size_t>(num_classes_), 0);
  class_sums_ = Matrix(static_cast<size_t>(num_classes_), d);
  class_sum_squares_ = Matrix(static_cast<size_t>(num_classes_), d);
  for (size_t i = 0; i < data.size(); ++i) {
    size_t c = static_cast<size_t>(data.labels[i]);
    ++class_counts_[c];
    const double* row = data.features.RowPtr(i);
    for (size_t j = 0; j < d; ++j) {
      class_sums_(c, j) += row[j];
      class_sum_squares_(c, j) += row[j] * row[j];
    }
  }
  derived_fresh_ = false;
  fitted_ = true;
  return Status::OK();
}

Status DecrementalGaussianNb::Forget(size_t original_index) {
  if (!fitted_) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (original_index >= forgotten_.size()) {
    return Status::OutOfRange(
        StrFormat("index %zu out of range", original_index));
  }
  if (forgotten_[original_index]) {
    return Status::FailedPrecondition(
        StrFormat("row %zu was already forgotten", original_index));
  }
  if (remaining_ <= 1) {
    return Status::FailedPrecondition("cannot forget the last row");
  }
  forgotten_[original_index] = true;
  --remaining_;
  size_t c = static_cast<size_t>(train_.labels[original_index]);
  NDE_CHECK_GT(class_counts_[c], 0u);
  --class_counts_[c];
  const double* row = train_.features.RowPtr(original_index);
  for (size_t j = 0; j < train_.features.cols(); ++j) {
    class_sums_(c, j) -= row[j];
    class_sum_squares_(c, j) -= row[j] * row[j];
  }
  derived_fresh_ = false;
  return Status::OK();
}

void DecrementalGaussianNb::RefreshDerivedState() const {
  if (derived_fresh_) return;
  size_t d = class_sums_.cols();
  size_t classes = static_cast<size_t>(num_classes_);
  means_ = Matrix(classes, d);
  variances_ = Matrix(classes, d);

  // Global statistics over the remaining rows (fallback for empty classes).
  std::vector<double> global_sum(d, 0.0);
  std::vector<double> global_sum_sq(d, 0.0);
  for (size_t c = 0; c < classes; ++c) {
    for (size_t j = 0; j < d; ++j) {
      global_sum[j] += class_sums_(c, j);
      global_sum_sq[j] += class_sum_squares_(c, j);
    }
  }
  double n = static_cast<double>(remaining_);
  std::vector<double> global_mean(d, 0.0);
  std::vector<double> global_var(d, 0.0);
  for (size_t j = 0; j < d; ++j) {
    global_mean[j] = global_sum[j] / n;
    global_var[j] =
        std::max(global_sum_sq[j] / n - global_mean[j] * global_mean[j], 0.0);
  }

  double max_feature_var = 0.0;
  for (size_t c = 0; c < classes; ++c) {
    double count = static_cast<double>(class_counts_[c]);
    for (size_t j = 0; j < d; ++j) {
      if (class_counts_[c] > 0) {
        double mean = class_sums_(c, j) / count;
        means_(c, j) = mean;
        variances_(c, j) = std::max(
            class_sum_squares_(c, j) / count - mean * mean, 0.0);
      } else {
        means_(c, j) = global_mean[j];
        variances_(c, j) = global_var[j];
      }
      max_feature_var = std::max(max_feature_var, variances_(c, j));
    }
  }
  double floor = var_smoothing_ * std::max(max_feature_var, 1.0) + 1e-12;
  for (size_t c = 0; c < classes; ++c) {
    for (size_t j = 0; j < d; ++j) variances_(c, j) += floor;
  }

  log_priors_.assign(classes, 0.0);
  for (size_t c = 0; c < classes; ++c) {
    double prior = (static_cast<double>(class_counts_[c]) + 1.0) /
                   (n + static_cast<double>(num_classes_));
    log_priors_[c] = std::log(prior);
  }
  derived_fresh_ = true;
}

Matrix DecrementalGaussianNb::PredictProba(const Matrix& features) const {
  NDE_CHECK(fitted_);
  RefreshDerivedState();
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
  SoftmaxRowsInPlace(&log_joint);
  return log_joint;
}

std::vector<int> DecrementalGaussianNb::Predict(const Matrix& features) const {
  Matrix proba = PredictProba(features);
  std::vector<int> out(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (proba(r, static_cast<size_t>(c)) >
          proba(r, static_cast<size_t>(best))) {
        best = c;
      }
    }
    out[r] = best;
  }
  return out;
}

std::unique_ptr<Classifier> DecrementalGaussianNb::Clone() const {
  return std::make_unique<DecrementalGaussianNb>(var_smoothing_);
}

DecrementalKnn::DecrementalKnn(size_t k) : k_(k) { NDE_CHECK_GE(k, 1u); }

Status DecrementalKnn::Fit(const MlDataset& data) {
  return FitWithClasses(data, data.NumClasses());
}

Status DecrementalKnn::FitWithClasses(const MlDataset& data, int num_classes) {
  NDE_RETURN_IF_ERROR(data.Validate());
  if (data.size() == 0) {
    return Status::InvalidArgument("cannot fit on empty data");
  }
  if (num_classes < data.NumClasses()) {
    return Status::InvalidArgument("num_classes below max label");
  }
  num_classes_ = std::max(num_classes, 1);
  train_ = data;
  forgotten_.assign(data.size(), false);
  remaining_ = data.size();
  fitted_ = true;
  return Status::OK();
}

Status DecrementalKnn::Forget(size_t original_index) {
  if (!fitted_) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (original_index >= forgotten_.size()) {
    return Status::OutOfRange(
        StrFormat("index %zu out of range", original_index));
  }
  if (forgotten_[original_index]) {
    return Status::FailedPrecondition(
        StrFormat("row %zu was already forgotten", original_index));
  }
  if (remaining_ <= 1) {
    return Status::FailedPrecondition("cannot forget the last row");
  }
  forgotten_[original_index] = true;
  --remaining_;
  return Status::OK();
}

Matrix DecrementalKnn::PredictProba(const Matrix& features) const {
  NDE_CHECK(fitted_);
  NDE_CHECK_EQ(features.cols(), train_.features.cols());
  size_t n = train_.size();
  Matrix proba(features.rows(), static_cast<size_t>(num_classes_));
  std::vector<double> dist(n);
  std::vector<size_t> nearest;
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* query = features.RowPtr(r);
    nearest.clear();
    for (size_t i = 0; i < n; ++i) {
      if (forgotten_[i]) continue;
      dist[i] = SquaredDistance(train_.features.RowPtr(i), query,
                                train_.features.cols());
      nearest.push_back(i);
    }
    KeepNearest(dist, k_, &nearest);
    double weight = 1.0 / static_cast<double>(nearest.size());
    for (size_t i : nearest) {
      proba(r, static_cast<size_t>(train_.labels[i])) += weight;
    }
  }
  return proba;
}

std::vector<int> DecrementalKnn::Predict(const Matrix& features) const {
  Matrix proba = PredictProba(features);
  std::vector<int> out(features.rows());
  for (size_t r = 0; r < features.rows(); ++r) {
    int best = 0;
    for (int c = 1; c < num_classes_; ++c) {
      if (proba(r, static_cast<size_t>(c)) >
          proba(r, static_cast<size_t>(best))) {
        best = c;
      }
    }
    out[r] = best;
  }
  return out;
}

std::unique_ptr<Classifier> DecrementalKnn::Clone() const {
  return std::make_unique<DecrementalKnn>(k_);
}

}  // namespace nde
