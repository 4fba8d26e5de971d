#include "importance/influence.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "linalg/solve.h"
#include "telemetry/telemetry.h"

namespace nde {

namespace {

constexpr double kBiasRegularization = 1e-9;

/// Design matrix with standardization and a trailing intercept column,
/// written in one pass. Each cell is FeatureScaler::Transform's expression,
/// so the matrix is bit-identical to Transform followed by a column of ones.
Matrix BuildDesign(const Matrix& features, const FeatureScaler& scaler) {
  size_t d = features.cols();
  NDE_CHECK_EQ(d, scaler.mean.size());
  Matrix design(features.rows(), d + 1);
  for (size_t r = 0; r < features.rows(); ++r) {
    const double* x = features.RowPtr(r);
    double* row = design.RowPtr(r);
    for (size_t c = 0; c < d; ++c) {
      row[c] = (x[c] - scaler.mean[c]) / scaler.stddev[c];
    }
    row[d] = 1.0;
  }
  return design;
}

double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

/// What one pass over the training rows at weights w needs of each row:
/// err = sigmoid(w·x) - y weights the gradient, and the clamped curvature
/// sigmoid · (1 - sigmoid) weights the Hessian. Allocated once per fit, on
/// the calling thread; each row's task writes only its own slots.
struct RowTerms {
  std::vector<double> err;
  std::vector<double> curvature;
};

/// Fills `terms` for every design row at weights `w`, over blocks of
/// kRowBlock rows. Returns the threads used.
Result<size_t> ComputeRowTerms(const Matrix& design,
                               const std::vector<int>& labels,
                               const std::vector<double>& w, RowTerms* terms) {
  size_t n = design.rows();
  size_t p = design.cols();
  return TryParallelFor(
      0, NumRowBlocks(n),
      [&](size_t block) {
        size_t end = std::min(n, (block + 1) * kRowBlock);
        for (size_t i = block * kRowBlock; i < end; ++i) {
          const double* xi = design.RowPtr(i);
          double z = 0.0;
          for (size_t j = 0; j < p; ++j) z += w[j] * xi[j];
          double prob = Sigmoid(z);
          terms->err[i] = prob - static_cast<double>(labels[i]);
          terms->curvature[i] = std::max(prob * (1.0 - prob), 1e-9);
        }
      },
      0, "influence.row_terms");
}

/// A range [begin, end) of Hessian rows that one task sums. Its buffer holds
/// the band's rows of the lower triangle ((end - begin) x p, row-major), then
/// its gradient entries, then one cache line of padding, so that no two
/// bands' sums share a cache line.
struct HessianBand {
  size_t begin = 0;
  size_t end = 0;
  std::vector<double> sums;
};

constexpr size_t kCacheLineDoubles = 8;

/// Splits the p Hessian rows into at most `max_bands` bands of about equal
/// work (row j of the lower triangle has j + 1 elements). Every band starts
/// at an even row, so a band pairs rows as a whole-matrix sweep does. The
/// buffers are allocated here, on the calling thread.
std::vector<HessianBand> MakeHessianBands(size_t p, size_t max_bands) {
  size_t total = p * (p + 1) / 2;
  std::vector<size_t> starts = {0};
  for (size_t b = 1; b < max_bands; ++b) {
    size_t target = total * b / max_bands;
    size_t row = starts.back() + 2;
    while (row < p && row * (row + 1) / 2 < target) row += 2;
    if (row >= p) break;
    starts.push_back(row);
  }
  starts.push_back(p);
  std::vector<HessianBand> bands(starts.size() - 1);
  for (size_t b = 0; b < bands.size(); ++b) {
    bands[b].begin = starts[b];
    bands[b].end = starts[b + 1];
    bands[b].sums.resize((starts[b + 1] - starts[b]) * (p + 1) +
                         kCacheLineDoubles);
  }
  return bands;
}

/// Adds R consecutive design rows x[0..R) to `band`: Hessian element (j, l),
/// l <= j, gains (curvature[r] * x[r][j]) * x[r][l] for r = 0, 1, ... in
/// turn, and with `err`, gradient entry j gains err[r] * x[r][j]. These are
/// the products a one-row-at-a-time sweep makes, rounded the same way and
/// added in the same order, so every sum is bit-identical to it. R = 4 loads
/// and stores each element once per four rows instead of once per row.
/// Rows go in pairs so that each x[r][l] load feeds two Hessian rows.
template <size_t R>
void SweepRows(const double* const* x, const double* curvature,
               const double* err, size_t p, HessianBand* band) {
  double* sums = band->sums.data();
  size_t j = band->begin;
  for (; j + 1 < band->end; j += 2) {
    double* upper = sums + (j - band->begin) * p;
    double* lower = upper + p;
    double upper_scale[R];
    double lower_scale[R];
    for (size_t r = 0; r < R; ++r) {
      upper_scale[r] = curvature[r] * x[r][j];
      lower_scale[r] = curvature[r] * x[r][j + 1];
    }
    for (size_t l = 0; l <= j; ++l) {
      double a = upper[l];
      double b = lower[l];
      for (size_t r = 0; r < R; ++r) {
        a += upper_scale[r] * x[r][l];
        b += lower_scale[r] * x[r][l];
      }
      upper[l] = a;
      lower[l] = b;
    }
    double diagonal = lower[j + 1];
    for (size_t r = 0; r < R; ++r) diagonal += lower_scale[r] * x[r][j + 1];
    lower[j + 1] = diagonal;
  }
  if (j < band->end) {
    double* row = sums + (j - band->begin) * p;
    double scale[R];
    for (size_t r = 0; r < R; ++r) scale[r] = curvature[r] * x[r][j];
    for (size_t l = 0; l <= j; ++l) {
      double a = row[l];
      for (size_t r = 0; r < R; ++r) a += scale[r] * x[r][l];
      row[l] = a;
    }
  }
  if (err != nullptr) {
    double* gradient = sums + (band->end - band->begin) * p;
    for (size_t k = band->begin; k < band->end; ++k) {
      double a = gradient[k - band->begin];
      for (size_t r = 0; r < R; ++r) a += err[r] * x[r][k];
      gradient[k - band->begin] = a;
    }
  }
}

/// Sums every design row, in order, into one band: four rows per sweep, then
/// the n mod 4 left over one at a time.
void AccumulateBand(const Matrix& design, const RowTerms& terms,
                    bool with_gradient, HessianBand* band) {
  std::fill(band->sums.begin(), band->sums.end(), 0.0);
  size_t n = design.rows();
  size_t p = design.cols();
  const double* err = with_gradient ? terms.err.data() : nullptr;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* x[4] = {design.RowPtr(i), design.RowPtr(i + 1),
                          design.RowPtr(i + 2), design.RowPtr(i + 3)};
    SweepRows<4>(x, &terms.curvature[i], err == nullptr ? nullptr : err + i,
                 p, band);
  }
  for (; i < n; ++i) {
    const double* x[1] = {design.RowPtr(i)};
    SweepRows<1>(x, &terms.curvature[i], err == nullptr ? nullptr : err + i,
                 p, band);
  }
}

/// Sets `hessian` to sum_i curvature_i x_i x_i^T (full, mirrored from the
/// lower triangle) and, when `gradient` is given, sets it to
/// sum_i err_i x_i. The bands fan out: each walks all n rows in order, so
/// each element keeps the serial order of its sum, and the caller copies the
/// bands out. Returns the threads used.
Result<size_t> SumCurvature(const Matrix& design, const RowTerms& terms,
                            std::vector<HessianBand>* bands, Matrix* hessian,
                            std::vector<double>* gradient) {
  size_t p = design.cols();
  NDE_ASSIGN_OR_RETURN(
      size_t threads,
      TryParallelFor(
          0, bands->size(),
          [&](size_t b) {
            AccumulateBand(design, terms, gradient != nullptr, &(*bands)[b]);
          },
          0, "influence.hessian_bands"));
  for (const HessianBand& band : *bands) {
    const double* sums = band.sums.data();
    for (size_t j = band.begin; j < band.end; ++j) {
      size_t k = j - band.begin;
      for (size_t l = 0; l <= j; ++l) (*hessian)(j, l) = sums[k * p + l];
      if (gradient != nullptr) {
        (*gradient)[j] = sums[(band.end - band.begin) * p + k];
      }
    }
  }
  for (size_t j = 0; j < p; ++j) {
    for (size_t l = 0; l < j; ++l) (*hessian)(l, j) = (*hessian)(j, l);
  }
  return threads;
}

/// The per-fit state of the fan-outs, sized by the design's kRowBlock blocks:
/// a design of b blocks runs on at most b tasks, so one under a block runs
/// inline. `threads_used` is the widest fan-out so far.
struct CurvatureWork {
  explicit CurvatureWork(const Matrix& design)
      : terms{std::vector<double>(design.rows()),
              std::vector<double>(design.rows())},
        bands(MakeHessianBands(
            design.cols(),
            PlannedNumThreads(NumRowBlocks(design.rows()), 0))) {}

  /// Row terms at `w`, then the curvature sums; see SumCurvature.
  Status Run(const Matrix& design, const std::vector<int>& labels,
             const std::vector<double>& w, Matrix* hessian,
             std::vector<double>* gradient) {
    NDE_ASSIGN_OR_RETURN(size_t row_threads,
                         ComputeRowTerms(design, labels, w, &terms));
    NDE_ASSIGN_OR_RETURN(
        size_t band_threads,
        SumCurvature(design, terms, &bands, hessian, gradient));
    threads_used = std::max({threads_used, row_threads, band_threads});
    return Status::OK();
  }

  RowTerms terms;
  std::vector<HessianBand> bands;
  size_t threads_used = 1;
};

/// Newton-fitted binary logistic regression on a prepared design matrix.
/// Returns the weight vector (last entry = bias).
Result<std::vector<double>> NewtonLogistic(const Matrix& design,
                                           const std::vector<int>& labels,
                                           double l2, size_t iterations,
                                           CurvatureWork* work) {
  size_t p = design.cols();
  std::vector<double> w(p, 0.0);
  double inv_n = 1.0 / static_cast<double>(design.rows());
  for (size_t iter = 0; iter < iterations; ++iter) {
    std::vector<double> gradient(p, 0.0);
    Matrix hessian(p, p);
    NDE_RETURN_IF_ERROR(work->Run(design, labels, w, &hessian, &gradient));
    for (size_t j = 0; j < p; ++j) {
      double reg = (j + 1 == p) ? kBiasRegularization : l2;
      gradient[j] = gradient[j] * inv_n + reg * w[j];
      for (size_t l = 0; l < p; ++l) hessian(j, l) *= inv_n;
      hessian(j, j) += reg;
    }
    NDE_ASSIGN_OR_RETURN(std::vector<double> step,
                         CholeskySolve(hessian, gradient));
    double step_norm = 0.0;
    for (size_t j = 0; j < p; ++j) {
      w[j] -= step[j];
      step_norm += step[j] * step[j];
    }
    if (step_norm < 1e-18) break;
  }
  return w;
}

Status ValidateBinary(const MlDataset& data, const char* what) {
  NDE_RETURN_IF_ERROR(data.Validate());
  for (int label : data.labels) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument(
          std::string(what) + ": influence functions require binary labels");
    }
  }
  return Status::OK();
}

double MeanLogLoss(const Matrix& design, const std::vector<int>& labels,
                   const std::vector<double>& w) {
  double total = 0.0;
  for (size_t i = 0; i < design.rows(); ++i) {
    const double* xi = design.RowPtr(i);
    double z = 0.0;
    for (size_t j = 0; j < w.size(); ++j) z += w[j] * xi[j];
    double prob = Sigmoid(z);
    double p_true = labels[i] == 1 ? prob : 1.0 - prob;
    total -= std::log(std::max(p_true, 1e-12));
  }
  return design.rows() == 0 ? 0.0 : total / static_cast<double>(design.rows());
}

}  // namespace

Result<ImportanceEstimate> InfluenceOnValidationLoss(
    const MlDataset& train, const MlDataset& validation,
    const InfluenceOptions& options) {
  NDE_TRACE_SPAN("influence", "importance");
  NDE_RETURN_IF_ERROR(ValidateBinary(train, "train"));
  NDE_RETURN_IF_ERROR(ValidateBinary(validation, "validation"));
  if (train.size() == 0 || validation.size() == 0) {
    return Status::InvalidArgument("empty train or validation set");
  }

  size_t n = train.size();
  Matrix train_design;
  Matrix val_design;
  {
    NDE_TRACE_SPAN("influence.design", "importance");
    FeatureScaler scaler =
        options.standardize
            ? FeatureScaler::Fit(train.features)
            : FeatureScaler{std::vector<double>(train.features.cols(), 0.0),
                            std::vector<double>(train.features.cols(), 1.0)};
    train_design = BuildDesign(train.features, scaler);
    val_design = BuildDesign(validation.features, scaler);
  }
  size_t p = train_design.cols();

  CurvatureWork work(train_design);
  std::vector<double> w;
  {
    NDE_TRACE_SPAN("influence.newton", "importance");
    NDE_ASSIGN_OR_RETURN(w, NewtonLogistic(train_design, train.labels,
                                           options.l2,
                                           options.newton_iterations, &work));
  }

  // Hessian at the optimum (with regularization). The row terms' errors at
  // the optimum are the per-point residuals.
  Matrix hessian(p, p);
  {
    NDE_TRACE_SPAN("influence.optimum_hessian", "importance");
    NDE_RETURN_IF_ERROR(
        work.Run(train_design, train.labels, w, &hessian, nullptr));
  }
  const std::vector<double>& residuals = work.terms.err;
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t j = 0; j < p; ++j) {
    for (size_t l = 0; l < p; ++l) hessian(j, l) *= inv_n;
    hessian(j, j) += (j + 1 == p) ? kBiasRegularization : options.l2;
  }

  // Mean validation-loss gradient.
  std::vector<double> val_gradient(p, 0.0);
  for (size_t v = 0; v < validation.size(); ++v) {
    const double* xv = val_design.RowPtr(v);
    double z = 0.0;
    for (size_t j = 0; j < p; ++j) z += w[j] * xv[j];
    double err = Sigmoid(z) - static_cast<double>(validation.labels[v]);
    for (size_t j = 0; j < p; ++j) val_gradient[j] += err * xv[j];
  }
  for (double& g : val_gradient) g /= static_cast<double>(validation.size());

  // s = H^{-1} g_val, then phi_i = (1/n) s^T grad L(z_i).
  NDE_ASSIGN_OR_RETURN(std::vector<double> s,
                       CholeskySolve(hessian, val_gradient));
  ImportanceEstimate estimate;
  estimate.values.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = train_design.RowPtr(i);
    double dot = 0.0;
    for (size_t j = 0; j < p; ++j) dot += s[j] * xi[j];
    estimate.values[i] = inv_n * residuals[i] * dot;
  }
  estimate.num_threads_used = work.threads_used;
  return estimate;
}

Result<std::vector<double>> ExactRemovalLossChange(
    const MlDataset& train, const MlDataset& validation,
    const InfluenceOptions& options) {
  NDE_RETURN_IF_ERROR(ValidateBinary(train, "train"));
  NDE_RETURN_IF_ERROR(ValidateBinary(validation, "validation"));
  size_t n = train.size();
  if (n < 2 || validation.size() == 0) {
    return Status::InvalidArgument("need >= 2 train rows and a validation set");
  }
  FeatureScaler scaler =
      options.standardize
          ? FeatureScaler::Fit(train.features)
          : FeatureScaler{std::vector<double>(train.features.cols(), 0.0),
                          std::vector<double>(train.features.cols(), 1.0)};
  Matrix train_design = BuildDesign(train.features, scaler);
  Matrix val_design = BuildDesign(validation.features, scaler);

  CurvatureWork work(train_design);
  NDE_ASSIGN_OR_RETURN(
      std::vector<double> w_full,
      NewtonLogistic(train_design, train.labels, options.l2,
                     options.newton_iterations, &work));
  double loss_full = MeanLogLoss(val_design, validation.labels, w_full);

  std::vector<double> changes(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> keep;
    keep.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) keep.push_back(j);
    }
    Matrix reduced = train_design.SelectRows(keep);
    std::vector<int> labels;
    labels.reserve(n - 1);
    for (size_t j : keep) labels.push_back(train.labels[j]);
    CurvatureWork reduced_work(reduced);
    NDE_ASSIGN_OR_RETURN(std::vector<double> w,
                         NewtonLogistic(reduced, labels, options.l2,
                                        options.newton_iterations,
                                        &reduced_work));
    changes[i] = MeanLogLoss(val_design, validation.labels, w) - loss_full;
  }
  return changes;
}

}  // namespace nde
