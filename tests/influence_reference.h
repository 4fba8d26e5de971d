#ifndef NDE_TESTS_INFLUENCE_REFERENCE_H_
#define NDE_TESTS_INFLUENCE_REFERENCE_H_

// The serial influence computation that the fanned-out one in
// src/importance/influence.cc replaced, kept as the oracle the importance
// suite compares it against bit for bit: one row at a time through every
// Newton step and the Hessian at the optimum. The code is the old one's,
// returning the bare values.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/result.h"
#include "importance/influence.h"
#include "linalg/solve.h"
#include "ml/dataset.h"

namespace nde {
namespace influence_reference {

constexpr double kBiasRegularization = 1e-9;

/// Design matrix with standardization and a trailing intercept column,
/// written in one pass. Each cell is FeatureScaler::Transform's expression,
/// so the matrix is bit-identical to Transform followed by a column of ones.
inline Matrix BuildDesign(const Matrix& features,
                          const FeatureScaler& scaler) {
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

inline double Sigmoid(double z) {
  if (z >= 0.0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

/// Adds curvature * x x^T to the lower triangle of the p x p `hessian`.
/// Rows go in pairs so each x[l] load feeds two rows: twice the work per
/// pass of the inner loop, whose speed then depends less on where the
/// linker places it (a one-row loop is a single 32-byte fetch window at
/// some offsets and two at others). Every element still receives the same
/// products in the same order, so the sums are unchanged.
inline void AddCurvatureOuterProduct(double curvature, const double* x,
                                     size_t p, Matrix* hessian) {
  size_t j = 0;
  for (; j + 1 < p; j += 2) {
    double* upper = &(*hessian)(j, 0);
    double* lower = &(*hessian)(j + 1, 0);
    double upper_scale = curvature * x[j];
    double lower_scale = curvature * x[j + 1];
    for (size_t l = 0; l <= j; ++l) {
      upper[l] += upper_scale * x[l];
      lower[l] += lower_scale * x[l];
    }
    lower[j + 1] += lower_scale * x[j + 1];
  }
  if (j < p) {
    double* row = &(*hessian)(j, 0);
    double scale = curvature * x[j];
    for (size_t l = 0; l <= j; ++l) row[l] += scale * x[l];
  }
}

/// Newton-fitted binary logistic regression on a prepared design matrix.
/// Returns the weight vector (last entry = bias).
inline Result<std::vector<double>> NewtonLogistic(
    const Matrix& design, const std::vector<int>& labels, double l2,
    size_t iterations) {
  size_t n = design.rows();
  size_t p = design.cols();
  std::vector<double> w(p, 0.0);
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t iter = 0; iter < iterations; ++iter) {
    std::vector<double> gradient(p, 0.0);
    Matrix hessian(p, p);
    for (size_t i = 0; i < n; ++i) {
      const double* xi = design.RowPtr(i);
      double z = 0.0;
      for (size_t j = 0; j < p; ++j) z += w[j] * xi[j];
      double prob = Sigmoid(z);
      double err = prob - static_cast<double>(labels[i]);
      double curvature = std::max(prob * (1.0 - prob), 1e-9);
      for (size_t j = 0; j < p; ++j) gradient[j] += err * xi[j];
      AddCurvatureOuterProduct(curvature, xi, p, &hessian);
    }
    for (size_t j = 0; j < p; ++j) {
      for (size_t l = 0; l < j; ++l) hessian(l, j) = hessian(j, l);
    }
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

inline Status ValidateBinary(const MlDataset& data, const char* what) {
  NDE_RETURN_IF_ERROR(data.Validate());
  for (int label : data.labels) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument(
          std::string(what) + ": influence functions require binary labels");
    }
  }
  return Status::OK();
}

inline Result<std::vector<double>> InfluenceOnValidationLoss(
    const MlDataset& train, const MlDataset& validation,
    const InfluenceOptions& options) {
  NDE_RETURN_IF_ERROR(ValidateBinary(train, "train"));
  NDE_RETURN_IF_ERROR(ValidateBinary(validation, "validation"));
  if (train.size() == 0 || validation.size() == 0) {
    return Status::InvalidArgument("empty train or validation set");
  }

  size_t n = train.size();
  FeatureScaler scaler =
      options.standardize
          ? FeatureScaler::Fit(train.features)
          : FeatureScaler{std::vector<double>(train.features.cols(), 0.0),
                          std::vector<double>(train.features.cols(), 1.0)};
  Matrix train_design = BuildDesign(train.features, scaler);
  Matrix val_design = BuildDesign(validation.features, scaler);
  size_t p = train_design.cols();

  NDE_ASSIGN_OR_RETURN(
      std::vector<double> w,
      NewtonLogistic(train_design, train.labels, options.l2,
                     options.newton_iterations));

  // Hessian at the optimum (with regularization), and per-point residuals.
  Matrix hessian(p, p);
  std::vector<double> residuals(n);
  double inv_n = 1.0 / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = train_design.RowPtr(i);
    double z = 0.0;
    for (size_t j = 0; j < p; ++j) z += w[j] * xi[j];
    double prob = Sigmoid(z);
    residuals[i] = prob - static_cast<double>(train.labels[i]);
    double curvature = std::max(prob * (1.0 - prob), 1e-9);
    AddCurvatureOuterProduct(curvature, xi, p, &hessian);
  }
  for (size_t j = 0; j < p; ++j) {
    for (size_t l = 0; l < j; ++l) hessian(l, j) = hessian(j, l);
  }
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
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) {
    const double* xi = train_design.RowPtr(i);
    double dot = 0.0;
    for (size_t j = 0; j < p; ++j) dot += s[j] * xi[j];
    values[i] = inv_n * residuals[i] * dot;
  }
  return values;
}

}  // namespace influence_reference
}  // namespace nde

#endif  // NDE_TESTS_INFLUENCE_REFERENCE_H_
