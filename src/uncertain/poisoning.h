#ifndef NDE_UNCERTAIN_POISONING_H_
#define NDE_UNCERTAIN_POISONING_H_

#include <vector>

#include "common/result.h"
#include "ml/dataset.h"

namespace nde {

/// Certified robustness of K-NN predictions to training-data poisoning, in
/// the spirit of the intrinsic certificates for nearest-neighbor/bagging
/// models (Jia et al. 2021; Section 2.3's certified-defense citations).
///
/// The *removal radius* of a query is the largest number r such that the
/// K-NN prediction cannot change no matter which r training points an
/// adversary deletes. For K-NN the optimal deletion adversary is simple:
/// deleting a point outside the current top-K never changes the neighbor
/// set, and deleting any current-winner point inside the top-K produces the
/// same successor neighbor set regardless of which one is chosen — so greedy
/// simulation computes the exact radius.

/// Exact removal radius for one query. Returns the number of adversarial
/// deletions the prediction provably survives (0 = a single deletion can
/// already flip it; at most train.size() - 1). Rows are ranked by
/// NearestOrder (ml/knn.h), KnnClassifier's order with NaN distances last,
/// and vote ties follow KnnClassifier's rule.
size_t CertifiedRemovalRadius(const MlDataset& train,
                              const std::vector<double>& query, size_t k);

/// Insertion radius: the largest number of adversarially *added* points the
/// prediction survives. An optimal insertion adversary places points at
/// distance 0 with the strongest competitor's label, so the radius has a
/// closed form in terms of the top-K vote margin.
size_t CertifiedInsertionRadius(const MlDataset& train,
                                const std::vector<double>& query, size_t k);

/// Fraction of queries whose prediction is certified to survive `budget`
/// adversarial deletions — the certified-accuracy curve reported by the
/// certified-defense literature.
double CertifiedRemovalRatio(const MlDataset& train, const Matrix& queries,
                             size_t k, size_t budget);

}  // namespace nde

#endif  // NDE_UNCERTAIN_POISONING_H_
