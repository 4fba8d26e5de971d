#ifndef NDE_TESTS_COLD_REFERENCE_H_
#define NDE_TESTS_COLD_REFERENCE_H_

// The one cold-reference wrapper that the determinism and property suites
// and bench/scalability check the utility fast path against.

#include <cstddef>
#include <vector>

#include "importance/utility.h"

namespace nde {

/// The cold reference: forwards Evaluate to a utility it never prepares and
/// offers no prefix scan, so a game estimator fits every coalition (and
/// TMC-Shapley every prefix) from scratch. `inner` must outlive it.
class ColdReference : public UtilityFunction {
 public:
  explicit ColdReference(const UtilityFunction& inner) : inner_(inner) {}
  double Evaluate(const std::vector<size_t>& subset) const override {
    return inner_.Evaluate(subset);
  }
  size_t num_units() const override { return inner_.num_units(); }

 private:
  const UtilityFunction& inner_;
};

}  // namespace nde

#endif  // NDE_TESTS_COLD_REFERENCE_H_
