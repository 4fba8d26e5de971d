#ifndef NDE_PROPTEST_DOMAIN_H_
#define NDE_PROPTEST_DOMAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.h"
#include "importance/game_values.h"
#include "ml/dataset.h"
#include "pipeline/pipeline.h"
#include "proptest/gen.h"

namespace nde {
namespace prop {

/// Domain generators: typed Gen<T>s over the library's own input space —
/// datasets, CSV bytes, tables, estimator options, pipeline operator chains,
/// and error-injector mixes. Every invariant suite in tests/ draws its cases
/// from here, so "random dataset" means the same thing everywhere, and every
/// shrunk counterexample renders as a pasteable CSV snippet via the Describe
/// functions.

/// --- Datasets ---------------------------------------------------------------

/// A matched train/validation pair for estimator invariants: Gaussian blobs
/// sharing class centers (so validation is from the same task), sizes and
/// shape drawn per case. Shrinks by dropping train rows (down to 2), then
/// validation rows (down to 1).
struct ImportanceScenario {
  MlDataset train;
  MlDataset valid;
};

Gen<ImportanceScenario> AnyImportanceScenario(size_t max_train = 18,
                                              size_t max_valid = 6,
                                              size_t max_features = 4,
                                              int max_classes = 3);

/// A single random dataset (blobs with random shape/noise). Shrinks by
/// dropping rows down to `min_rows`.
Gen<MlDataset> AnyDataset(size_t min_rows = 2, size_t max_rows = 24,
                          size_t max_features = 4, int max_classes = 3);

/// CSV rendering of a dataset ("f0,...,label" header) — pasteable replay.
std::string DescribeDataset(const MlDataset& data);
std::string DescribeScenario(const ImportanceScenario& scenario);

/// --- Tables and CSV bytes ---------------------------------------------------

/// A random typed table: 1..max_cols columns of mixed int64/double/string
/// types, ~15% nulls, adversarial strings (delimiters, quotes, embedded
/// newlines and CRLF — the writer must quote them and the reader must get
/// them back). Doubles occasionally NaN. Shrinks by dropping rows, then
/// columns (down to 1).
Gen<Table> AnyTable(size_t max_rows = 16, size_t max_cols = 4);

/// Raw CSV text, structured but nasty: random quoting, CRLF and LF endings,
/// missing trailing newline, ragged rows, empty fields, the n/a null marker,
/// NaN spellings, wide rows. The reader must either parse it or return a
/// typed error — never crash or mis-shape. Shrinks by dropping lines.
Gen<std::string> AnyCsvText(size_t max_rows = 12, size_t max_cols = 5);

/// Pasteable renderings. Tables render as their exact CSV serialization;
/// raw text renders with escapes so CR/LF survive a terminal copy.
std::string DescribeTable(const Table& table);
std::string DescribeCsvText(const std::string& text);

/// --- JSON text --------------------------------------------------------------

/// Raw JSON text, structured but nasty: nesting on both sides of the
/// parser's depth cap of 64, duplicate object keys, bad escapes and lone
/// surrogates, huge exponents and malformed numbers, raw control and high
/// bytes, truncation and trailing garbage. A parser must either accept it
/// or return a typed error. Shrinks toward shorter prefixes and suffixes.
Gen<std::string> AnyJsonText();

/// Escapes every byte outside printable ASCII (and the backslash) as \xNN,
/// so the text survives a terminal copy.
std::string DescribeJsonText(const std::string& text);

/// --- Estimator options ------------------------------------------------------

/// Random estimator options with small budgets (properties run hundreds of
/// estimates per suite). Seeds are drawn per case; thread counts are left at
/// the caller's discretion (thread-identity suites sweep them explicitly).
/// Shrinks budgets toward their minimum and tolerances toward 0.
Gen<TmcShapleyOptions> AnyTmcOptions(size_t max_permutations = 12);
Gen<BanzhafOptions> AnyBanzhafOptions(size_t max_samples = 48);
Gen<BetaShapleyOptions> AnyBetaOptions(size_t max_samples_per_unit = 12);

std::string DescribeTmcOptions(const TmcShapleyOptions& options);

/// --- Error-injector mixes ---------------------------------------------------

/// A layered corruption recipe over an MlDataset, drawing on the Figure 1
/// error taxonomy: label flips, feature noise, and out-of-distribution
/// outliers, each with its own rate. Shrinks every rate toward 0.
struct ErrorMix {
  double label_flip_fraction = 0.0;
  double noise_fraction = 0.0;
  double noise_scale = 0.0;
  double outlier_fraction = 0.0;
  double outlier_shift = 0.0;
};

Gen<ErrorMix> AnyErrorMix(double max_fraction = 0.3);

/// Applies the mix in a fixed order (flips, noise, outliers) and returns the
/// union of corrupted row indices, sorted and unique.
std::vector<size_t> ApplyErrorMix(MlDataset* data, const ErrorMix& mix,
                                  Rng* rng);

std::string DescribeErrorMix(const ErrorMix& mix);

/// --- Pipeline operator chains -----------------------------------------------

/// One row-local pipeline operator.
struct PipelineOp {
  enum class Kind {
    kFilterThreshold,  ///< keep rows where column <op> threshold
    kDropColumn,       ///< project away one feature column
  };
  Kind kind = Kind::kFilterThreshold;
  size_t column = 0;  ///< feature-column ordinal (fN); never the label
  double threshold = 0.0;
  bool keep_above = true;
};

/// A numeric table plus a random chain of row-local operators ending in the
/// usual encode step; the substrate for provenance/removal invariants.
/// Shrinks by removing operators, then rows.
struct PipelineScenario {
  Table table;                   ///< columns f0..f{k-1} (double), y (int64)
  std::vector<PipelineOp> ops;
  uint64_t seed = 0;             ///< per-case stream for removal choices etc.
};

Gen<PipelineScenario> AnyPipelineScenario(size_t max_rows = 40,
                                          size_t max_features = 3,
                                          size_t max_ops = 3);

/// Builds the runnable pipeline for a scenario: source -> ops -> numeric
/// encoders over the surviving feature columns, labels from "y".
MlPipeline BuildScenarioPipeline(const PipelineScenario& scenario);

/// The feature columns still present after the scenario's projections.
std::vector<std::string> SurvivingFeatureColumns(
    const PipelineScenario& scenario);

std::string DescribePipelineScenario(const PipelineScenario& scenario);

}  // namespace prop
}  // namespace nde

#endif  // NDE_PROPTEST_DOMAIN_H_
