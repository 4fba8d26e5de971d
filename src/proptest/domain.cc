#include "proptest/domain.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "data/csv.h"
#include "datagen/synthetic.h"
#include "pipeline/encoders.h"

namespace nde {
namespace prop {

namespace {

/// Dataset minus the given rows, preserving order. (MlDataset::Without is
/// equivalent; reimplemented here so shrinking does not rely on the API under
/// test for its own bookkeeping.)
MlDataset DropRows(const MlDataset& data, const std::vector<size_t>& rows) {
  std::set<size_t> drop(rows.begin(), rows.end());
  std::vector<size_t> keep;
  keep.reserve(data.size());
  for (size_t i = 0; i < data.size(); ++i) {
    if (drop.count(i) == 0) keep.push_back(i);
  }
  return data.Subset(keep);
}

/// Row-removal shrink candidates for a dataset: halves first, then a few
/// single rows, never below `min_rows`.
std::vector<MlDataset> ShrinkDatasetRows(const MlDataset& data,
                                         size_t min_rows) {
  std::vector<MlDataset> candidates;
  size_t n = data.size();
  if (n <= min_rows) return candidates;
  if (n / 2 >= min_rows && n >= 2) {
    std::vector<size_t> first_half, second_half;
    for (size_t i = 0; i < n / 2; ++i) first_half.push_back(i);
    for (size_t i = n / 2; i < n; ++i) second_half.push_back(i);
    candidates.push_back(DropRows(data, second_half));
    candidates.push_back(DropRows(data, first_half));
  }
  const size_t kMaxSingle = 6;
  for (size_t i = 0; i < n && i < kMaxSingle; ++i) {
    if (n - 1 < min_rows) break;
    candidates.push_back(DropRows(data, {i}));
  }
  return candidates;
}

}  // namespace

/// --- Datasets ---------------------------------------------------------------

Gen<ImportanceScenario> AnyImportanceScenario(size_t max_train,
                                              size_t max_valid,
                                              size_t max_features,
                                              int max_classes) {
  return Gen<ImportanceScenario>(
      [max_train, max_valid, max_features, max_classes](Rng* rng) {
        BlobsOptions options;
        options.num_examples = 4 + rng->NextBounded(max_train - 3);
        options.num_features = 1 + rng->NextBounded(max_features);
        options.num_classes =
            2 + static_cast<int>(rng->NextBounded(
                    static_cast<uint64_t>(max_classes - 1)));
        options.separation = rng->NextUniform(1.0, 4.0);
        options.noise = rng->NextUniform(0.4, 1.2);
        options.seed = rng->NextUint64() | 1;  // Never the "reuse seed" 0.
        options.center_seed = rng->NextUint64() | 1;
        ImportanceScenario scenario;
        scenario.train = MakeBlobs(options);
        BlobsOptions valid_options = options;
        valid_options.num_examples = 2 + rng->NextBounded(max_valid - 1);
        valid_options.seed = rng->NextUint64() | 1;
        scenario.valid = MakeBlobs(valid_options);
        return scenario;
      },
      [](const ImportanceScenario& scenario) {
        std::vector<ImportanceScenario> candidates;
        for (MlDataset& smaller : ShrinkDatasetRows(scenario.train, 2)) {
          candidates.push_back(
              ImportanceScenario{std::move(smaller), scenario.valid});
        }
        for (MlDataset& smaller : ShrinkDatasetRows(scenario.valid, 1)) {
          candidates.push_back(
              ImportanceScenario{scenario.train, std::move(smaller)});
        }
        return candidates;
      });
}

Gen<MlDataset> AnyDataset(size_t min_rows, size_t max_rows,
                          size_t max_features, int max_classes) {
  NDE_CHECK_LE(min_rows, max_rows);
  return Gen<MlDataset>(
      [min_rows, max_rows, max_features, max_classes](Rng* rng) {
        BlobsOptions options;
        options.num_examples =
            min_rows + rng->NextBounded(max_rows - min_rows + 1);
        options.num_features = 1 + rng->NextBounded(max_features);
        options.num_classes =
            2 + static_cast<int>(rng->NextBounded(
                    static_cast<uint64_t>(max_classes - 1)));
        options.separation = rng->NextUniform(0.5, 4.0);
        options.noise = rng->NextUniform(0.3, 1.5);
        options.seed = rng->NextUint64() | 1;
        return MakeBlobs(options);
      },
      [min_rows](const MlDataset& data) {
        return ShrinkDatasetRows(data, min_rows);
      });
}

std::string DescribeDataset(const MlDataset& data) {
  TableBuilder builder;
  for (size_t j = 0; j < data.num_features(); ++j) {
    std::vector<double> column;
    column.reserve(data.size());
    for (size_t i = 0; i < data.size(); ++i) column.push_back(data.features(i, j));
    builder.AddDoubleColumn(StrFormat("f%zu", j), std::move(column));
  }
  std::vector<int64_t> labels(data.labels.begin(), data.labels.end());
  builder.AddInt64Column("label", std::move(labels));
  return WriteCsvString(builder.Build());
}

std::string DescribeScenario(const ImportanceScenario& scenario) {
  return "train.csv:\n" + DescribeDataset(scenario.train) +
         "valid.csv:\n" + DescribeDataset(scenario.valid);
}

/// --- Tables and CSV bytes ---------------------------------------------------

namespace {

/// A string cell that is canonical under the reader: trimmed, non-empty, not
/// the null marker, and guaranteed non-numeric (contains a letter), so a
/// write->read round trip preserves it textually. May contain delimiters,
/// quotes, and embedded (non-edge) newlines/CRLF — the writer must quote
/// them.
std::string NastyStringCell(Rng* rng) {
  static const char kAlphabet[] = {'a', 'b', 'z', ',', '"', ' ',
                                   '\n', '\r', '\'', '|', ';', 'x'};
  size_t length = 1 + rng->NextBounded(10);
  std::string cell;
  for (size_t i = 0; i < length; ++i) {
    cell.push_back(kAlphabet[rng->NextBounded(std::size(kAlphabet))]);
  }
  std::string trimmed(StripWhitespace(cell));
  if (trimmed.empty() ||
      trimmed.find_first_of("abzx") == std::string::npos) {
    trimmed.push_back('q');
  }
  return trimmed;
}

Value RandomCell(DataType type, Rng* rng) {
  if (rng->NextBernoulli(0.15)) return Value::Null();
  switch (type) {
    case DataType::kInt64:
      return Value(rng->NextInt(-1000000, 1000000));
    case DataType::kDouble:
      if (rng->NextBernoulli(0.05)) {
        return Value(std::numeric_limits<double>::quiet_NaN());
      }
      return Value(rng->NextUniform(-1e6, 1e6));
    case DataType::kString:
      return Value(NastyStringCell(rng));
  }
  return Value::Null();
}

}  // namespace

Gen<Table> AnyTable(size_t max_rows, size_t max_cols) {
  return Gen<Table>(
      [max_rows, max_cols](Rng* rng) {
        size_t cols = 1 + rng->NextBounded(max_cols);
        size_t rows = 1 + rng->NextBounded(max_rows);
        static const DataType kTypes[] = {DataType::kInt64, DataType::kDouble,
                                          DataType::kString};
        TableBuilder builder;
        for (size_t c = 0; c < cols; ++c) {
          DataType type = kTypes[rng->NextBounded(3)];
          std::vector<Value> cells;
          cells.reserve(rows);
          for (size_t r = 0; r < rows; ++r) {
            cells.push_back(RandomCell(type, rng));
          }
          builder.AddValueColumn(StrFormat("c%zu", c), type, std::move(cells));
        }
        return builder.Build();
      },
      [](const Table& table) {
        std::vector<Table> candidates;
        size_t n = table.num_rows();
        // Remove row halves, then single rows.
        if (n >= 2) {
          std::vector<size_t> first_half, second_half;
          for (size_t i = 0; i < n / 2; ++i) first_half.push_back(i);
          for (size_t i = n / 2; i < n; ++i) second_half.push_back(i);
          candidates.push_back(table.SelectRows(first_half));
          candidates.push_back(table.SelectRows(second_half));
          const size_t kMaxSingle = 6;
          for (size_t i = 0; i < n && i < kMaxSingle; ++i) {
            std::vector<size_t> keep;
            for (size_t j = 0; j < n; ++j) {
              if (j != i) keep.push_back(j);
            }
            candidates.push_back(table.SelectRows(keep));
          }
        }
        // Remove one column (keep at least one).
        if (table.num_columns() > 1) {
          for (size_t drop = 0; drop < table.num_columns(); ++drop) {
            std::vector<std::string> keep;
            for (size_t c = 0; c < table.num_columns(); ++c) {
              if (c != drop) keep.push_back(table.schema().field(c).name);
            }
            candidates.push_back(table.SelectColumns(keep).value());
          }
        }
        return candidates;
      });
}

namespace {

/// One raw CSV cell, drawn from the taxonomy of things real files contain.
std::string RawCsvCell(Rng* rng) {
  switch (rng->NextBounded(8)) {
    case 0:
      return StrFormat("%lld", static_cast<long long>(rng->NextInt(-999, 999)));
    case 1:
      return StrFormat("%.3f", rng->NextUniform(-100.0, 100.0));
    case 2:
      return "";  // empty field -> null
    case 3:
      return "n/a";  // the null marker
    case 4:
      return rng->NextBernoulli(0.5) ? "nan" : "inf";
    case 5: {  // quoted field, possibly with embedded delimiter/quote/newline
      std::string inner = NastyStringCell(rng);
      std::string quoted = "\"";
      for (char c : inner) {
        if (c == '"') quoted += "\"\"";
        else quoted.push_back(c);
      }
      quoted.push_back('"');
      return quoted;
    }
    case 6:
      return std::string(StripWhitespace(NastyStringCell(rng)));
    default: {  // bare word
      std::string word;
      size_t length = 1 + rng->NextBounded(6);
      for (size_t i = 0; i < length; ++i) {
        word.push_back(static_cast<char>('a' + rng->NextBounded(26)));
      }
      return word;
    }
  }
}

}  // namespace

Gen<std::string> AnyCsvText(size_t max_rows, size_t max_cols) {
  return Gen<std::string>(
      [max_rows, max_cols](Rng* rng) {
        size_t cols = 1 + rng->NextBounded(max_cols);
        size_t rows = rng->NextBounded(max_rows + 1);
        bool crlf = rng->NextBernoulli(0.3);
        bool final_newline = rng->NextBernoulli(0.8);
        const char* ending = crlf ? "\r\n" : "\n";
        std::ostringstream os;
        for (size_t c = 0; c < cols; ++c) {
          if (c > 0) os << ',';
          os << "h" << c;
        }
        os << ending;
        for (size_t r = 0; r < rows; ++r) {
          size_t row_cols = cols;
          if (rng->NextBernoulli(0.1)) {  // ragged row
            row_cols = 1 + rng->NextBounded(max_cols + 2);
          }
          for (size_t c = 0; c < row_cols; ++c) {
            if (c > 0) os << ',';
            os << RawCsvCell(rng);
          }
          if (r + 1 < rows || final_newline) os << ending;
        }
        return os.str();
      },
      [](const std::string& text) {
        // Shrink by dropping physical lines. Splitting may cut through a
        // quoted region — fine: any byte string is valid reader input.
        std::vector<std::string> lines = SplitString(text, '\n');
        std::vector<std::string> candidates;
        for (std::vector<std::string>& smaller :
             ShrinkVector<std::string>(lines, nullptr, 1)) {
          candidates.push_back(JoinStrings(smaller, "\n"));
        }
        return candidates;
      });
}

std::string DescribeTable(const Table& table) { return WriteCsvString(table); }

std::string DescribeCsvText(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size() + 16);
  for (char c : text) {
    switch (c) {
      case '\n': escaped += "\\n"; break;
      case '\r': escaped += "\\r"; break;
      case '\t': escaped += "\\t"; break;
      default: escaped.push_back(c);
    }
  }
  return "csv bytes (escaped): \"" + escaped + "\"";
}

/// --- JSON text --------------------------------------------------------------

namespace {

/// One JSON-ish value: strings mixing valid escapes with bad ones, lone
/// surrogates and raw control, NUL and high bytes; well-formed and malformed
/// numbers and literals; and, less than 4 levels down, arrays and objects
/// whose later keys repeat the first a fifth of the time.
std::string JsonValueText(Rng* rng, size_t depth) {
  static const char* const kStringPieces[] = {
      "a", "dup", " ", "\\n", "\\\"", "\\\\", "\\u00e9", "\\ud83d\\ude00",
      "\xc3\xa9", "\\ud800", "\\udc00", "\\ud800\\u0041", "\\q", "\\u12",
      "\\uzzzz", "\x01", "\x1f", "\xff"};
  static const char* const kScalars[] = {
      "0", "-0", "-12", "3.25", "1E-3", "2.5e+2", "1e999999", "-1e999999",
      "1e-999999", "123456789012345678901234567890", "01", "1.", ".5", "-",
      "1e", "+1", "0x10", "NaN", "true", "false", "null", "tru", "True"};
  auto string_token = [rng] {
    std::string token = "\"";
    for (size_t i = rng->NextBounded(5); i > 0; --i) {
      token += rng->NextBernoulli(0.05)
                   ? std::string(1, '\0')
                   : kStringPieces[rng->NextBounded(std::size(kStringPieces))];
    }
    return token + "\"";
  };
  size_t kind = rng->NextBounded(depth >= 4 ? 2 : 4);
  if (kind == 0) return string_token();
  if (kind == 1) return kScalars[rng->NextBounded(std::size(kScalars))];
  bool array = kind == 2;
  std::string text = array ? "[" : "{";
  std::string first_key;
  for (size_t i = 0, n = rng->NextBounded(4); i < n; ++i) {
    if (i > 0) text += ',';
    if (!array) {
      std::string key = i > 0 && rng->NextBernoulli(0.2) ? first_key
                                                         : string_token();
      if (i == 0) first_key = key;
      text += key + ":";
    }
    text += JsonValueText(rng, depth + 1);
  }
  return text + (array ? "]" : "}");
}

}  // namespace

Gen<std::string> AnyJsonText() {
  return Gen<std::string>(
      [](Rng* rng) {
        // A quarter of the documents sit 58..70 levels deep, straddling the
        // parser's cap of 64.
        std::string text;
        std::string closers;
        size_t levels = rng->NextBernoulli(0.25) ? 58 + rng->NextBounded(13)
                                                 : 0;
        for (size_t i = 0; i < levels; ++i) {
          bool array = rng->NextBernoulli(0.5);
          text += array ? "[" : "{\"k\":";
          closers += array ? ']' : '}';
        }
        text += JsonValueText(rng, 0);
        text.append(closers.rbegin(), closers.rend());
        if (rng->NextBernoulli(0.15)) {
          text.resize(rng->NextBounded(text.size() + 1));  // truncated
        } else if (rng->NextBernoulli(0.05)) {
          text += rng->NextBernoulli(0.5) ? " x" : ",";  // trailing garbage
        }
        return text;
      },
      [](const std::string& text) {
        std::vector<std::string> candidates;  // All strictly shorter.
        if (text.empty()) return candidates;
        candidates = {text.substr(0, text.size() / 2),
                      text.substr(text.size() / 2 + 1),
                      text.substr(0, text.size() - 1), text.substr(1)};
        return candidates;
      });
}

std::string DescribeJsonText(const std::string& text) {
  std::string escaped;
  for (char c : text) {
    unsigned char byte = static_cast<unsigned char>(c);
    if (byte < 0x20 || byte >= 0x7f || c == '\\') {
      escaped += StrFormat("\\x%02x", byte);
    } else {
      escaped.push_back(c);
    }
  }
  return "json bytes (escaped): \"" + escaped + "\"";
}

/// --- Estimator options ------------------------------------------------------

Gen<TmcShapleyOptions> AnyTmcOptions(size_t max_permutations) {
  return Gen<TmcShapleyOptions>(
      [max_permutations](Rng* rng) {
        TmcShapleyOptions options;
        options.num_permutations = 1 + rng->NextBounded(max_permutations);
        options.seed = rng->NextUint64() | 1;
        options.truncation_tolerance =
            rng->NextBernoulli(0.3) ? rng->NextUniform(0.01, 0.3) : 0.0;
        options.convergence_tolerance =
            rng->NextBernoulli(0.2) ? rng->NextUniform(0.02, 0.2) : 0.0;
        return options;
      },
      [](const TmcShapleyOptions& options) {
        std::vector<TmcShapleyOptions> candidates;
        for (size_t p : ShrinkIntegerToward<size_t>(
                 1, options.num_permutations)) {
          TmcShapleyOptions smaller = options;
          smaller.num_permutations = p;
          candidates.push_back(smaller);
        }
        if (options.truncation_tolerance != 0.0) {
          TmcShapleyOptions smaller = options;
          smaller.truncation_tolerance = 0.0;
          candidates.push_back(smaller);
        }
        if (options.convergence_tolerance != 0.0) {
          TmcShapleyOptions smaller = options;
          smaller.convergence_tolerance = 0.0;
          candidates.push_back(smaller);
        }
        return candidates;
      });
}

Gen<BanzhafOptions> AnyBanzhafOptions(size_t max_samples) {
  return Gen<BanzhafOptions>(
      [max_samples](Rng* rng) {
        BanzhafOptions options;
        options.num_samples = 1 + rng->NextBounded(max_samples);
        options.seed = rng->NextUint64() | 1;
        options.convergence_tolerance =
            rng->NextBernoulli(0.2) ? rng->NextUniform(0.02, 0.2) : 0.0;
        return options;
      },
      [](const BanzhafOptions& options) {
        std::vector<BanzhafOptions> candidates;
        for (size_t s : ShrinkIntegerToward<size_t>(1, options.num_samples)) {
          BanzhafOptions smaller = options;
          smaller.num_samples = s;
          candidates.push_back(smaller);
        }
        return candidates;
      });
}

Gen<BetaShapleyOptions> AnyBetaOptions(size_t max_samples_per_unit) {
  return Gen<BetaShapleyOptions>(
      [max_samples_per_unit](Rng* rng) {
        BetaShapleyOptions options;
        options.samples_per_unit = 1 + rng->NextBounded(max_samples_per_unit);
        options.seed = rng->NextUint64() | 1;
        options.alpha = rng->NextBernoulli(0.5) ? 1.0
                                                : rng->NextUniform(1.0, 16.0);
        options.beta = rng->NextBernoulli(0.7) ? 1.0
                                               : rng->NextUniform(1.0, 4.0);
        return options;
      },
      [](const BetaShapleyOptions& options) {
        std::vector<BetaShapleyOptions> candidates;
        for (size_t s :
             ShrinkIntegerToward<size_t>(1, options.samples_per_unit)) {
          BetaShapleyOptions smaller = options;
          smaller.samples_per_unit = s;
          candidates.push_back(smaller);
        }
        if (options.alpha != 1.0 || options.beta != 1.0) {
          BetaShapleyOptions smaller = options;
          smaller.alpha = 1.0;
          smaller.beta = 1.0;
          candidates.push_back(smaller);
        }
        return candidates;
      });
}

std::string DescribeTmcOptions(const TmcShapleyOptions& options) {
  return StrFormat(
      "TmcShapleyOptions{num_permutations=%zu seed=%llu truncation=%g "
      "convergence=%g}",
      options.num_permutations,
      static_cast<unsigned long long>(options.seed),
      options.truncation_tolerance, options.convergence_tolerance);
}

/// --- Error-injector mixes ---------------------------------------------------

Gen<ErrorMix> AnyErrorMix(double max_fraction) {
  return Gen<ErrorMix>(
      [max_fraction](Rng* rng) {
        ErrorMix mix;
        if (rng->NextBernoulli(0.7)) {
          mix.label_flip_fraction = rng->NextUniform(0.05, max_fraction);
        }
        if (rng->NextBernoulli(0.4)) {
          mix.noise_fraction = rng->NextUniform(0.05, max_fraction);
          mix.noise_scale = rng->NextUniform(0.5, 3.0);
        }
        if (rng->NextBernoulli(0.4)) {
          mix.outlier_fraction = rng->NextUniform(0.05, max_fraction);
          mix.outlier_shift = rng->NextUniform(2.0, 8.0);
        }
        return mix;
      },
      [](const ErrorMix& mix) {
        std::vector<ErrorMix> candidates;
        if (mix.label_flip_fraction != 0.0) {
          ErrorMix smaller = mix;
          smaller.label_flip_fraction = 0.0;
          candidates.push_back(smaller);
        }
        if (mix.noise_fraction != 0.0) {
          ErrorMix smaller = mix;
          smaller.noise_fraction = 0.0;
          smaller.noise_scale = 0.0;
          candidates.push_back(smaller);
        }
        if (mix.outlier_fraction != 0.0) {
          ErrorMix smaller = mix;
          smaller.outlier_fraction = 0.0;
          smaller.outlier_shift = 0.0;
          candidates.push_back(smaller);
        }
        return candidates;
      });
}

std::vector<size_t> ApplyErrorMix(MlDataset* data, const ErrorMix& mix,
                                  Rng* rng) {
  std::set<size_t> corrupted;
  if (mix.label_flip_fraction > 0.0) {
    for (size_t i : InjectLabelErrors(data, mix.label_flip_fraction, rng)) {
      corrupted.insert(i);
    }
  }
  if (mix.noise_fraction > 0.0) {
    for (size_t i :
         InjectFeatureNoise(data, mix.noise_fraction, mix.noise_scale, rng)) {
      corrupted.insert(i);
    }
  }
  if (mix.outlier_fraction > 0.0) {
    for (size_t i :
         InjectOutliers(data, mix.outlier_fraction, mix.outlier_shift, rng)) {
      corrupted.insert(i);
    }
  }
  return std::vector<size_t>(corrupted.begin(), corrupted.end());
}

std::string DescribeErrorMix(const ErrorMix& mix) {
  return StrFormat(
      "ErrorMix{label_flip=%g noise=%g@%g outliers=%g@%g}",
      mix.label_flip_fraction, mix.noise_fraction, mix.noise_scale,
      mix.outlier_fraction, mix.outlier_shift);
}

/// --- Pipeline operator chains -----------------------------------------------

Gen<PipelineScenario> AnyPipelineScenario(size_t max_rows, size_t max_features,
                                          size_t max_ops) {
  return Gen<PipelineScenario>(
      [max_rows, max_features, max_ops](Rng* rng) {
        PipelineScenario scenario;
        size_t rows = 12 + rng->NextBounded(max_rows - 11);
        size_t features = 1 + rng->NextBounded(max_features);
        TableBuilder builder;
        for (size_t j = 0; j < features; ++j) {
          std::vector<double> column;
          column.reserve(rows);
          for (size_t r = 0; r < rows; ++r) {
            column.push_back(rng->NextGaussian());
          }
          builder.AddDoubleColumn(StrFormat("f%zu", j), std::move(column));
        }
        std::vector<int64_t> labels;
        labels.reserve(rows);
        for (size_t r = 0; r < rows; ++r) {
          labels.push_back(rng->NextBernoulli(0.5) ? 1 : 0);
        }
        builder.AddInt64Column("y", std::move(labels));
        scenario.table = builder.Build();
        scenario.seed = rng->NextUint64() | 1;

        size_t num_ops = rng->NextBounded(max_ops + 1);
        size_t remaining = features;
        for (size_t o = 0; o < num_ops; ++o) {
          PipelineOp op;
          // Drop a column only while at least two features remain; always
          // reference columns by original ordinal among survivors.
          if (remaining > 1 && rng->NextBernoulli(0.3)) {
            op.kind = PipelineOp::Kind::kDropColumn;
            op.column = rng->NextBounded(features);
            --remaining;
          } else {
            op.kind = PipelineOp::Kind::kFilterThreshold;
            op.column = rng->NextBounded(features);
            // Features are standard normal; a threshold near the center
            // keeps a healthy fraction of rows per filter.
            op.threshold = rng->NextUniform(-0.6, 0.6);
            op.keep_above = rng->NextBernoulli(0.5);
          }
          scenario.ops.push_back(op);
        }
        return scenario;
      },
      [](const PipelineScenario& scenario) {
        std::vector<PipelineScenario> candidates;
        // Drop operators first (usually the biggest simplification).
        for (std::vector<PipelineOp>& fewer : ShrinkVector<PipelineOp>(
                 scenario.ops, nullptr, 0)) {
          PipelineScenario smaller = scenario;
          smaller.ops = std::move(fewer);
          candidates.push_back(std::move(smaller));
        }
        // Then shrink the table row count.
        size_t n = scenario.table.num_rows();
        if (n > 12) {
          std::vector<size_t> first_half;
          for (size_t i = 0; i < std::max<size_t>(n / 2, 12); ++i) {
            first_half.push_back(i);
          }
          PipelineScenario smaller = scenario;
          smaller.table = scenario.table.SelectRows(first_half);
          candidates.push_back(std::move(smaller));
        }
        return candidates;
      });
}

std::vector<std::string> SurvivingFeatureColumns(
    const PipelineScenario& scenario) {
  std::set<size_t> dropped;
  for (const PipelineOp& op : scenario.ops) {
    if (op.kind == PipelineOp::Kind::kDropColumn) dropped.insert(op.column);
  }
  std::vector<std::string> survivors;
  for (size_t c = 0; c + 1 < scenario.table.num_columns(); ++c) {
    if (dropped.count(c) == 0) {
      survivors.push_back(scenario.table.schema().field(c).name);
    }
  }
  if (survivors.empty()) {
    // Every feature was dropped (possible after shrinking); keep the first
    // so the pipeline still has one input feature.
    survivors.push_back(scenario.table.schema().field(0).name);
  }
  return survivors;
}

MlPipeline BuildScenarioPipeline(const PipelineScenario& scenario) {
  std::vector<std::string> survivors = SurvivingFeatureColumns(scenario);
  std::vector<PipelineOp> ops = scenario.ops;
  std::vector<std::string> feature_names;
  for (size_t c = 0; c + 1 < scenario.table.num_columns(); ++c) {
    feature_names.push_back(scenario.table.schema().field(c).name);
  }
  std::set<std::string> surviving_set(survivors.begin(), survivors.end());

  PlanBuilder builder = [ops, feature_names, survivors](
                            const std::vector<PlanNodePtr>& sources) {
    PlanNodePtr node = sources[0];
    for (const PipelineOp& op : ops) {
      if (op.kind != PipelineOp::Kind::kFilterThreshold) continue;
      std::string column = feature_names[op.column];
      double threshold = op.threshold;
      bool keep_above = op.keep_above;
      node = MakeFilter(
          node,
          StrFormat("%s %s %g", column.c_str(), keep_above ? ">" : "<=",
                    threshold),
          [column, threshold, keep_above](const RowView& row) {
            Result<Value> cell = row.Get(column);
            if (!cell.ok() || cell.value().is_null()) return false;
            double v = cell.value().AsNumeric();
            return keep_above ? v > threshold : v <= threshold;
          });
    }
    std::vector<std::string> projected = survivors;
    projected.push_back("y");
    return MakeProject(std::move(node), projected);
  };

  ColumnTransformer transformer;
  for (const std::string& column : survivors) {
    transformer.Add(column, std::make_unique<NumericEncoder>(false));
  }
  return MlPipeline({{"train", scenario.table}}, builder,
                    std::move(transformer), "y");
}

std::string DescribePipelineScenario(const PipelineScenario& scenario) {
  std::ostringstream os;
  os << "table.csv:\n" << WriteCsvString(scenario.table) << "ops:";
  if (scenario.ops.empty()) os << " (none)";
  for (const PipelineOp& op : scenario.ops) {
    if (op.kind == PipelineOp::Kind::kDropColumn) {
      os << StrFormat(" drop(f%zu)", op.column);
    } else {
      os << StrFormat(" filter(f%zu %s %g)", op.column,
                      op.keep_above ? ">" : "<=", op.threshold);
    }
  }
  os << StrFormat("\nseed: %llu\n",
                  static_cast<unsigned long long>(scenario.seed));
  return os.str();
}

}  // namespace prop
}  // namespace nde
