// The algorithm registry (src/nde/registry.h) is the single surface the CLI,
// the HTTP job API, and tests use to pick an estimator by name and set its
// knobs from strings. These tests pin its contract: every built-in is
// enumerable with a well-formed JSON catalog, option values round-trip
// through Configure/GetOption, type mismatches and unknown names fail with
// the right Status codes without mutating the instance, and a registry-driven
// run is bit-identical to calling the estimator directly.

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/status.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "nde/registry.h"

namespace nde {
namespace {

const char* kBuiltins[] = {
    "loo",        "tmc_shapley", "banzhaf",         "beta_shapley",
    "knn_shapley", "datascope",  "influence",       "aum",
    "self_confidence",
};

std::unique_ptr<AlgorithmInstance> Make(const std::string& name) {
  Result<std::unique_ptr<AlgorithmInstance>> created =
      AlgorithmRegistry::Global().Create(name);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(*created) : nullptr;
}

TEST(RegistryTest, AllBuiltinsRegistered) {
  for (const char* name : kBuiltins) {
    EXPECT_TRUE(AlgorithmRegistry::Global().Has(name)) << name;
    std::unique_ptr<AlgorithmInstance> instance = Make(name);
    EXPECT_EQ(instance->name(), name);
    EXPECT_FALSE(instance->summary().empty()) << name;
  }
}

TEST(RegistryTest, NamesSorted) {
  std::vector<std::string> names = AlgorithmRegistry::Global().Names();
  EXPECT_GE(names.size(), std::size(kBuiltins));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RegistryTest, CreateUnknownIsNotFoundListingAvailable) {
  Result<std::unique_ptr<AlgorithmInstance>> created =
      AlgorithmRegistry::Global().Create("nope");
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kNotFound);
  // The error lists the available names so a typo is self-diagnosing.
  EXPECT_NE(created.status().message().find("tmc_shapley"), std::string::npos)
      << created.status().ToString();
}

TEST(RegistryTest, DescribeJsonWellFormedAndComplete) {
  std::string json = AlgorithmRegistry::Global().DescribeJson();
  EXPECT_TRUE(json::Parse(json).ok()) << json;
  for (const char* name : kBuiltins) {
    EXPECT_NE(json.find("\"" + std::string(name) + "\""), std::string::npos)
        << name;
  }
  // Options carry their typed schema.
  EXPECT_NE(json.find("\"num_permutations\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"int\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"double\""), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"bool\""), std::string::npos);
}

TEST(RegistryTest, DescribeTextMentionsEveryAlgorithm) {
  std::string text = AlgorithmRegistry::Global().DescribeText();
  for (const char* name : kBuiltins) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
  }
}

TEST(RegistryTest, EachAlgorithmListsOnlyTheOptionsItsEstimatorReads) {
  // The catalog, pinned in registration order: every listed option changes
  // what its estimator computes or how it runs, so a tuning loop over the
  // catalog never searches an inert knob.
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      expected = {
          {"loo", {"model", "k", "num_threads"}},
          {"tmc_shapley",
           {"model", "k", "num_threads", "seed", "convergence_tolerance",
            "num_permutations", "truncation_tolerance", "warm_start"}},
          {"banzhaf",
           {"model", "k", "num_threads", "seed", "convergence_tolerance",
            "num_samples"}},
          {"beta_shapley",
           {"model", "k", "num_threads", "seed", "convergence_tolerance",
            "alpha", "beta", "samples_per_unit"}},
          {"knn_shapley", {"k", "num_threads"}},
          {"datascope", {"k", "num_threads"}},
          {"influence", {"l2", "newton_iterations", "standardize"}},
          {"aum", {"learning_rate", "epochs", "l2"}},
          {"self_confidence", {"num_folds", "seed", "k"}},
      };
  size_t total = 0;
  for (const auto& [algorithm, options] : expected) {
    std::vector<std::string> names;
    for (const OptionSpec& spec : Make(algorithm)->OptionSpecs()) {
      names.push_back(spec.name);
    }
    EXPECT_EQ(names, options) << algorithm;
    total += names.size();
  }
  EXPECT_EQ(total, 38u);
}

TEST(RegistryTest, ConfigureRoundTripsThroughGetOption) {
  std::unique_ptr<AlgorithmInstance> tmc = Make("tmc_shapley");
  ASSERT_TRUE(tmc->Configure("num_permutations", "64").ok());
  ASSERT_TRUE(tmc->Configure("truncation_tolerance", "0.25").ok());
  ASSERT_TRUE(tmc->Configure("warm_start", "true").ok());
  ASSERT_TRUE(tmc->Configure("seed", "9001").ok());
  EXPECT_EQ(tmc->GetOption("num_permutations").value(), "64");
  EXPECT_EQ(tmc->GetOption("truncation_tolerance").value(), "0.25");
  EXPECT_EQ(tmc->GetOption("warm_start").value(), "true");
  EXPECT_EQ(tmc->GetOption("seed").value(), "9001");
}

TEST(RegistryTest, EveryDeclaredDefaultReconfigures) {
  // The advertised default of every option must itself be a valid Configure
  // value — otherwise the /algorithmz catalog lies about the wire format.
  for (const std::string& name : AlgorithmRegistry::Global().Names()) {
    std::unique_ptr<AlgorithmInstance> instance = Make(name);
    for (const OptionSpec& spec : instance->OptionSpecs()) {
      Status set = instance->Configure(spec.name, spec.default_value);
      EXPECT_TRUE(set.ok()) << name << "." << spec.name << " = '"
                            << spec.default_value << "': " << set.ToString();
      EXPECT_EQ(instance->GetOption(spec.name).value(), spec.default_value)
          << name << "." << spec.name;
    }
  }
}

TEST(RegistryTest, TypeMismatchIsInvalidArgumentAndLeavesValue) {
  std::unique_ptr<AlgorithmInstance> tmc = Make("tmc_shapley");
  std::string before = tmc->GetOption("num_permutations").value();

  Status bad_int = tmc->Configure("num_permutations", "many");
  EXPECT_EQ(bad_int.code(), StatusCode::kInvalidArgument);
  // Context names the option and algorithm.
  EXPECT_NE(bad_int.message().find("num_permutations"), std::string::npos);
  EXPECT_NE(bad_int.message().find("tmc_shapley"), std::string::npos);

  Status bad_bool = tmc->Configure("warm_start", "maybe");
  EXPECT_EQ(bad_bool.code(), StatusCode::kInvalidArgument);
  Status bad_double = tmc->Configure("truncation_tolerance", "0.5x");
  EXPECT_EQ(bad_double.code(), StatusCode::kInvalidArgument);
  Status negative = tmc->Configure("num_permutations", "-3");
  EXPECT_EQ(negative.code(), StatusCode::kInvalidArgument);
  Status zero = tmc->Configure("num_permutations", "0");
  EXPECT_EQ(zero.code(), StatusCode::kInvalidArgument);

  // A failed Configure leaves the instance unchanged.
  EXPECT_EQ(tmc->GetOption("num_permutations").value(), before);
}

TEST(RegistryTest, UnknownOptionIsNotFound) {
  std::unique_ptr<AlgorithmInstance> knn = Make("knn_shapley");
  Status unknown = knn->Configure("num_permutations", "8");
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  EXPECT_EQ(knn->GetOption("bogus").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(knn->HasOption("bogus"));
  EXPECT_TRUE(knn->HasOption("k"));
}

TEST(RegistryTest, RetiredOptionsAreUnknown) {
  // The subset cache, float32, the benchmark-only kernel switches and the
  // retry policy are gone: naming one is an unknown option on every game
  // algorithm.
  for (const char* algorithm : {"loo", "tmc_shapley", "banzhaf",
                                "beta_shapley"}) {
    std::unique_ptr<AlgorithmInstance> instance = Make(algorithm);
    for (const char* retired : {"utility_cache", "soa_kernels", "float32",
                                "arena", "max_retries", "retry_backoff_ms"}) {
      EXPECT_FALSE(instance->HasOption(retired)) << algorithm << " " << retired;
      EXPECT_EQ(instance->Configure(retired, "true").code(),
                StatusCode::kNotFound)
          << algorithm << " " << retired;
    }
  }
}

TEST(RegistryTest, OptionsNoEstimatorReadsAreUnknown) {
  // Options an estimator never reads are not listed for it, so naming one
  // fails like any unknown option instead of being accepted and ignored.
  // KNN-Shapley (and datascope on top of it) is a closed form; LOO draws no
  // randomness and has no convergence test; only TMC scans prefixes, and it
  // always asks the utility for a scan, so even it has no `use_prefix_scan`.
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      dropped = {
          {"knn_shapley",
           {"seed", "convergence_tolerance", "use_prefix_scan", "warm_start",
            "max_retries", "retry_backoff_ms"}},
          {"datascope",
           {"seed", "convergence_tolerance", "use_prefix_scan", "warm_start",
            "max_retries", "retry_backoff_ms"}},
          {"loo",
           {"seed", "convergence_tolerance", "use_prefix_scan",
            "warm_start"}},
          {"tmc_shapley", {"use_prefix_scan"}},
          {"banzhaf", {"use_prefix_scan", "warm_start"}},
          {"beta_shapley", {"use_prefix_scan", "warm_start"}},
      };
  size_t pairs = 0;
  for (const auto& [algorithm, options] : dropped) {
    std::unique_ptr<AlgorithmInstance> instance = Make(algorithm);
    for (const std::string& option : options) {
      Status status = instance->Configure(option, "1");
      EXPECT_EQ(status.code(), StatusCode::kNotFound)
          << algorithm << " " << option;
      EXPECT_EQ(status.message(), "algorithm '" + algorithm +
                                      "' has no option '" + option + "'");
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 21u);
}

TEST(RegistryTest, ConfigureAllStopsAtFirstError) {
  std::unique_ptr<AlgorithmInstance> banzhaf = Make("banzhaf");
  Status applied = banzhaf->ConfigureAll(
      {{"num_samples", "64"}, {"seed", "oops"}});
  EXPECT_EQ(applied.code(), StatusCode::kInvalidArgument);
  Status ok = banzhaf->ConfigureAll({{"num_samples", "64"}, {"seed", "5"}});
  EXPECT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(banzhaf->GetOption("num_samples").value(), "64");
}

MlDataset RegistryTrain() {
  BlobsOptions blob;
  blob.num_examples = 36;
  blob.num_features = 4;
  blob.seed = 42;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

MlDataset RegistryValidation() {
  BlobsOptions blob;
  blob.num_examples = 15;
  blob.num_features = 4;
  blob.seed = 43;
  blob.center_seed = 99;
  return MakeBlobs(blob);
}

TEST(RegistryTest, TmcShapleyBitIdenticalToDirectCall) {
  MlDataset train = RegistryTrain();
  MlDataset validation = RegistryValidation();

  std::unique_ptr<AlgorithmInstance> algorithm = Make("tmc_shapley");
  ASSERT_TRUE(algorithm
                  ->ConfigureAll({{"num_permutations", "16"},
                                  {"seed", "7"},
                                  {"k", "3"}})
                  .ok());
  RunInput input;
  input.train = &train;
  input.validation = &validation;
  Result<ImportanceEstimate> via_registry = algorithm->Run(input);
  ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();

  ModelAccuracyUtility utility(
      []() { return std::make_unique<KnnClassifier>(3); }, train, validation);
  TmcShapleyOptions options;
  options.num_permutations = 16;
  options.seed = 7;
  Result<ImportanceEstimate> direct = TmcShapleyValues(utility, options);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(via_registry->values, direct->values);
  EXPECT_EQ(via_registry->std_errors, direct->std_errors);
  EXPECT_EQ(via_registry->utility_evaluations, direct->utility_evaluations);
}

TEST(RegistryTest, KnnShapleyBitIdenticalToDirectCall) {
  MlDataset train = RegistryTrain();
  MlDataset validation = RegistryValidation();

  std::unique_ptr<AlgorithmInstance> algorithm = Make("knn_shapley");
  ASSERT_TRUE(algorithm->Configure("k", "3").ok());
  RunInput input;
  input.train = &train;
  input.validation = &validation;
  Result<ImportanceEstimate> via_registry = algorithm->Run(input);
  ASSERT_TRUE(via_registry.ok()) << via_registry.status().ToString();

  EstimatorOptions options;
  EXPECT_EQ(via_registry->values,
            KnnShapleyValues(train, validation, 3, options).value().values);
}

TEST(RegistryTest, MissingValidationIsInvalidArgument) {
  MlDataset train = RegistryTrain();
  std::unique_ptr<AlgorithmInstance> loo = Make("loo");
  RunInput input;
  input.train = &train;
  Result<ImportanceEstimate> run = loo->Run(input);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(RegistryTest, PreArmedCancelFlagCancelsBeforeStart) {
  MlDataset train = RegistryTrain();
  MlDataset validation = RegistryValidation();
  std::unique_ptr<AlgorithmInstance> tmc = Make("tmc_shapley");
  std::atomic<bool> cancel{true};
  tmc->SetCancelFlag(&cancel);
  RunInput input;
  input.train = &train;
  input.validation = &validation;
  Result<ImportanceEstimate> run = tmc->Run(input);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kCancelled);
}

TEST(RegistryTest, DuplicateRegistrationIsAlreadyExists) {
  class FakeLoo : public AlgorithmInstance {
   public:
    FakeLoo() : AlgorithmInstance("loo", "duplicate") {}
    Result<ImportanceEstimate> Run(const RunInput&) const override {
      return ImportanceEstimate{};
    }
  };
  Status dup = AlgorithmRegistry::Global().Register(
      []() { return std::make_unique<FakeLoo>(); });
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

}  // namespace
}  // namespace nde
