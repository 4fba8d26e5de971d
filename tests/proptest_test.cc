// Generative invariant suites over the whole estimator stack (DESIGN.md §16).
//
// Every test here draws hundreds of random cases from src/proptest's domain
// generators and asserts an invariant the design document promises for *all*
// inputs: bit-identity across fast-path configurations and thread counts,
// CSV round-trips, prefix-scan-vs-full-retrain equality, registry-vs-direct
// equality, pipeline removal semantics, the paper-level metamorphic
// property that corrupting rows drops their importance, and totality of the
// JSON parser, the job API's POST /jobs and the HTTP exporter's request
// reader.
//
// On failure each suite prints a one-line replay command
// (`NDE_PROP_SEED=<seed> ... ctest -R proptest_test`) plus the shrunk
// counterexample as a pasteable CSV snippet. Case budgets scale with
// NDE_PROP_CASES (the `asan`, `tsan` and `property` test presets in
// CMakePresets.json set reduced budgets).

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/table.h"
#include "datagen/synthetic.h"
#include "importance/game_values.h"
#include "importance/knn_shapley.h"
#include "importance/utility.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "nde/job_api.h"
#include "nde/registry.h"
#include "pipeline/pipeline.h"
#include "proptest/check.h"
#include "proptest/domain.h"
#include "proptest/gen.h"
#include "telemetry/health.h"
#include "telemetry/http_exporter.h"

#include "cold_reference.h"
#include "csv_reference.h"

namespace nde {
namespace prop {
namespace {

/// CheckConfig naming the running gtest test, so the replay line pinpoints
/// the failing TEST as well as the seed.
CheckConfig HereConfig(int default_cases) {
  CheckConfig config;
  config.num_cases = DefaultNumCases(default_cases);
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  if (info != nullptr) {
    config.gtest_filter =
        std::string(info->test_suite_name()) + "." + info->name();
  }
  return config;
}

/// --- Framework self-tests ---------------------------------------------------

TEST(PropFrameworkTest, CaseSeedReplayContract) {
  // Case 0 IS the base seed: replaying a reported failing seed reproduces the
  // failure as case 0 without any case-index bookkeeping.
  EXPECT_EQ(CaseSeed(12345, 0), 12345u);
  EXPECT_EQ(CaseSeed(0xdeadbeef, 0), 0xdeadbeefu);
  // Later cases are deterministic and distinct from the base.
  std::set<uint64_t> seeds;
  for (int i = 0; i < 50; ++i) {
    uint64_t seed = CaseSeed(42, i);
    EXPECT_EQ(seed, CaseSeed(42, i));
    seeds.insert(seed);
  }
  EXPECT_EQ(seeds.size(), 50u);
}

TEST(PropFrameworkTest, GreedyShrinkReachesBoundary) {
  // Property: v < 50. Every failing value must shrink to exactly 50, the
  // minimal counterexample.
  Gen<int64_t> gen = IntInRange(0, 1000);
  std::function<std::string(const int64_t&)> property =
      [](const int64_t& v) -> std::string {
    return v < 50 ? "" : StrFormat("%lld is not < 50", static_cast<long long>(v));
  };
  CheckConfig config;
  for (int64_t start : {50, 51, 77, 512, 1000}) {
    int steps = 0, rechecks = 0;
    std::string message = property(start);
    ASSERT_FALSE(message.empty());
    int64_t shrunk = ShrinkCounterexample<int64_t>(gen, start, property,
                                                   config, &steps, &rechecks,
                                                   &message);
    EXPECT_EQ(shrunk, 50) << "started from " << start;
    EXPECT_FALSE(message.empty());
  }
}

TEST(PropFrameworkTest, VectorShrinkFindsMinimalElement) {
  // Property: no element >= 10. Minimal counterexample is the single-element
  // vector [10].
  Gen<std::vector<int64_t>> gen =
      VectorOf(SizeInRange(0, 10), IntInRange(0, 100));
  std::function<std::string(const std::vector<int64_t>&)> property =
      [](const std::vector<int64_t>& v) -> std::string {
    for (int64_t x : v) {
      if (x >= 10) return StrFormat("contains %lld", static_cast<long long>(x));
    }
    return "";
  };
  Rng rng(7);
  int found = 0;
  while (found < 5) {
    std::vector<int64_t> value = gen.Sample(&rng);
    if (property(value).empty()) continue;
    ++found;
    int steps = 0, rechecks = 0;
    std::string message;
    std::vector<int64_t> shrunk = ShrinkCounterexample<std::vector<int64_t>>(
        gen, value, property, CheckConfig{}, &steps, &rechecks, &message);
    ASSERT_EQ(shrunk.size(), 1u);
    EXPECT_EQ(shrunk[0], 10);
  }
}

TEST(PropFrameworkTest, FailureReportIsReplayable) {
  // A failing check must name the failing case's own seed such that running
  // with that seed as base fails at case 0 — the one-command replay contract.
  Gen<int64_t> gen = IntInRange(0, 1000000);
  std::function<std::string(const int64_t&)> property =
      [](const int64_t& v) -> std::string {
    return (v % 2 == 0) ? "" : "odd";
  };
  CheckConfig config;
  config.seed = 42;
  config.num_cases = 200;
  std::string report = CheckProperty<int64_t>("odd-hunt", gen, property,
                                              nullptr, config);
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("NDE_PROP_SEED="), std::string::npos);
  EXPECT_NE(report.find("ctest -R proptest_test"), std::string::npos);
  EXPECT_NE(report.find("replay:"), std::string::npos);

  // Extract the reported seed and replay: must fail at case 0 of 1.
  size_t pos = report.find("NDE_PROP_SEED=");
  uint64_t failing_seed =
      std::strtoull(report.c_str() + pos + strlen("NDE_PROP_SEED="), nullptr,
                    10);
  CheckConfig replay;
  replay.seed = failing_seed;
  replay.num_cases = 1;
  std::string replay_report =
      CheckProperty<int64_t>("odd-hunt", gen, property, nullptr, replay);
  ASSERT_FALSE(replay_report.empty());
  EXPECT_NE(replay_report.find("failed at case 0"), std::string::npos);
}

TEST(PropFrameworkTest, FilterNeverEscapesDomain) {
  Gen<int64_t> evens = IntInRange(0, 100).Filter(
      [](const int64_t& v) { return v % 2 == 0; });
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(evens.Sample(&rng) % 2, 0);
  }
  for (int64_t candidate : evens.Shrink(88)) {
    EXPECT_EQ(candidate % 2, 0);
  }
}

/// --- CSV round-trip and totality ---------------------------------------------

/// Value comparison under the writer's 6-significant-digit double formatting.
std::string CompareCell(const Value& original, const Value& reread,
                        size_t row, size_t col) {
  if (original.is_null() != reread.is_null()) {
    return StrFormat("cell (%zu,%zu): null mismatch", row, col);
  }
  if (original.is_null()) return "";
  if (original.is_string()) {
    if (!reread.is_string() || original.as_string() != reread.as_string()) {
      return StrFormat("cell (%zu,%zu): string mismatch", row, col);
    }
    return "";
  }
  double a = original.AsNumeric();
  double b = reread.AsNumeric();
  if (std::isnan(a) && std::isnan(b)) return "";
  double tolerance = std::abs(a) * 1e-5 + 1e-5;  // %g keeps 6 sig digits
  if (std::isnan(a) != std::isnan(b) || std::abs(a - b) > tolerance) {
    return StrFormat("cell (%zu,%zu): %.17g re-read as %.17g", row, col, a, b);
  }
  return "";
}

TEST(CsvPropertyTest, WriteReadRoundTripPreservesTables) {
  std::function<std::string(const Table&)> property =
      [](const Table& table) -> std::string {
    std::string csv = WriteCsvString(table);
    Result<Table> reread = ReadCsvString(csv);
    if (!reread.ok()) {
      return "re-read failed: " + reread.status().ToString();
    }
    if (reread.value().num_rows() != table.num_rows() ||
        reread.value().num_columns() != table.num_columns()) {
      return StrFormat("shape changed: %zux%zu -> %zux%zu", table.num_rows(),
                       table.num_columns(), reread.value().num_rows(),
                       reread.value().num_columns());
    }
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (reread.value().schema().field(c).name !=
          table.schema().field(c).name) {
        return StrFormat("column %zu renamed", c);
      }
      for (size_t r = 0; r < table.num_rows(); ++r) {
        std::string diff = CompareCell(table.At(r, c),
                                       reread.value().At(r, c), r, c);
        if (!diff.empty()) return diff;
      }
    }
    return "";
  };
  std::string report = CheckProperty<Table>("csv-round-trip", AnyTable(),
                                            property, DescribeTable,
                                            HereConfig(150));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(CsvPropertyTest, ReaderIsTotalAndReparseIsStable) {
  // For arbitrary structured-but-nasty bytes the reader must either produce a
  // consistent table or a typed error — and a successfully parsed table must
  // survive a write -> re-read cycle with its shape intact.
  std::function<std::string(const std::string&)> property =
      [](const std::string& text) -> std::string {
    Result<Table> first = ReadCsvString(text);
    if (!first.ok()) return "";  // A typed error is an acceptable outcome.
    Status valid = first.value().Validate();
    if (!valid.ok()) {
      return "parsed table fails Validate(): " + valid.ToString();
    }
    std::string rewritten = WriteCsvString(first.value());
    Result<Table> second = ReadCsvString(rewritten);
    if (!second.ok()) {
      return "re-parse of rewritten table failed: " +
             second.status().ToString();
    }
    if (second.value().num_rows() != first.value().num_rows() ||
        second.value().num_columns() != first.value().num_columns()) {
      return StrFormat("shape drifted: %zux%zu -> %zux%zu",
                       first.value().num_rows(), first.value().num_columns(),
                       second.value().num_rows(),
                       second.value().num_columns());
    }
    return "";
  };
  std::string report = CheckProperty<std::string>(
      "csv-totality", AnyCsvText(), property, DescribeCsvText,
      HereConfig(200));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(CsvPropertyTest, ChunkedReaderMatchesSerialReference) {
  // The reader parses kCsvChunkBytes chunks in parallel. Each generated text
  // has its records repeated past two chunks, behind a run of leading spaces
  // whose length the text picks, so that across cases the chunk boundaries
  // fall at every offset of a record. The table, or the error code and
  // message, must be the serial reference reader's at 1, 2 and 4 threads;
  // doubles compare bit for bit, so NaN cells count as equal.
  std::function<std::string(const std::string&)> property =
      [](const std::string& text) -> std::string {
    size_t header_end = text.find('\n');
    std::string header =
        header_end == std::string::npos ? "" : text.substr(0, header_end + 1);
    std::string body = text.substr(header.size());
    if (body.empty()) std::swap(header, body);
    if (body.empty()) return "";
    std::string big(std::hash<std::string>{}(text) % (body.size() + 1), ' ');
    big += header;
    while (big.size() <= 2 * kCsvChunkBytes) big += body;
    Result<Table> want = csv_reference::ReadCsvString(big);
    for (size_t threads : {1, 2, 4}) {
      SetDefaultNumThreads(threads);
      Result<Table> got = ReadCsvString(big);
      SetDefaultNumThreads(0);
      if (!got.ok() || !want.ok()) {
        if (got.ok() != want.ok() ||
            got.status().code() != want.status().code() ||
            got.status().message() != want.status().message()) {
          return StrFormat(
              "%zu threads: %s, reference %s", threads,
              got.ok() ? "a table" : got.status().ToString().c_str(),
              want.ok() ? "a table" : want.status().ToString().c_str());
        }
        continue;
      }
      if (!(got->schema() == want->schema()) ||
          got->num_rows() != want->num_rows()) {
        return StrFormat("%zu threads: %zu rows of %s, reference %zu of %s",
                         threads, got->num_rows(),
                         got->schema().ToString().c_str(), want->num_rows(),
                         want->schema().ToString().c_str());
      }
      for (size_t c = 0; c < got->num_columns(); ++c) {
        for (size_t r = 0; r < got->num_rows(); ++r) {
          const Value& a = got->At(r, c);
          const Value& b = want->At(r, c);
          bool same = a.is_double() && b.is_double()
                          ? std::bit_cast<uint64_t>(a.as_double()) ==
                                std::bit_cast<uint64_t>(b.as_double())
                          : a == b;
          if (!same) {
            return StrFormat("%zu threads: cell (%zu,%zu) '%s', reference "
                             "'%s'",
                             threads, r, c, a.ToString().c_str(),
                             b.ToString().c_str());
          }
        }
      }
    }
    return "";
  };
  std::string report = CheckProperty<std::string>(
      "csv-chunked-vs-reference", AnyCsvText(), property, DescribeCsvText,
      HereConfig(8));
  EXPECT_TRUE(report.empty()) << report;
}

/// --- JSON and POST /jobs parsers --------------------------------------------

TEST(JsonPropertyTest, ParserIsTotal) {
  // json::Parse reads untrusted request bodies on the serving thread: for any
  // bytes it returns a value or an InvalidArgument — no other code, no crash,
  // no stack overflow past the depth cap.
  std::function<std::string(const std::string&)> property =
      [](const std::string& text) -> std::string {
    Result<json::Value> parsed = json::Parse(text);
    if (parsed.ok() || parsed.status().code() == StatusCode::kInvalidArgument) {
      return "";
    }
    return "parse failed with " + parsed.status().ToString();
  };
  std::string report = CheckProperty<std::string>(
      "json-totality", AnyJsonText(), property, DescribeJsonText,
      HereConfig(300));
  EXPECT_TRUE(report.empty()) << report;
}

/// UTF-8 encoding of `code_points` (each a scalar value, not a surrogate).
std::string EncodeUtf8(const std::vector<int64_t>& code_points) {
  std::string out;
  for (int64_t c : code_points) {
    if (c < 0x80) {
      out.push_back(static_cast<char>(c));
    } else if (c < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (c >> 6)));
      out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
    } else if (c < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (c >> 12)));
      out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (c >> 18)));
      out.push_back(static_cast<char>(0x80 | ((c >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((c >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (c & 0x3F)));
    }
  }
  return out;
}

/// Reference check for the writer's UTF-8 rule: every sequence decodes to a
/// scalar value (no surrogate, at most U+10FFFF) that EncodeUtf8 spells with
/// the same bytes, which also rules out overlong forms.
bool IsWellFormedUtf8(const std::string& text) {
  std::vector<int64_t> code_points;
  for (size_t i = 0; i < text.size();) {
    unsigned char lead = static_cast<unsigned char>(text[i]);
    size_t length = lead < 0x80 ? 1 : lead >= 0xF0 ? 4 : lead >= 0xE0 ? 3
                                     : lead >= 0xC0 ? 2 : 0;
    if (length == 0 || text.size() - i < length) return false;
    int64_t c = length == 1 ? lead : lead & (0x7F >> length);
    for (size_t k = 1; k < length; ++k) {
      unsigned char next = static_cast<unsigned char>(text[i + k]);
      if ((next & 0xC0) != 0x80) return false;
      c = (c << 6) | (next & 0x3F);
    }
    if ((c >= 0xD800 && c <= 0xDFFF) || c > 0x10FFFF) return false;
    code_points.push_back(c);
    i += length;
  }
  return EncodeUtf8(code_points) == text;
}

TEST(JsonPropertyTest, WriterOutputReadsBackExactly) {
  // Strings of code points from every UTF-8 length (ASCII with its quotes,
  // backslashes and control characters, up to U+10FFFF) read back as the
  // same bytes.
  Gen<int64_t> code_point =
      Gen<int64_t>(
          [](Rng* rng) {
            static const int64_t kRanges[][2] = {
                {0, 0x7F}, {0x80, 0x7FF}, {0x800, 0xFFFF}, {0x10000, 0x10FFFF}};
            const int64_t* range = kRanges[rng->NextBounded(4)];
            return rng->NextInt(range[0], range[1]);
          },
          [](const int64_t& c) { return ShrinkIntegerToward<int64_t>('a', c); })
          .Filter([](const int64_t& c) { return c < 0xD800 || c > 0xDFFF; });
  std::function<std::string(const std::vector<int64_t>&)> code_points =
      [](const std::vector<int64_t>& points) -> std::string {
    std::string text = EncodeUtf8(points);
    std::string written = json::Writer().String(text).Take();
    Result<json::Value> parsed = json::Parse(written);
    if (!parsed.ok()) return written + ": " + parsed.status().ToString();
    if (parsed.value().as_string() != text) return written + " changed";
    return "";
  };
  std::string report = CheckProperty<std::vector<int64_t>>(
      "json-writer-code-points", VectorOf(SizeInRange(0, 24), code_point),
      code_points, nullptr, HereConfig(500));
  EXPECT_TRUE(report.empty()) << report;

  // Any bytes write parseable text whose string is well-formed UTF-8 (the
  // input itself when it already was), and writing that string again reads
  // back the same bytes.
  std::function<std::string(const std::vector<int64_t>&)> any_bytes =
      [](const std::vector<int64_t>& values) -> std::string {
    std::string bytes;
    for (int64_t value : values) bytes.push_back(static_cast<char>(value));
    std::string written = json::Writer().String(bytes).Take();
    Result<json::Value> parsed = json::Parse(written);
    if (!parsed.ok()) return written + ": " + parsed.status().ToString();
    const std::string& text = parsed.value().as_string();
    if (!IsWellFormedUtf8(text)) return written + " is not UTF-8";
    if (IsWellFormedUtf8(bytes) && text != bytes) return written + " changed";
    Result<json::Value> again =
        json::Parse(json::Writer().String(text).Take());
    if (!again.ok() || again.value().as_string() != text) {
      return written + " does not write back the same";
    }
    return "";
  };
  report = CheckProperty<std::vector<int64_t>>(
      "json-writer-any-bytes", VectorOf(SizeInRange(0, 24), IntInRange(0, 255)),
      any_bytes, nullptr, HereConfig(500));
  EXPECT_TRUE(report.empty()) << report;

  // Doubles from random 64-bit patterns: finite values read back bit for
  // bit, NaN and ±inf as null. One pattern in four gets the all-ones
  // exponent (NaN), one in eight a cleared mantissa (±0, powers of two, ±inf
  // when both apply).
  Gen<uint64_t> double_bits = Gen<uint64_t>(
      [](Rng* rng) {
        uint64_t bits = rng->NextUint64();
        if (rng->NextBounded(4) == 0) bits |= 0x7FF0000000000000u;
        if (rng->NextBounded(8) == 0) bits &= 0xFFF0000000000000u;
        return bits;
      },
      [](const uint64_t& bits) {
        return ShrinkIntegerToward<uint64_t>(0, bits);
      });
  std::function<std::string(const uint64_t&)> doubles =
      [](const uint64_t& bits) -> std::string {
    double value = std::bit_cast<double>(bits);
    std::string written = json::Writer().Double(value).Take();
    Result<json::Value> parsed = json::Parse(written);
    if (!parsed.ok()) return written + ": " + parsed.status().ToString();
    if (!std::isfinite(value)) {
      return parsed.value().is_null() ? "" : written + " is not null";
    }
    if (!parsed.value().is_number() ||
        std::bit_cast<uint64_t>(parsed.value().as_number()) != bits) {
      return written + " reads back as another double";
    }
    return "";
  };
  report = CheckProperty<uint64_t>("json-writer-doubles", double_bits,
                                   doubles, nullptr, HereConfig(2000));
  EXPECT_TRUE(report.empty()) << report;
}

/// POST /jobs bodies: an object over the job fields (algorithm, label, csv,
/// csv_path, options) and a stray unknown one, each present or absent, and
/// each a plausible value or one of another JSON type; options name known
/// and unknown options. Shrinks like AnyJsonText.
Gen<std::string> AnyJobRequestJson() {
  return Gen<std::string>(
      [](Rng* rng) {
        static const char* const kAnyType[] = {
            "7", "-1", "0.01", "1e400", "\"3\"", "\"\"", "true", "null",
            "[]", "[1,\"a\"]", "{}", "{\"a\":{}}"};
        static const char* const kOptionNames[] = {
            "k", "num_permutations", "num_samples", "seed", "model",
            "samples_per_unit", "warm_start", "truncation_tolerance",
            "num_threads", "bogus"};
        const std::string csv =
            "\"x0,x1,label\\n0.1,1.2,0\\n0.3,0.8,0\\n-0.2,1.1,0\\n0.0,0.9,0\\n"
            "0.2,1.0,0\\n-0.1,1.3,0\\n2.1,-1.0,1\\n1.8,-0.7,1\\n2.3,-1.2,1\\n"
            "1.9,-0.9,1\\n2.0,-1.1,1\\n2.2,-0.8,1\\n\"";
        // `plausible` seven times in ten, else a value of any JSON type.
        auto value = [rng](const std::string& plausible) {
          return rng->NextBernoulli(0.7)
                     ? plausible
                     : kAnyType[rng->NextBounded(std::size(kAnyType))];
        };
        static const char* const kAlgorithms[] = {
            "tmc_shapley", "knn_shapley", "banzhaf", "loo", "influence",
            "bogus"};
        std::vector<std::string> members;
        auto maybe_add = [&](double p, const std::string& member) {
          if (rng->NextBernoulli(p)) members.push_back(member);
        };
        maybe_add(0.95, "\"algorithm\":" +
                            value(std::string("\"") +
                                  kAlgorithms[rng->NextBounded(
                                      std::size(kAlgorithms))] +
                                  "\""));
        maybe_add(0.95, "\"label\":" + value(rng->NextBernoulli(0.8)
                                                 ? "\"label\""
                                                 : "\"missing\""));
        maybe_add(0.9, "\"csv\":" + value(csv));
        maybe_add(0.05, "\"csv_path\":\"missing.csv\"");
        maybe_add(0.05, "\"bogus\":1");
        std::string options = "{";
        for (size_t i = 0, n = rng->NextBounded(4); i < n; ++i) {
          options += StrFormat(
              "%s\"%s\":%s", i > 0 ? "," : "",
              kOptionNames[rng->NextBounded(std::size(kOptionNames))],
              value(rng->NextBernoulli(0.5) ? "3" : "\"knn\"").c_str());
        }
        maybe_add(0.7, "\"options\":" + value(options + "}"));
        for (size_t i = members.size(); i > 1; --i) {
          std::swap(members[i - 1], members[rng->NextBounded(i)]);
        }
        return "{" + JoinStrings(members, ",") + "}";
      },
      [](const std::string& text) { return AnyJsonText().Shrink(text); });
}

TEST(JobApiPropertyTest, PostJobsAnswers2xxOr4xxWithJsonBody) {
  // POST /jobs is the job API's untrusted ingress: for any JSON text, and for
  // job objects whose fields and options carry any JSON type, the answer is
  // 2xx or 4xx with a well-formed JSON body — never a 5xx.
  std::function<std::string(const std::string&)> property =
      [](const std::string& body) -> std::string {
    // One manager per case, so an accepted job never fills a later case's
    // queue; its destructor cancels and drains what was accepted.
    JobManager manager;
    telemetry::HttpRequest request;
    request.method = "POST";
    request.target = "/jobs";
    request.body = body;
    std::string response = manager.HandleHttp(request);
    int status =
        response.size() >= 12 ? std::atoi(response.substr(9, 3).c_str()) : 0;
    if (status < 200 || status >= 500) {
      return "answered '" + response.substr(0, response.find("\r\n")) + "'";
    }
    size_t split = response.find("\r\n\r\n");
    std::string payload =
        split == std::string::npos ? "" : response.substr(split + 4);
    if (!payload.empty() && payload.back() == '\n') payload.pop_back();
    if (!json::Parse(payload).ok()) {
      return StrFormat("%d with a body that is not JSON: %s", status,
                       payload.c_str());
    }
    return "";
  };
  std::string report = CheckProperty<std::string>(
      "post-jobs-json-text", AnyJsonText(), property, DescribeJsonText,
      HereConfig(100));
  EXPECT_TRUE(report.empty()) << report;
  report = CheckProperty<std::string>("post-jobs-job-objects",
                                      AnyJobRequestJson(), property,
                                      DescribeJsonText, HereConfig(100));
  EXPECT_TRUE(report.empty()) << report;
  // Accepted jobs that then failed marked the process degraded.
  telemetry::SetHealthy();
}

/// --- HTTP request parsing ---------------------------------------------------

/// Raw request bytes for the exporter's socket reader. A request line, a
/// header block and a body, each part right, wrong or missing: built-in and
/// unknown targets, odd methods, CRLF or bare-LF endings, Content-Length
/// values that match the body, overstate it, pass the exporter's body cap
/// (`max_body_bytes`) or do not parse, traceparent and junk headers, a
/// header block past the 16 KiB header cap; one case in eight is raw bytes.
/// Shrinks toward shorter prefixes and suffixes.
Gen<std::string> AnyHttpRequestBytes(size_t max_body_bytes) {
  return Gen<std::string>(
      [max_body_bytes](Rng* rng) {
        auto raw = [rng](size_t min_len, size_t max_len) {
          std::string bytes(min_len + rng->NextBounded(max_len - min_len + 1),
                            '\0');
          for (char& c : bytes) c = static_cast<char>(rng->NextBounded(256));
          return bytes;
        };
        auto pick = [rng](std::initializer_list<std::string> items) {
          return *(items.begin() + rng->NextBounded(items.size()));
        };
        if (rng->NextBernoulli(0.125)) return raw(1, 64);

        const std::string eol = rng->NextBernoulli(0.8) ? "\r\n" : "\n";
        std::string body = rng->NextBernoulli(0.5)
                               ? raw(0, max_body_bytes + max_body_bytes / 2)
                               : std::string();
        std::string request =
            (rng->NextBernoulli(0.5)
                 ? std::string("GET")
                 : pick({"POST", "PUT", "DELETE", "HEAD", "get", "",
                         raw(1, 6)})) +
            " " +
            pick({"/healthz", "/metrics", "/varz", "/tracez", "/profilez",
                  "/profilez?folded=1", "/healthz?probe=1", "/jobs", "/nope",
                  "", "*", raw(1, 8)}) +
            pick({" HTTP/1.1", " HTTP/1.0", "", " HTTP/9 extra"}) + eol;
        for (size_t i = 0, n = rng->NextBounded(5); i < n; ++i) {
          std::string length = pick(
              {std::to_string(body.size()),
               std::to_string(body.size() + 1 + rng->NextBounded(8)),
               std::to_string(body.size() / 2), "0",
               std::to_string(max_body_bytes + 1), "99999999999999999999999",
               "", "-1", "abc", "1e3", "0x10", "+5", "5 "});
          request +=
              pick({"Host: localhost", "Content-Length: " + length,
                    "content-length:" + length,
                    "traceparent: "
                    "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
                    "traceparent: " + raw(0, 12), "X-No-Colon", ": no name",
                    "X-Junk: " + raw(0, 16)}) +
              eol;
        }
        if (rng->NextBernoulli(0.05)) {
          request += "X-Padding: " + std::string(17 * 1024, 'p') + eol;
        }
        if (rng->NextBernoulli(0.9)) request += eol;
        return request + body;
      },
      [](const std::string& text) {
        std::vector<std::string> candidates;  // All strictly shorter.
        if (text.size() <= 1) return candidates;
        candidates = {text.substr(0, text.size() / 2),
                      text.substr(text.size() / 2 + 1),
                      text.substr(0, text.size() - 1), text.substr(1)};
        return candidates;
      });
}

/// Sends `request` to 127.0.0.1:`port` in one write, shuts the write side
/// (the server reads EOF rather than waiting out its deadline) and returns
/// every byte the server sends back before closing.
std::string ExchangeOnLoopback(uint16_t port, const std::string& request) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    size_t sent = 0;
    while (sent < request.size()) {
      ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
    char buffer[4096];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      response.append(buffer, static_cast<size_t>(n));
    }
  }
  ::close(fd);
  return response;
}

/// "" when `response` is exactly one well-formed HTTP/1.1 response with a
/// status the exporter documents, else what is wrong with it.
std::string CheckHttpResponse(const std::string& response) {
  if (response.empty()) return "no response";
  size_t head_end = response.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    return "response has no header block: " + DescribeJsonText(response);
  }
  const std::string head = response.substr(0, head_end + 2);
  const std::string status_line = head.substr(0, head.find("\r\n"));
  if (status_line.size() < 13 || status_line.compare(0, 9, "HTTP/1.1 ") != 0 ||
      !std::isdigit(static_cast<unsigned char>(status_line[9])) ||
      !std::isdigit(static_cast<unsigned char>(status_line[10])) ||
      !std::isdigit(static_cast<unsigned char>(status_line[11])) ||
      status_line[12] != ' ') {
    return "malformed status line '" + status_line + "'";
  }
  int status = std::atoi(status_line.c_str() + 9);
  const std::set<int> documented = {200, 400, 404, 405, 413};
  if (documented.count(status) == 0 &&
      !(status == 503 && !telemetry::IsHealthy())) {
    return "undocumented status in '" + status_line + "'";
  }
  const std::string length_key = "\r\nContent-Length: ";
  size_t length_at = head.find(length_key);
  if (length_at == std::string::npos) return "no Content-Length header";
  size_t declared = std::strtoull(
      head.c_str() + length_at + length_key.size(), nullptr, 10);
  size_t body_size = response.size() - head_end - 4;
  if (declared != body_size) {
    return StrFormat("Content-Length %zu but %zu body bytes after '%s'",
                     declared, body_size, status_line.c_str());
  }
  return "";
}

TEST(HttpPropertyTest, EveryRequestGetsOneWellFormedResponse) {
  // The exporter's socket reader is untrusted ingress: whatever bytes a
  // client sends before closing its write side, it answers with exactly one
  // response, a documented status and a Content-Length equal to its body —
  // and keeps serving afterwards.
  constexpr size_t kMaxBodyBytes = 64;
  telemetry::SetHealthy();
  telemetry::HttpExporter exporter;
  exporter.set_max_body_bytes(kMaxBodyBytes);
  ASSERT_TRUE(exporter.Start(0).ok());
  const uint16_t port = exporter.port();
  std::function<std::string(const std::string&)> property =
      [port](const std::string& request) {
        return CheckHttpResponse(ExchangeOnLoopback(port, request));
      };
  std::string report = CheckProperty<std::string>(
      "http-request-totality", AnyHttpRequestBytes(kMaxBodyBytes), property,
      DescribeJsonText, HereConfig(200));
  EXPECT_TRUE(report.empty()) << report;
  EXPECT_EQ(ExchangeOnLoopback(port, "GET /healthz HTTP/1.1\r\n\r\n")
                .rfind("HTTP/1.1 200 OK\r\n", 0),
            0u);
  exporter.Stop();
}

/// --- Estimator configuration sweeps ------------------------------------------

/// One generated estimator case: a matched train/validation pair plus TMC
/// options. Shrinks the scenario first, then the options budget.
struct EstimatorCase {
  ImportanceScenario scenario;
  TmcShapleyOptions tmc;
};

Gen<EstimatorCase> AnyEstimatorCase() {
  Gen<ImportanceScenario> scenario_gen = AnyImportanceScenario();
  Gen<TmcShapleyOptions> tmc_gen = AnyTmcOptions();
  return Gen<EstimatorCase>(
      [scenario_gen, tmc_gen](Rng* rng) {
        EstimatorCase c;
        c.scenario = scenario_gen.Sample(rng);
        c.tmc = tmc_gen.Sample(rng);
        return c;
      },
      [scenario_gen, tmc_gen](const EstimatorCase& c) {
        std::vector<EstimatorCase> candidates;
        for (ImportanceScenario& smaller : scenario_gen.Shrink(c.scenario)) {
          candidates.push_back(EstimatorCase{std::move(smaller), c.tmc});
        }
        for (TmcShapleyOptions& smaller : tmc_gen.Shrink(c.tmc)) {
          candidates.push_back(EstimatorCase{c.scenario, std::move(smaller)});
        }
        return candidates;
      });
}

std::string DescribeEstimatorCase(const EstimatorCase& c) {
  return DescribeScenario(c.scenario) + DescribeTmcOptions(c.tmc);
}

std::string CompareEstimates(const ImportanceEstimate& baseline,
                             const ImportanceEstimate& variant,
                             const std::string& variant_name) {
  if (variant.values != baseline.values) {
    for (size_t i = 0; i < baseline.values.size(); ++i) {
      if (i < variant.values.size() &&
          variant.values[i] != baseline.values[i]) {
        return StrFormat("%s: values[%zu] %.17g != baseline %.17g",
                         variant_name.c_str(), i, variant.values[i],
                         baseline.values[i]);
      }
    }
    return variant_name + ": values differ";
  }
  if (variant.std_errors != baseline.std_errors) {
    return variant_name + ": std_errors differ";
  }
  if (variant.utility_evaluations != baseline.utility_evaluations) {
    return StrFormat("%s: %zu utility evaluations != baseline %zu",
                     variant_name.c_str(), variant.utility_evaluations,
                     baseline.utility_evaluations);
  }
  return "";
}

ClassifierFactory KnnFactory(size_t k) {
  return [k] { return std::make_unique<KnnClassifier>(k); };
}

TEST(EstimatorPropertyTest, FastPathConfigSweepIsBitIdentical) {
  // DESIGN.md §9/§13: the scorer context and prefix scan against the cold
  // reference, and any thread count, must reproduce the same estimate bit
  // for bit.
  std::function<std::string(const EstimatorCase&)> property =
      [](const EstimatorCase& c) -> std::string {
    TmcShapleyOptions base_options = c.tmc;
    base_options.num_threads = 1;
    ModelAccuracyUtility baseline_utility(KnnFactory(3), c.scenario.train,
                                          c.scenario.valid);
    Result<ImportanceEstimate> baseline =
        TmcShapleyValues(baseline_utility, base_options);
    if (!baseline.ok()) {
      return "baseline failed: " + baseline.status().ToString();
    }

    struct Variant {
      std::string name;
      size_t num_threads = 1;
      bool cold = false;
    };
    for (const Variant& variant :
         {Variant{"num_threads=8", 8, false},
          Variant{"cold_reference", 1, true}}) {
      TmcShapleyOptions options = c.tmc;
      options.num_threads = variant.num_threads;
      ModelAccuracyUtility utility(KnnFactory(3), c.scenario.train,
                                   c.scenario.valid);
      ColdReference cold(utility);
      Result<ImportanceEstimate> estimate =
          variant.cold ? TmcShapleyValues(cold, options)
                       : TmcShapleyValues(utility, options);
      if (!estimate.ok()) {
        return variant.name + " failed: " + estimate.status().ToString();
      }
      std::string diff =
          CompareEstimates(baseline.value(), estimate.value(), variant.name);
      if (!diff.empty()) return diff;
    }
    return "";
  };
  std::string report = CheckProperty<EstimatorCase>(
      "fast-path-sweep", AnyEstimatorCase(), property, DescribeEstimatorCase,
      HereConfig(30));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(EstimatorPropertyTest, RegistryMatchesDirectCall) {
  // The registry surface (string-configured instances) must be a pure
  // veneer: tmc_shapley through Create/Configure/Run equals the direct
  // TmcShapleyValues call with the same options, bit for bit.
  std::function<std::string(const EstimatorCase&)> property =
      [](const EstimatorCase& c) -> std::string {
    TmcShapleyOptions options = c.tmc;
    options.num_threads = 2;
    ModelAccuracyUtility utility(KnnFactory(5), c.scenario.train,
                                 c.scenario.valid);
    Result<ImportanceEstimate> direct = TmcShapleyValues(utility, options);
    if (!direct.ok()) return "direct failed: " + direct.status().ToString();

    Result<std::unique_ptr<AlgorithmInstance>> instance =
        AlgorithmRegistry::Global().Create("tmc_shapley");
    if (!instance.ok()) return "Create failed: " + instance.status().ToString();
    AlgorithmInstance& algorithm = *instance.value();
    for (const auto& [option, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"num_permutations", StrFormat("%zu", options.num_permutations)},
             {"seed", StrFormat("%llu",
                                static_cast<unsigned long long>(options.seed))},
             {"num_threads", "2"},
             {"truncation_tolerance",
              StrFormat("%.17g", options.truncation_tolerance)},
             {"convergence_tolerance",
              StrFormat("%.17g", options.convergence_tolerance)}}) {
      Status status = algorithm.Configure(option, value);
      if (!status.ok()) {
        return "Configure(" + option + ") failed: " + status.ToString();
      }
    }
    RunInput input;
    input.train = &c.scenario.train;
    input.validation = &c.scenario.valid;
    Result<ImportanceEstimate> registry = algorithm.Run(input);
    if (!registry.ok()) {
      return "registry run failed: " + registry.status().ToString();
    }
    return CompareEstimates(direct.value(), registry.value(), "registry");
  };
  std::string report = CheckProperty<EstimatorCase>(
      "registry-vs-direct", AnyEstimatorCase(), property,
      DescribeEstimatorCase, HereConfig(25));
  EXPECT_TRUE(report.empty()) << report;
}

/// --- Prefix scan vs full retrain ----------------------------------------------

/// Pushes a random permutation through `utility`'s exact scan and compares
/// every prefix with `cold`, a twin that never builds a scorer context (so
/// its Evaluate always retrains, unlike `utility`'s once the scan built one).
std::string CheckExactScan(const ModelAccuracyUtility& utility,
                           const ModelAccuracyUtility& cold,
                           const MlDataset& train, Rng* rng) {
  std::unique_ptr<UtilityFunction::PrefixScan> scan =
      utility.NewPrefixScan(/*allow_warm_start=*/false);
  if (scan == nullptr) return "expected an exact prefix scan, got nullptr";
  std::vector<size_t> permutation(train.size());
  std::iota(permutation.begin(), permutation.end(), size_t{0});
  rng->Shuffle(&permutation);
  std::vector<size_t> prefix;
  for (size_t unit : permutation) {
    double scanned = scan->Push(unit);
    prefix.push_back(unit);
    std::vector<size_t> sorted = prefix;
    std::sort(sorted.begin(), sorted.end());
    double retrained = cold.Evaluate(sorted);
    if (scanned != retrained) {
      return StrFormat(
          "prefix of size %zu: scan %.17g != full retrain %.17g",
          prefix.size(), scanned, retrained);
    }
  }
  return "";
}

TEST(EstimatorPropertyTest, PrefixScanMatchesFullRetrain) {
  // The exact coalition scorers (KNN, Gaussian NB) must return bit-identical
  // values to retraining from scratch on every prefix; logistic regression
  // has no exact scan and must decline rather than silently approximate.
  std::function<std::string(const ImportanceScenario&)> property =
      [](const ImportanceScenario& scenario) -> std::string {
    Rng rng(scenario.train.labels.empty()
                ? 1
                : static_cast<uint64_t>(scenario.train.size() * 2654435761u));
    {
      ModelAccuracyUtility knn(KnnFactory(3), scenario.train, scenario.valid);
      ModelAccuracyUtility cold(KnnFactory(3), scenario.train, scenario.valid);
      std::string diff = CheckExactScan(knn, cold, scenario.train, &rng);
      if (!diff.empty()) return "knn: " + diff;
    }
    {
      ClassifierFactory factory = [] {
        return std::make_unique<GaussianNaiveBayes>();
      };
      ModelAccuracyUtility nb(factory, scenario.train, scenario.valid);
      ModelAccuracyUtility cold(factory, scenario.train, scenario.valid);
      std::string diff = CheckExactScan(nb, cold, scenario.train, &rng);
      if (!diff.empty()) return "gaussian_nb: " + diff;
    }
    {
      ModelAccuracyUtility logreg(
          [] { return std::make_unique<LogisticRegression>(); },
          scenario.train, scenario.valid);
      if (logreg.NewPrefixScan(/*allow_warm_start=*/false) != nullptr) {
        return "logreg returned an exact scan it cannot honor";
      }
    }
    return "";
  };
  std::string report = CheckProperty<ImportanceScenario>(
      "prefix-scan-equality", AnyImportanceScenario(), property,
      DescribeScenario, HereConfig(40));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(EstimatorPropertyTest, BuiltContextServesEvaluateExactly) {
  // Once a KNN utility's scorer context is built (the estimators' prelude),
  // Evaluate scores coalitions from it without training a model, and every
  // generated coalition must equal a cold retrain.
  std::function<std::string(const ImportanceScenario&)> property =
      [](const ImportanceScenario& scenario) -> std::string {
    const size_t n = scenario.train.size();
    Rng rng(static_cast<uint64_t>(n * 2654435761u + scenario.valid.size()));
    ModelAccuracyUtility cold(KnnFactory(3), scenario.train, scenario.valid);
    size_t models = 0;
    ModelAccuracyUtility built(
        [&models] {
          ++models;
          return std::make_unique<KnnClassifier>(3);
        },
        scenario.train, scenario.valid);
    Status prepared = built.Prepare(4);
    if (!prepared.ok()) return "build failed: " + prepared.ToString();
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<size_t> coalition =
          rng.SampleWithoutReplacement(n, 1 + rng.NextBounded(n));
      std::sort(coalition.begin(), coalition.end());
      const size_t models_before = models;
      double served = built.Evaluate(coalition);
      double retrained = cold.Evaluate(coalition);
      if (served != retrained) {
        return StrFormat("coalition of %zu: %.17g != cold retrain %.17g",
                         coalition.size(), served, retrained);
      }
      size_t trained = models - models_before;
      if (trained != 0) {
        return StrFormat("Evaluate trained %zu models", trained);
      }
    }
    return "";
  };
  std::string report = CheckProperty<ImportanceScenario>(
      "built-context-evaluate", AnyImportanceScenario(), property,
      DescribeScenario, HereConfig(40));
  EXPECT_TRUE(report.empty()) << report;
}

/// --- The shared neighbor orders (ml/knn.h) -----------------------------------

/// One-feature training values. Against the queries 0 and 1 their squared
/// distances mix ties (a small pool, x against -x or 2 - x), distinct
/// doubles that share a float radix key (1 and 1 + 1e-9, 1 + 2e-9), 0, +inf
/// (inf, and 1e200 whose square overflows) and NaN with uniform draws.
/// Shrinks toward 0.
Gen<double> AnyNeighborValue() {
  return Gen<double>(
      [](Rng* rng) {
        const double pool[] = {0.0,
                               0.5,
                               1.0,
                               1.0 + 1e-9,
                               1.0 + 2e-9,
                               1.5,
                               2.0,
                               -1.0,
                               1e200,
                               std::numeric_limits<double>::infinity(),
                               std::numeric_limits<double>::quiet_NaN()};
        if (rng->NextBernoulli(0.6)) {
          return pool[rng->NextBounded(std::size(pool))];
        }
        return rng->NextUniform(-2.0, 3.0);
      },
      [](const double& value) {
        return value == 0.0 ? std::vector<double>{} : std::vector<double>{0.0};
      });
}

TEST(NeighborOrderPropertyTest, OrdersEqualStdSortUnderNearerThan) {
  // Sizes up to 64, and one case in sixteen from 250 to 270 rows: more rows
  // than one 8-bit radix digit has buckets.
  Gen<size_t> sizes = Gen<size_t>(
      [](Rng* rng) {
        return rng->NextBounded(16) == 0 ? 250 + rng->NextBounded(21)
                                         : rng->NextBounded(65);
      },
      [](const size_t& n) { return ShrinkIntegerToward<size_t>(0, n); });
  std::function<std::string(const std::vector<double>&)> property =
      [](const std::vector<double>& values) -> std::string {
    const size_t n = values.size();
    Matrix train(n, 1);
    for (size_t i = 0; i < n; ++i) train(i, 0) = values[i];
    std::vector<size_t> all(n);
    std::iota(all.begin(), all.end(), size_t{0});
    // One scratch orders both queries, as a task reuses it.
    RankScratch scratch(n);
    for (double q : {0.0, 1.0}) {
      const std::vector<double> query = {q};
      std::vector<double> dist(n);
      for (size_t i = 0; i < n; ++i) {
        dist[i] = SquaredDistance(train.RowPtr(i), query.data(), 1);
      }
      std::vector<size_t> expected = all;
      std::sort(expected.begin(), expected.end(), [&dist](size_t a, size_t b) {
        return NearerThan(dist[a], a, dist[b], b);
      });
      NearestRows order = NearestOrder(train, query, &scratch);
      if (order.size() != n) {
        return StrFormat("query %g: %zu of %zu rows ordered", q, order.size(),
                         n);
      }
      for (size_t pos = 0; pos < n; ++pos) {
        if (order[pos] != expected[pos]) {
          return StrFormat(
              "query %g: full order has row %zu at position %zu, std::sort "
              "row %zu",
              q, order[pos], pos, expected[pos]);
        }
      }
      // Top-k needs no float keys: one query's ties, +inf and NaN suffice.
      for (size_t k = 1; q == 0.0 && k <= n + 1; ++k) {
        std::vector<size_t> rows = all;
        KeepNearest(dist, k, &rows);
        if (rows.size() != std::min(k, n) ||
            !std::equal(rows.begin(), rows.end(), expected.begin())) {
          return StrFormat("query %g: top-%zu order is not the prefix", q, k);
        }
      }
    }
    return "";
  };
  std::function<std::string(const std::vector<double>&)> describe =
      [](const std::vector<double>& values) {
        std::string out = StrFormat("%zu values:", values.size());
        for (double value : values) out += StrFormat(" %.17g", value);
        return out + "\n";
      };
  std::string report = CheckProperty<std::vector<double>>(
      "neighbor-orders", VectorOf(sizes, AnyNeighborValue()), property,
      describe, HereConfig(100));
  EXPECT_TRUE(report.empty()) << report;
}

/// One multi-query NearestOrder call: n training rows and `count` queries of
/// d features, every cell from AnyNeighborValue's pool.
struct PassCase {
  size_t n = 0;
  size_t d = 0;
  size_t count = 1;
  std::vector<double> cells;  ///< (n + count) x d, training rows first.
};

/// Widths 0, 1, 2, 3 and 5; 1 to 9 queries, so up to three passes of four
/// with a partial last one; row counts odd and even. Shrinks toward fewer
/// rows, fewer queries and cells of 0.
Gen<PassCase> AnyPassCase() {
  Gen<double> value = AnyNeighborValue();
  return Gen<PassCase>(
      [value](Rng* rng) {
        const size_t widths[] = {0, 1, 2, 3, 5};
        PassCase pass;
        pass.d = widths[rng->NextBounded(std::size(widths))];
        pass.n = rng->NextBounded(16) == 0 ? 250 + rng->NextBounded(21)
                                           : rng->NextBounded(40);
        pass.count = 1 + rng->NextBounded(2 * kPassQueries + 1);
        pass.cells.resize((pass.n + pass.count) * pass.d);
        for (double& cell : pass.cells) cell = value.Sample(rng);
        return pass;
      },
      [](const PassCase& pass) {
        std::vector<PassCase> smaller;
        if (pass.n > 0) {
          PassCase fewer_rows = pass;
          --fewer_rows.n;
          const auto row = fewer_rows.cells.begin() +
                           static_cast<ptrdiff_t>(fewer_rows.n * pass.d);
          fewer_rows.cells.erase(row, row + static_cast<ptrdiff_t>(pass.d));
          smaller.push_back(std::move(fewer_rows));
        }
        if (pass.count > 1) {
          PassCase fewer_queries = pass;
          --fewer_queries.count;
          fewer_queries.cells.resize((pass.n + fewer_queries.count) * pass.d);
          smaller.push_back(std::move(fewer_queries));
        }
        for (size_t i = 0; i < pass.cells.size(); ++i) {
          if (pass.cells[i] == 0.0) continue;
          PassCase zeroed = pass;
          zeroed.cells[i] = 0.0;
          smaller.push_back(std::move(zeroed));
        }
        return smaller;
      });
}

/// "" when `rows` holds, for every training row, the very bits of
/// SquaredDistance to `query` and orders the rows as std::sort under
/// NearerThan does; else what differs. A NaN distance only has to be NaN:
/// the compiler may commute an addition, which decides whose sign and
/// payload a NaN sum keeps, and the order reads only that it is NaN.
std::string CheckNearestRows(const Matrix& train, const double* query,
                             const NearestRows& rows,
                             const std::string& what) {
  const size_t n = train.rows();
  if (rows.size() != n) {
    return StrFormat("%s: %zu of %zu rows ordered", what.c_str(), rows.size(),
                     n);
  }
  std::vector<double> dist(n);
  for (size_t i = 0; i < n; ++i) {
    dist[i] = SquaredDistance(train.RowPtr(i), query, train.cols());
    const bool both_nan = std::isnan(dist[i]) && std::isnan(rows.dist[i]);
    if (!both_nan &&
        std::memcmp(&dist[i], &rows.dist[i], sizeof(double)) != 0) {
      return StrFormat("%s: row %zu at distance %.17g, SquaredDistance %.17g",
                       what.c_str(), i, rows.dist[i], dist[i]);
    }
  }
  std::vector<size_t> expected(n);
  std::iota(expected.begin(), expected.end(), size_t{0});
  std::sort(expected.begin(), expected.end(), [&dist](size_t a, size_t b) {
    return NearerThan(dist[a], a, dist[b], b);
  });
  for (size_t pos = 0; pos < n; ++pos) {
    if (rows[pos] != expected[pos]) {
      return StrFormat("%s: row %zu at position %zu, std::sort row %zu",
                       what.c_str(), rows[pos], pos, expected[pos]);
    }
  }
  return "";
}

TEST(NeighborOrderPropertyTest, EveryQueryOfAPassMatchesSquaredDistance) {
  // Each lane of the four-query distance pass runs SquaredDistance's chain:
  // its distances are memcmp-equal to it (0 and +inf included; NaN as NaN)
  // and its order is std::sort's under NearerThan, for 1 to 4 queries in a
  // pass. The one-query overload, on the same scratch, must agree as well.
  std::function<std::string(const PassCase&)> property =
      [](const PassCase& pass) -> std::string {
    Matrix train(pass.n, pass.d);
    Matrix queries(pass.count, pass.d);
    for (size_t c = 0; c < pass.d; ++c) {
      for (size_t i = 0; i < pass.n; ++i) {
        train(i, c) = pass.cells[i * pass.d + c];
      }
      for (size_t q = 0; q < pass.count; ++q) {
        queries(q, c) = pass.cells[(pass.n + q) * pass.d + c];
      }
    }
    RankScratch scratch(pass.n);
    std::string failure;
    size_t next = 0;
    NearestOrder(train, queries, 0, pass.count, &scratch,
                 [&](size_t q, NearestRows rows) {
                   if (!failure.empty()) return;
                   if (q != next++) {
                     failure = StrFormat("visited query %zu, expected %zu", q,
                                         next - 1);
                     return;
                   }
                   failure = CheckNearestRows(
                       train, queries.RowPtr(q), rows,
                       StrFormat("query %zu of %zu", q, pass.count));
                 });
    if (!failure.empty()) return failure;
    if (next != pass.count) {
      return StrFormat("visited %zu of %zu queries", next, pass.count);
    }
    for (size_t q = 0; q < pass.count; ++q) {
      failure = CheckNearestRows(
          train, queries.RowPtr(q),
          NearestOrder(train, queries.RowSpan(q), &scratch),
          StrFormat("one-query order of query %zu", q));
      if (!failure.empty()) return failure;
    }
    return "";
  };
  std::function<std::string(const PassCase&)> describe =
      [](const PassCase& pass) {
        std::string out = StrFormat("%zu rows, %zu queries, %zu features:",
                                    pass.n, pass.count, pass.d);
        for (double cell : pass.cells) out += StrFormat(" %.17g", cell);
        return out + "\n";
      };
  std::string report = CheckProperty<PassCase>(
      "distance-passes", AnyPassCase(), property, describe, HereConfig(100));
  EXPECT_TRUE(report.empty()) << report;
}

TEST(NeighborOrderDeathTest, ShortQueryFailsTheDistancePass) {
  Matrix train = Matrix::FromRows({{0.0, 1.0}, {2.0, 3.0}});
  RankScratch scratch(train.rows());
  const std::vector<double> query = {0.0};
  EXPECT_DEATH(NearestOrder(train, query, &scratch), "query\\.size\\(\\)");
}

/// --- Error-injection metamorphic property -------------------------------------

/// Well-separated blobs plus a heavy label-flip mix: corrupting known rows
/// must drop their mean importance below the clean rows' mean under both the
/// closed-form KNN-Shapley and LOO (the paper's identify-debug loop).
struct CorruptionCase {
  MlDataset train;
  MlDataset valid;
  std::vector<size_t> corrupted;
};

Gen<CorruptionCase> AnyCorruptionCase() {
  return Gen<CorruptionCase>([](Rng* rng) {
    BlobsOptions options;
    options.num_examples = 24;
    options.num_features = 2 + rng->NextBounded(2);
    options.num_classes = 2;
    options.separation = 3.5;
    options.noise = 0.5;
    options.seed = rng->NextUint64() | 1;
    options.center_seed = rng->NextUint64() | 1;
    CorruptionCase c;
    c.train = MakeBlobs(options);
    BlobsOptions valid_options = options;
    valid_options.num_examples = 16;
    valid_options.seed = rng->NextUint64() | 1;
    c.valid = MakeBlobs(valid_options);
    c.corrupted = InjectLabelErrors(&c.train, 0.35, rng);
    return c;
  });
}

std::string DescribeCorruptionCase(const CorruptionCase& c) {
  std::string out = "train.csv (corrupted):\n" + DescribeDataset(c.train);
  out += "corrupted rows:";
  for (size_t i : c.corrupted) out += StrFormat(" %zu", i);
  return out + "\n";
}

std::string CompareGroupMeans(const std::vector<double>& values,
                              const std::vector<size_t>& corrupted,
                              bool strict, const std::string& method) {
  std::set<size_t> corrupt_set(corrupted.begin(), corrupted.end());
  double corrupt_sum = 0.0, clean_sum = 0.0;
  size_t clean_count = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    if (corrupt_set.count(i)) {
      corrupt_sum += values[i];
    } else {
      clean_sum += values[i];
      ++clean_count;
    }
  }
  double corrupt_mean = corrupt_sum / static_cast<double>(corrupted.size());
  double clean_mean = clean_sum / static_cast<double>(clean_count);
  bool failed = strict ? !(corrupt_mean < clean_mean)
                       : !(corrupt_mean <= clean_mean);
  if (failed) {
    return StrFormat(
        "%s: corrupted rows score mean %.6g, clean rows %.6g — corruption "
        "did not drop importance",
        method.c_str(), corrupt_mean, clean_mean);
  }
  return "";
}

TEST(MetamorphicPropertyTest, InjectedErrorsDropImportance) {
  std::function<std::string(const CorruptionCase&)> property =
      [](const CorruptionCase& c) -> std::string {
    if (c.corrupted.empty()) return "injector corrupted zero rows";
    // Closed-form KNN-Shapley: flipped labels must strictly lose.
    std::vector<double> shapley =
        KnnShapleyValues(c.train, c.valid, /*k=*/3, {}).value().values;
    std::string diff =
        CompareGroupMeans(shapley, c.corrupted, /*strict=*/true,
                          "knn_shapley");
    if (!diff.empty()) return diff;
    // LOO under the KNN utility: accuracy is quantized by the validation
    // size, so ties are legal — the corrupted mean just must not exceed the
    // clean mean.
    ModelAccuracyUtility utility(KnnFactory(3), c.train, c.valid);
    EstimatorOptions options;
    options.num_threads = 2;
    Result<ImportanceEstimate> loo = LeaveOneOutValues(utility, options);
    if (!loo.ok()) return "loo failed: " + loo.status().ToString();
    return CompareGroupMeans(loo->values, c.corrupted, /*strict=*/false,
                             "loo");
  };
  std::string report = CheckProperty<CorruptionCase>(
      "error-injection-rank-drop", AnyCorruptionCase(), property,
      DescribeCorruptionCase, HereConfig(20));
  EXPECT_TRUE(report.empty()) << report;
}

/// --- Error-mix bookkeeping -----------------------------------------------------

struct MixCase {
  MlDataset data;
  ErrorMix mix;
  uint64_t seed = 1;
};

TEST(ErrorMixPropertyTest, ApplyErrorMixKeepsShapeAndReportsSortedRows) {
  Gen<MlDataset> dataset_gen = AnyDataset(4, 30);
  Gen<ErrorMix> mix_gen = AnyErrorMix();
  Gen<MixCase> gen(
      [dataset_gen, mix_gen](Rng* rng) {
        MixCase c;
        c.data = dataset_gen.Sample(rng);
        c.mix = mix_gen.Sample(rng);
        c.seed = rng->NextUint64() | 1;
        return c;
      },
      [dataset_gen, mix_gen](const MixCase& c) {
        std::vector<MixCase> candidates;
        for (MlDataset& smaller : dataset_gen.Shrink(c.data)) {
          candidates.push_back(MixCase{std::move(smaller), c.mix, c.seed});
        }
        for (ErrorMix& smaller : mix_gen.Shrink(c.mix)) {
          candidates.push_back(MixCase{c.data, std::move(smaller), c.seed});
        }
        return candidates;
      });
  std::function<std::string(const MixCase&)> property =
      [](const MixCase& c) -> std::string {
    MlDataset corrupted = c.data;
    Rng rng(c.seed);
    std::vector<size_t> rows = ApplyErrorMix(&corrupted, c.mix, &rng);
    if (corrupted.size() != c.data.size() ||
        corrupted.num_features() != c.data.num_features()) {
      return "corruption changed the dataset shape";
    }
    Status valid = corrupted.Validate();
    if (!valid.ok()) return "corrupted dataset invalid: " + valid.ToString();
    if (!std::is_sorted(rows.begin(), rows.end())) {
      return "corrupted indices not sorted";
    }
    if (std::adjacent_find(rows.begin(), rows.end()) != rows.end()) {
      return "corrupted indices not unique";
    }
    for (size_t i : rows) {
      if (i >= c.data.size()) return StrFormat("index %zu out of range", i);
    }
    // Replay determinism: the same seed must corrupt the same rows.
    MlDataset again = c.data;
    Rng rng2(c.seed);
    std::vector<size_t> rows2 = ApplyErrorMix(&again, c.mix, &rng2);
    if (rows2 != rows) return "corruption is not seed-deterministic";
    if (again.labels != corrupted.labels) {
      return "corrupted labels differ across identical replays";
    }
    return "";
  };
  std::string report = CheckProperty<MixCase>(
      "error-mix-bookkeeping", gen, property,
      [](const MixCase& c) {
        return DescribeErrorMix(c.mix) + "\n" + DescribeDataset(c.data);
      },
      HereConfig(100));
  EXPECT_TRUE(report.empty()) << report;
}

/// --- Pipeline removal invariants -----------------------------------------------

TEST(PipelinePropertyTest, FastRemovalMatchesGroundTruthRerun) {
  // RemoveByProvenance must be an exact equivalent of RunWithout whenever
  // refitting the encoders cannot change any output — here the scenario
  // columns are null-free and the NumericEncoders run with standardize off,
  // so Transform is the identity regardless of fit statistics.
  std::function<std::string(const PipelineScenario&)> property =
      [](const PipelineScenario& scenario) -> std::string {
    MlPipeline pipeline = BuildScenarioPipeline(scenario);
    Result<PipelineOutput> output = pipeline.Run();
    if (!output.ok()) {
      // A filter chain may legitimately drop every row, in which case the
      // encoders cannot fit; the removal contract is vacuous for such
      // scenarios.
      return "";
    }

    Rng rng(scenario.seed);
    std::vector<SourceRef> removed;
    size_t num_removed = 1 + rng.NextBounded(3);
    std::set<uint32_t> seen;
    for (size_t i = 0; i < num_removed; ++i) {
      uint32_t row =
          static_cast<uint32_t>(rng.NextBounded(scenario.table.num_rows()));
      if (seen.insert(row).second) removed.push_back(SourceRef{0, row});
    }

    PipelineOutput fast =
        MlPipeline::RemoveByProvenance(output.value(), removed);
    Result<PipelineOutput> ground = pipeline.RunWithout(removed);
    if (!ground.ok()) {
      // RunWithout refits the encoders, so it fails exactly when the removal
      // left no surviving rows — and then the fast path must agree that
      // nothing survived.
      if (fast.size() != 0) {
        return "RunWithout failed (" + ground.status().ToString() +
               ") but RemoveByProvenance kept " +
               StrFormat("%zu", fast.size()) + " rows";
      }
      return "";
    }
    const PipelineOutput& slow = ground.value();
    if (fast.size() != slow.size()) {
      return StrFormat("row counts differ: fast %zu vs rerun %zu",
                       fast.size(), slow.size());
    }
    if (fast.labels != slow.labels) return "labels differ";
    if (fast.features.rows() != slow.features.rows() ||
        fast.features.cols() != slow.features.cols()) {
      return "feature shapes differ";
    }
    for (size_t r = 0; r < fast.features.rows(); ++r) {
      for (size_t c = 0; c < fast.features.cols(); ++c) {
        if (fast.features(r, c) != slow.features(r, c)) {
          return StrFormat("feature (%zu,%zu): fast %.17g vs rerun %.17g", r,
                           c, fast.features(r, c), slow.features(r, c));
        }
      }
    }
    for (size_t r = 0; r < fast.size(); ++r) {
      if (!(fast.provenance[r].refs() == slow.provenance[r].refs())) {
        return StrFormat("provenance differs at output row %zu", r);
      }
    }
    return "";
  };
  std::string report = CheckProperty<PipelineScenario>(
      "pipeline-removal-equality", AnyPipelineScenario(), property,
      DescribePipelineScenario, HereConfig(60));
  EXPECT_TRUE(report.empty()) << report;
}

}  // namespace
}  // namespace prop
}  // namespace nde
