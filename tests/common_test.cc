#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/arena.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace nde {
namespace {

// --- Status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  Status s = Status::NotFound("missing column");
  EXPECT_EQ(s.ToString(), "not_found: missing column");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::IOError("disk"); };
  auto outer = [&]() -> Status {
    NDE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kIOError);
}

TEST(StatusTest, ReturnIfErrorPassesThroughOk) {
  auto outer = []() -> Status {
    NDE_RETURN_IF_ERROR(Status::OK());
    return Status::Internal("reached");
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

// --- Result -----------------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r = std::string("hello");
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool fail) -> Result<int> {
    if (fail) return Status::Internal("boom");
    return 7;
  };
  auto consume = [&](bool fail) -> Result<int> {
    NDE_ASSIGN_OR_RETURN(int v, produce(fail));
    return v + 1;
  };
  EXPECT_EQ(consume(false).value(), 8);
  EXPECT_EQ(consume(true).status().code(), StatusCode::kInternal);
}

TEST(ResultDeathTest, ValueOnErrorAborts) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH({ (void)r.value(); }, "Result::value");
}

// --- Rng --------------------------------------------------------------------

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllResidues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.NextBounded(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<int64_t> seen;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(17);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, CategoricalFollowsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextCategorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, PermutationContainsAllIndices) {
  Rng rng(31);
  std::vector<size_t> perm = rng.Permutation(100);
  std::set<size_t> unique(perm.begin(), perm.end());
  EXPECT_EQ(unique.size(), 100u);
  EXPECT_EQ(*unique.rbegin(), 99u);
}

class SampleWithoutReplacementTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(SampleWithoutReplacementTest, DistinctAndInRange) {
  auto [n, k] = GetParam();
  Rng rng(37 + n * 1000 + k);
  std::vector<size_t> sample = rng.SampleWithoutReplacement(n, k);
  EXPECT_EQ(sample.size(), k);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), k);
  for (size_t s : sample) EXPECT_LT(s, n);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, SampleWithoutReplacementTest,
    ::testing::Values(std::pair<size_t, size_t>{10, 0},
                      std::pair<size_t, size_t>{10, 3},
                      std::pair<size_t, size_t>{10, 10},
                      std::pair<size_t, size_t>{1000, 5},
                      std::pair<size_t, size_t>{1000, 900},
                      std::pair<size_t, size_t>{1, 1}));

TEST(RngTest, SampleWithoutReplacementUniformish) {
  // Every index should be sampled with roughly equal frequency.
  Rng rng(41);
  std::vector<int> counts(20, 0);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    for (size_t i : rng.SampleWithoutReplacement(20, 5)) ++counts[i];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(trials), 0.25, 0.03);
  }
}

// --- string_util -------------------------------------------------------------

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  std::vector<std::string> parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitEmptyString) {
  std::vector<std::string> parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  std::string original = "x|y|z";
  EXPECT_EQ(JoinStrings(SplitString(original, '|'), "|"), original);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace("hi"), "hi");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace(""), "");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("pipeline", "pipe"));
  EXPECT_FALSE(StartsWith("pipe", "pipeline"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("HeLLo 123"), "hello 123");
}

TEST(StringUtilTest, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
}

TEST(StringUtilTest, EditDistanceSymmetric) {
  const char* words[] = {"alpha", "beta", "alphabet", "bet", ""};
  for (const char* a : words) {
    for (const char* b : words) {
      EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
    }
  }
}

TEST(StringUtilTest, EditDistanceTriangleInequality) {
  const char* words[] = {"join", "jobs", "jorn", "yarn"};
  for (const char* a : words) {
    for (const char* b : words) {
      for (const char* c : words) {
        EXPECT_LE(EditDistance(a, c), EditDistance(a, b) + EditDistance(b, c));
      }
    }
  }
}

TEST(StringUtilTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

// The spelling FormatDouble is pinned to: the first `%.*g` precision whose
// strtod read-back is exactly `value`, else `%.17g`. The oracle for the
// one-pass implementation.
std::string ReferenceFormatDouble(double value) {
  char text[32];
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(text, sizeof(text), "%.*g", precision, value);
    if (std::strtod(text, nullptr) == value) return text;
  }
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

TEST(StringUtilTest, FormatDoubleIsTheShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(0.1 + 0.2), "0.30000000000000004");
  for (double value : {1.0 / 3.0, 1e-300, -2.5e17, 6.02214076e23}) {
    EXPECT_EQ(std::strtod(FormatDouble(value).c_str(), nullptr), value);
  }
  // `%g`'s digits and its fixed/scientific choice, where the shortest
  // to_chars spelling would give 7.120236347223045e-307 and
  // 1.0485759999999999e+06.
  EXPECT_EQ(FormatDouble(std::ldexp(1.0, -1017)), "7.1202363472230444e-307");
  EXPECT_EQ(FormatDouble(0x1.fffffffffffffp+19), "1048575.9999999999");

  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> corpus = {0.0, -0.0, inf, -inf, nan, -nan};
  for (int exponent = -1074; exponent <= 1023; ++exponent) {
    double power = std::ldexp(1.0, exponent);
    for (double value : {power, std::nextafter(power, 0.0),
                         std::nextafter(power, inf)}) {
      corpus.push_back(value);
      corpus.push_back(-value);
    }
  }
  for (int exponent = -323; exponent <= 308; ++exponent) {
    double power = std::strtod(StrFormat("1e%d", exponent).c_str(), nullptr);
    corpus.push_back(power);
    corpus.push_back(std::nextafter(power, 0.0));
    corpus.push_back(std::nextafter(power, inf));
  }
  for (int i = -100000; i <= 100000; ++i) {
    corpus.push_back(i);
    corpus.push_back(i / 1000.0);
    corpus.push_back(i * 0.1);
  }
  Rng rng(20261017);
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(std::bit_cast<double>(rng.NextUint64()));
    corpus.push_back(rng.NextGaussian(0.0, 1e-3));
  }

  for (double value : corpus) {
    std::string spelling = FormatDouble(value);
    ASSERT_EQ(spelling, ReferenceFormatDouble(value)) << std::hexfloat << value;
    if (!std::isfinite(value)) continue;
    // The JSON reader takes back exactly the bits the writer spelled.
    Result<json::Value> parsed = json::Parse(spelling);
    ASSERT_TRUE(parsed.ok()) << spelling;
    ASSERT_EQ(std::bit_cast<uint64_t>(parsed.value().as_number()),
              std::bit_cast<uint64_t>(value))
        << spelling;
    ASSERT_EQ(parsed.value().raw(), spelling);
  }
}

TEST(JsonParseTest, ScalarsKeepValueAndRawSpelling) {
  json::Value number = json::Parse("1e-3").value();
  ASSERT_TRUE(number.is_number());
  EXPECT_DOUBLE_EQ(number.as_number(), 1e-3);
  EXPECT_EQ(number.raw(), "1e-3");

  EXPECT_EQ(json::Parse("-42").value().as_number(), -42.0);
  EXPECT_TRUE(json::Parse("true").value().as_bool());
  EXPECT_FALSE(json::Parse("false").value().as_bool());
  EXPECT_TRUE(json::Parse("null").value().is_null());
  EXPECT_EQ(json::Parse("\"a\\n\\\"b\\\"\"").value().as_string(), "a\n\"b\"");
}

TEST(JsonParseTest, ObjectMembersKeepSourceOrder) {
  json::Value object =
      json::Parse("{\"z\": 1, \"a\": [true, {\"k\": \"v\"}], \"m\": null}")
          .value();
  ASSERT_TRUE(object.is_object());
  ASSERT_EQ(object.members().size(), 3u);
  EXPECT_EQ(object.members()[0].first, "z");
  EXPECT_EQ(object.members()[1].first, "a");
  const json::Value* array = object.Find("a");
  ASSERT_NE(array, nullptr);
  ASSERT_EQ(array->items().size(), 2u);
  EXPECT_EQ(array->items()[1].Find("k")->as_string(), "v");
  EXPECT_EQ(object.Find("missing"), nullptr);
}

TEST(JsonParseTest, StrictnessRejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":1,}", "{\"a\":1 \"b\":2}", "01", "1.",
        "\"unterminated", "\"bad \\q escape\"", "nul", "{\"a\":1}garbage",
        "{\"dup\":1,\"dup\":2}", "[1] [2]"}) {
    Result<json::Value> parsed = json::Parse(bad);
    EXPECT_FALSE(parsed.ok()) << "'" << bad << "' should not parse";
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
}

TEST(JsonParseTest, DuplicateKeyCheckIsLinearInTheKeyCount) {
  // POST /jobs bodies are parsed on the serving thread and may be up to
  // 1 MiB: an object of ~96k distinct keys has to parse in well under a
  // second, not the half minute a pairwise key scan takes.
  std::string body = "{";
  size_t keys = 0;
  while (true) {
    std::string member = StrFormat("\"k%zu\":0", keys);
    if (body.size() + member.size() + 2 > (size_t{1} << 20)) break;
    if (keys > 0) body += ",";
    body += member;
    ++keys;
  }
  body += "}";
  ASSERT_GT(keys, 90000u);
  auto start = std::chrono::steady_clock::now();
  Result<json::Value> parsed = json::Parse(body);
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().members().size(), keys);
  EXPECT_LT(seconds, 5.0);

  // A repeat is still rejected, with the offset just past the second key,
  // whether it follows its twin directly or trails 90k other keys.
  Result<json::Value> dup = json::Parse("{\"dup\":1,\"dup\":2}");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(dup.status().message(),
            "json: duplicate object key 'dup' at byte 14");
  body.back() = ',';
  body += "\"k0\":1}";
  dup = json::Parse(body);
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate object key 'k0'"),
            std::string::npos)
      << dup.status().ToString();
}

TEST(JsonParseTest, DepthIsCapped) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_FALSE(json::Parse(deep).ok());
}

TEST(JsonWriterTest, EscapesStringsSpellsNumbersAndPlacesCommas) {
  auto quoted = [](const std::string& text) {
    return json::Writer().String(text).Take();
  };
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quoted("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(quoted("a\r\tb"), "\"a\\r\\tb\"");
  EXPECT_EQ(quoted(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(quoted("caf\xc3\xa9"), "\"caf\xc3\xa9\"");  // UTF-8 passes through
  EXPECT_EQ(quoted("\xf0\x9f\x98\x80"), "\"\xf0\x9f\x98\x80\"");  // U+1F600
  // Every byte outside well-formed UTF-8 becomes U+FFFD.
  EXPECT_EQ(quoted("sc\xe9re"), "\"sc\\ufffdre\"");  // Latin-1 e-acute
  EXPECT_EQ(quoted("\xc0\xaf"), "\"\\ufffd\\ufffd\"");  // overlong '/'
  EXPECT_EQ(quoted("\xe0\x80\xaf"), "\"\\ufffd\\ufffd\\ufffd\"");  // overlong
  EXPECT_EQ(quoted("\xf0\x80\x80\xaf"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");  // overlong
  EXPECT_EQ(quoted("\xed\xa0\x80"), "\"\\ufffd\\ufffd\\ufffd\"");  // surrogate
  EXPECT_EQ(quoted("\xf4\x90\x80\x80"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");  // above U+10FFFF
  EXPECT_EQ(quoted("\xe2\x82x"), "\"\\ufffd\\ufffdx\"");  // truncated

  auto number = [](double value) {
    return json::Writer().Double(value).Take();
  };
  EXPECT_EQ(number(0.1 + 0.2), FormatDouble(0.1 + 0.2));
  EXPECT_EQ(number(-0.0), "-0");
  for (double value : {std::numeric_limits<double>::quiet_NaN(),
                       -std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity(),
                       -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(number(value), "null") << value;
  }

  json::Writer json;
  json.BeginObject()
      .Key("a").BeginArray()
      .Int(-1).Uint(18446744073709551615u)
      .BeginObject().EndObject()
      .BeginArray().EndArray()
      .EndArray()
      .Key("b").BeginObject()
      .Key("c").Bool(true)
      .Key("d").Raw(json::Writer().BeginArray().Int(1).EndArray().Take())
      .EndObject()
      .Key("e").Double(0.5)
      .EndObject();
  EXPECT_EQ(json.Take(),
            "{\"a\":[-1,18446744073709551615,{},[]],"
            "\"b\":{\"c\":true,\"d\":[1]},\"e\":0.5}");
  EXPECT_EQ(json.Int(7).Take(), "7");  // Take leaves the writer empty
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(64);  // Tiny first chunk to force growth.
  std::vector<std::pair<char*, size_t>> blocks;
  for (size_t i = 0; i < 100; ++i) {
    size_t bytes = 1 + (i * 7) % 96;
    size_t alignment = size_t{1} << (i % 7);  // 1..64.
    char* p = static_cast<char*>(arena.Allocate(bytes, alignment));
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignment, 0u)
        << "allocation " << i;
    // Writing the full block must not corrupt any earlier block.
    std::memset(p, static_cast<int>(i), bytes);
    blocks.emplace_back(p, bytes);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t b = 0; b < blocks[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[b]),
                static_cast<unsigned char>(i))
          << "block " << i << " byte " << b;
    }
  }
  EXPECT_GE(arena.bytes_allocated(), 100u);
}

TEST(ArenaTest, ResetReachesSteadyStateWithoutNewChunks) {
  Arena arena(128);
  for (int i = 0; i < 32; ++i) arena.AllocateArray<double>(16);
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  size_t reserved = arena.bytes_reserved();
  EXPECT_GT(reserved, 0u);
  // The retained chunk covers the whole workload, so replaying it must not
  // grow the reservation again.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 32; ++i) arena.AllocateArray<double>(16);
    EXPECT_EQ(arena.bytes_reserved(), reserved) << "round " << round;
    arena.Reset();
  }
}

TEST(ArenaTest, TypedArraysAreElementAligned) {
  Arena arena;
  arena.Allocate(1, 1);  // Knock the bump pointer off natural alignment.
  double* d = arena.AllocateArray<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  uint32_t* u = arena.AllocateArray<uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % alignof(uint32_t), 0u);
}

TEST(ArenaPoolTest, RecyclesReleasedArenas) {
  ArenaPool pool(256);
  std::unique_ptr<Arena> a = pool.Acquire();
  a->AllocateArray<double>(64);
  Arena* raw = a.get();
  size_t reserved = a->bytes_reserved();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.idle(), 1u);

  // The same pre-grown arena comes back, already reset.
  std::unique_ptr<Arena> b = pool.Acquire();
  EXPECT_EQ(b.get(), raw);
  EXPECT_EQ(b->bytes_allocated(), 0u);
  EXPECT_EQ(b->bytes_reserved(), reserved);
  EXPECT_EQ(pool.idle(), 0u);

  // An empty pool constructs fresh arenas rather than blocking.
  std::unique_ptr<Arena> c = pool.Acquire();
  EXPECT_NE(c.get(), nullptr);
  EXPECT_NE(c.get(), raw);
  pool.Release(std::move(b));
  pool.Release(std::move(c));
  pool.Release(nullptr);  // Ignored.
  EXPECT_EQ(pool.idle(), 2u);
}

}  // namespace
}  // namespace nde
