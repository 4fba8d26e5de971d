// e2e_probe: the in-process half of the request-level benchmark
// (e2ebench/run.py drives it). It links the nde libraries, but the program
// under test only ever sees the CSV bytes this probe writes.
//
//   e2e_probe stamp
//       {"compiler": ..., "nproc": N} for the result stamp.
//   e2e_probe gen-hiring <rows> <seed> <out.csv> <truth.txt>
//       Hiring-scenario letters table with 10% of `sentiment` labels
//       flipped; the flipped row ids go to truth.txt (comma-separated).
//   e2e_probe gen-credit <count> <rows> <seed> <dir>
//       <count> credit-scenario CSVs (10% label noise, 5% missing sector),
//       each from its own seed: <dir>/credit-<i>.csv, and <dir>/truth.txt
//       with line i holding job i's flipped rows.
//   e2e_probe reference <spec.tsv>
//       For each request, RunAlgorithmOnTable on the file's bytes; prints
//       the ranked source rows, comma-separated, one line per request.
//   e2e_probe trace <spec.tsv> <reps>
//       Replays engine.cc's sequence of public calls with a timer around
//       each layer and the estimator's progress callback installed. Checks
//       every replay ranks rows exactly like RunAlgorithmOnTable, and prints
//       one JSON object per (request, rep), then one for the parallel layer.
//
// A spec line is `csv_path <TAB> label <TAB> algorithm <TAB> options`, where
// options is `name=value,name=value` or `-` for none.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "nde/nde.h"

namespace nde {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

int Die(const std::string& message) {
  std::fprintf(stderr, "e2e_probe: %s\n", message.c_str());
  return 1;
}

std::string JoinRows(const std::vector<size_t>& rows) {
  std::string out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(rows[i]);
  }
  return out;
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read " + path);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  out << bytes;
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

struct Request {
  std::string csv_path;
  std::string label;
  std::string algorithm;
  std::map<std::string, std::string> options;
};

Result<std::vector<Request>> ReadSpec(const std::string& path) {
  NDE_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  std::vector<Request> requests;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitString(line, '\t');
    if (fields.size() != 4) {
      return Status::InvalidArgument("bad spec line: " + line);
    }
    Request request{fields[0], fields[1], fields[2], {}};
    if (fields[3] != "-") {
      for (const std::string& pair : SplitString(fields[3], ',')) {
        size_t eq = pair.find('=');
        if (eq == std::string::npos) {
          return Status::InvalidArgument("bad option: " + pair);
        }
        request.options[pair.substr(0, eq)] = pair.substr(eq + 1);
      }
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

Result<std::unique_ptr<AlgorithmInstance>> MakeAlgorithm(
    const Request& request) {
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> algorithm,
                       AlgorithmRegistry::Global().Create(request.algorithm));
  NDE_RETURN_IF_ERROR(algorithm->ConfigureAll(request.options));
  return algorithm;
}

/// The untimed path: exactly what nde_cli and the job API run on CSV bytes.
Result<std::vector<uint32_t>> Reference(const Request& request,
                                        const std::string& bytes) {
  NDE_ASSIGN_OR_RETURN(Table table, ReadCsvString(bytes));
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> algorithm,
                       MakeAlgorithm(request));
  NDE_ASSIGN_OR_RETURN(TableRunResult run,
                       RunAlgorithmOnTable(*algorithm, table, request.label));
  if (run.estimate.aborted_early) return run.estimate.abort_cause;
  return run.ranked_rows;
}

int GenHiring(size_t rows, uint64_t seed, const std::string& csv_path,
              const std::string& truth_path) {
  HiringScenarioOptions options;
  options.num_applicants = rows;
  options.seed = seed;
  HiringScenario scenario = MakeHiringScenario(options);
  Rng rng(SeedSequence(seed).SeedFor(1));
  Result<std::vector<size_t>> flipped =
      InjectLabelErrorsTable(&scenario.train, "sentiment", 0.1, &rng);
  if (!flipped.ok()) return Die(flipped.status().ToString());
  Status written = WriteCsvFile(scenario.train, csv_path);
  if (written.ok()) written = WriteFile(truth_path, JoinRows(*flipped) + "\n");
  return written.ok() ? 0 : Die(written.ToString());
}

int GenCredit(size_t count, size_t rows, uint64_t seed,
              const std::string& dir) {
  SeedSequence seeds(seed);
  std::string truth;
  for (size_t i = 0; i < count; ++i) {
    CreditScenarioOptions options;
    options.num_accounts = rows;
    options.label_noise_fraction = 0.1;
    options.missing_sector_fraction = 0.05;
    options.seed = seeds.SeedFor(i);
    CreditScenario scenario = MakeCreditScenario(options);
    std::string path = dir + "/credit-" + std::to_string(i) + ".csv";
    Status written = WriteCsvFile(scenario.accounts, path);
    if (!written.ok()) return Die(written.ToString());
    truth += JoinRows(scenario.corrupted_rows) + "\n";
  }
  Status written = WriteFile(dir + "/truth.txt", truth);
  return written.ok() ? 0 : Die(written.ToString());
}

int RunReference(const std::vector<Request>& requests) {
  for (const Request& request : requests) {
    Result<std::string> bytes = ReadFile(request.csv_path);
    if (!bytes.ok()) return Die(bytes.status().ToString());
    Result<std::vector<uint32_t>> ranked = Reference(request, *bytes);
    if (!ranked.ok()) {
      return Die(request.csv_path + ": " + ranked.status().ToString());
    }
    std::vector<size_t> rows(ranked->begin(), ranked->end());
    std::printf("%s\n", JoinRows(rows).c_str());
  }
  return 0;
}

/// engine.cc's plan: drop null labels, then project every column.
PlanBuilder EngineBuilder(const Table& table, const std::string& label) {
  std::vector<std::string> columns;
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    columns.push_back(table.schema().field(c).name);
  }
  return [label, columns](const std::vector<PlanNodePtr>& sources) {
    PlanNodePtr node = MakeFilter(
        sources[0], label + " is not null", [label](const RowView& row) {
          Result<Value> cell = row.Get(label);
          return cell.ok() && !cell.value().is_null();
        });
    return MakeProject(std::move(node), columns);
  };
}

/// Per-layer timings of one replayed request.
struct Replay {
  double parse_s = 0, encoder_fit_s = 0, execute_s = 0, to_dataset_s = 0;
  double run_s = 0, rank_s = 0, run_cpu_s = 0;
  double first_wave_s = 0;
  std::vector<double> wave_ms;  ///< gaps between later progress callbacks
  size_t waves = 0, evals = 0, train_rows = 0, threads = 0;
  std::vector<uint32_t> ranked_rows;
};

/// engine.cc's RunAlgorithmOnTable, call for call, with a timer around each
/// layer. Anything not inside a timer (pipeline construction, plan
/// rendering, split bookkeeping) is left to the unattributed remainder.
Result<Replay> ReplayEngine(const Request& request, const std::string& bytes) {
  Replay replay;
  Clock::time_point t = Clock::now();
  auto lap = [&t](double* into) {
    Clock::time_point now = Clock::now();
    *into = Seconds(t, now);
    t = now;
  };

  Result<Table> parsed = ReadCsvString(bytes);
  lap(&replay.parse_s);
  NDE_RETURN_IF_ERROR(parsed.status());
  const Table& table = *parsed;
  const std::string& label = request.label;
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> algorithm,
                       MakeAlgorithm(request));
  NDE_RETURN_IF_ERROR(table.schema().FieldIndex(label).status());
  t = Clock::now();
  Result<ColumnTransformer> transformer = MakeAutoTransformer(table, {label});
  lap(&replay.encoder_fit_s);
  NDE_RETURN_IF_ERROR(transformer.status());

  MlPipeline pipeline({{"train", table}}, EngineBuilder(table, label),
                      *std::move(transformer), label);
  PlanNodePtr plan = pipeline.BuildPlan();
  PlanProfiler profiler;
  t = Clock::now();
  Result<PipelineOutput> executed = pipeline.Execute(plan);
  lap(&replay.execute_s);
  NDE_RETURN_IF_ERROR(executed.status());
  const PipelineOutput& output = *executed;
  std::string annotated_plan = profiler.AnnotatedPlan(*plan);

  t = Clock::now();
  MlDataset all = output.ToDataset();
  std::vector<size_t> train_rows, valid_rows;
  for (size_t r = 0; r < all.size(); ++r) {
    (r % 5 == 4 ? valid_rows : train_rows).push_back(r);
  }
  if (train_rows.empty() || valid_rows.empty()) {
    return Status::InvalidArgument("not enough rows for an importance split");
  }
  MlDataset train = all.Subset(train_rows);
  MlDataset valid = all.Subset(valid_rows);
  lap(&replay.to_dataset_s);
  replay.train_rows = train_rows.size();

  RunInput input;
  input.train = &train;
  input.validation = &valid;
  input.pipeline_output = &output;
  input.source_table_id = 0;
  input.num_source_rows = table.num_rows();
  std::vector<Clock::time_point> callbacks;
  algorithm->SetProgress([&callbacks](const ProgressUpdate&) {
    callbacks.push_back(Clock::now());
  });
  double cpu_before = ProcessCpuSeconds();
  Clock::time_point run_start = Clock::now();
  Result<ImportanceEstimate> estimate = algorithm->Run(input);
  t = Clock::now();
  replay.run_s = Seconds(run_start, t);
  replay.run_cpu_s = ProcessCpuSeconds() - cpu_before;
  NDE_RETURN_IF_ERROR(estimate.status());
  if (estimate->aborted_early) return estimate->abort_cause;
  replay.evals = estimate->utility_evaluations;
  replay.threads = estimate->num_threads_used > 0 ? estimate->num_threads_used
                                                  : DefaultNumThreads();
  replay.waves = callbacks.size();
  // Without progress reports (influence) the whole Run is the one wave.
  replay.first_wave_s = callbacks.empty()
                            ? replay.run_s
                            : Seconds(run_start, callbacks.front());
  for (size_t i = 1; i < callbacks.size(); ++i) {
    replay.wave_ms.push_back(Seconds(callbacks[i - 1], callbacks[i]) * 1e3);
  }

  std::vector<size_t> ranking = AscendingOrder(estimate->values);
  replay.ranked_rows.reserve(ranking.size());
  for (size_t index : ranking) {
    if (algorithm->values_are_source_rows()) {
      replay.ranked_rows.push_back(static_cast<uint32_t>(index));
      continue;
    }
    size_t output_row = train_rows[index];
    const std::vector<SourceRef>& refs = output.provenance[output_row].refs();
    replay.ranked_rows.push_back(
        refs.empty() ? static_cast<uint32_t>(output_row) : refs[0].row_id);
  }
  lap(&replay.rank_s);
  return replay;
}

/// v(N) and the first prefix scan (which builds the shared scorer context)
/// on a fresh copy of the utility the game estimators build internally
/// (KNN proxy, k = 5, default fast path). Only the game estimators pay
/// these; for the others both stay 0.
struct UtilityProbe {
  double full_utility_s = 0;
  double scorer_context_s = 0;
};

Result<UtilityProbe> ProbeUtility(const Request& request,
                                  const std::string& bytes) {
  UtilityProbe probe;
  if (request.algorithm != "tmc_shapley" && request.algorithm != "banzhaf") {
    return probe;
  }
  NDE_ASSIGN_OR_RETURN(Table table, ReadCsvString(bytes));
  NDE_ASSIGN_OR_RETURN(ColumnTransformer transformer,
                       MakeAutoTransformer(table, {request.label}));
  MlPipeline pipeline({{"train", table}}, EngineBuilder(table, request.label),
                      std::move(transformer), request.label);
  NDE_ASSIGN_OR_RETURN(PipelineOutput output, pipeline.Run());
  MlDataset all = output.ToDataset();
  std::vector<size_t> train_rows, valid_rows;
  for (size_t r = 0; r < all.size(); ++r) {
    (r % 5 == 4 ? valid_rows : train_rows).push_back(r);
  }
  ModelAccuracyUtility utility(
      [] { return std::make_unique<KnnClassifier>(5); },
      all.Subset(train_rows), all.Subset(valid_rows));
  Clock::time_point start = Clock::now();
  double full = utility.FullUtility();
  Clock::time_point mid = Clock::now();
  std::unique_ptr<UtilityFunction::PrefixScan> scan =
      utility.NewPrefixScan(false);
  Clock::time_point end = Clock::now();
  if (!(full >= 0.0) || scan == nullptr) {
    return Status::Internal("utility probe produced no value or scan");
  }
  probe.full_utility_s = Seconds(start, mid);
  probe.scorer_context_s = Seconds(mid, end);
  return probe;
}

std::string JsonDoubles(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += StrFormat("%.9g", values[i]);
  }
  return out + "]";
}

/// Median wall time of an empty ParallelFor over one item per thread.
double ParallelForMicros() {
  size_t threads = DefaultNumThreads();
  std::vector<double> samples;
  for (int rep = 0; rep < 400; ++rep) {
    Clock::time_point start = Clock::now();
    ParallelFor(0, threads, [](size_t) {}, threads, "e2e_probe");
    samples.push_back(Seconds(start, Clock::now()) * 1e6);
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

int RunTrace(const std::vector<Request>& requests, int reps) {
  for (size_t index = 0; index < requests.size(); ++index) {
    const Request& request = requests[index];
    Result<std::string> bytes = ReadFile(request.csv_path);
    if (!bytes.ok()) return Die(bytes.status().ToString());
    Result<UtilityProbe> probe = ProbeUtility(request, *bytes);
    if (!probe.ok()) return Die(probe.status().ToString());
    for (int rep = 0; rep < reps; ++rep) {
      // Alternate which of the pair runs first, so neither always pays for
      // a cold heap.
      double plain_s = 0;
      Result<std::vector<uint32_t>> reference = std::vector<uint32_t>{};
      auto run_plain = [&] {
        Clock::time_point start = Clock::now();
        reference = Reference(request, *bytes);
        plain_s = Seconds(start, Clock::now());
      };
      if (rep % 2 == 0) run_plain();
      // Timed around the call, like the plain run, so both include freeing
      // the run's tables and datasets.
      Clock::time_point start = Clock::now();
      Result<Replay> replay = ReplayEngine(request, *bytes);
      double traced_s = Seconds(start, Clock::now());
      if (rep % 2 == 1) run_plain();
      if (!reference.ok()) return Die(reference.status().ToString());
      if (!replay.ok()) return Die(replay.status().ToString());
      if (replay->ranked_rows != *reference) {
        return Die("traced replay of " + request.csv_path +
                   " ranked rows differently from RunAlgorithmOnTable");
      }
      std::printf(
          "{\"request\":%zu,\"rep\":%d,\"csv_bytes\":%zu,\"parse_s\":%.9g,"
          "\"encoder_fit_s\":%.9g,\"execute_s\":%.9g,\"to_dataset_s\":%.9g,"
          "\"run_s\":%.9g,\"rank_s\":%.9g,\"traced_s\":%.9g,\"plain_s\":%.9g,"
          "\"run_cpu_s\":%.9g,\"threads\":%zu,\"first_wave_s\":%.9g,"
          "\"wave_ms\":%s,\"waves\":%zu,\"evals\":%zu,\"train_rows\":%zu,"
          "\"full_utility_s\":%.9g,\"scorer_context_s\":%.9g}\n",
          index, rep, bytes->size(), replay->parse_s, replay->encoder_fit_s,
          replay->execute_s, replay->to_dataset_s, replay->run_s,
          replay->rank_s, traced_s, plain_s, replay->run_cpu_s,
          replay->threads, replay->first_wave_s,
          JsonDoubles(replay->wave_ms).c_str(), replay->waves, replay->evals,
          replay->train_rows, probe->full_utility_s, probe->scorer_context_s);
    }
  }
  std::printf("{\"parallel_for_us\":%.9g}\n", ParallelForMicros());
  return 0;
}

int Main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 1 && args[0] == "stamp") {
    std::printf("{\"compiler\":\"%s\",\"nproc\":%zu}\n", __VERSION__,
                HardwareConcurrency());
    return 0;
  }
  if (args.size() == 5 && args[0] == "gen-hiring") {
    return GenHiring(std::stoul(args[1]), std::stoull(args[2]), args[3],
                     args[4]);
  }
  if (args.size() == 5 && args[0] == "gen-credit") {
    return GenCredit(std::stoul(args[1]), std::stoul(args[2]),
                     std::stoull(args[3]), args[4]);
  }
  if ((args.size() == 2 && args[0] == "reference") ||
      (args.size() == 3 && args[0] == "trace")) {
    Result<std::vector<Request>> requests = ReadSpec(args[1]);
    if (!requests.ok()) return Die(requests.status().ToString());
    return args[0] == "reference" ? RunReference(*requests)
                                  : RunTrace(*requests, std::stoi(args[2]));
  }
  return Die("usage: e2e_probe stamp | gen-hiring | gen-credit | reference | "
             "trace (see the header of e2ebench/probe.cc)");
}

}  // namespace
}  // namespace nde

int main(int argc, char** argv) { return nde::Main(argc, argv); }
