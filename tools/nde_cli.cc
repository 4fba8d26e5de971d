// nde_cli — command-line data debugging for CSV files.
//
// Subcommands:
//
//   nde_cli screen <table.csv> --label <col> [--max-null 0.2]
//       Runs the source-data screens (null fractions, class balance,
//       neighborhood label-error screen) on one CSV. Exit code 1 when any
//       error-severity issue fires, 0 otherwise.
//
//   nde_cli importance <train.csv> <valid.csv> --label <col>
//           [--method knn_shapley|influence|aum|self_confidence|loo]
//           [--top 25]
//       Encodes both tables with an automatic column transformer, ranks the
//       training rows by the chosen importance method (most suspect first)
//       and prints the top rows with their scores.
//
//   nde_cli impute <table.csv> --column <col>
//           [--strategy mean|median|most_frequent] [--out <out.csv>]
//       Fills the column's missing values and writes the repaired CSV.
//
//   nde_cli serve [--port 0] [--job-workers 1] [--max-queue 8]
//           [--artifact-dir <dir>]
//       Runs the async importance-job API on 127.0.0.1: POST /jobs submits a
//       CSV + algorithm + options, GET /jobs/<id> polls, DELETE /jobs/<id>
//       cancels, GET /algorithmz lists every algorithm with its typed
//       options. The observability endpoints (/healthz /metrics /varz
//       /tracez /profilez) are served on the same port. Ctrl-C stops.
//       Of the global flags, serve takes only --threads, --log-level and
//       --log-json; the flags that write a command's outputs (--metrics
//       --prometheus --trace --trace-parent --serve --report --profile)
//       exit 2, as the server's live equivalents are /metrics, /tracez,
//       /profilez and --artifact-dir.
//
//   nde_cli --list-algorithms
//       Prints the algorithm registry: every estimator name with its
//       options, types, defaults, and docs.
//
// Estimators are resolved through the algorithm registry
// (src/nde/registry.h); `--set name=value` (repeatable, importance and
// pipeline mode) sets any declared option by name, with typed validation.
//
// Global flags (any subcommand):
//
//   --metrics            print the telemetry metrics table after the command
//   --prometheus         print metrics in Prometheus text format instead
//   --trace <out.json>   write a Chrome trace_event JSON of the run,
//                        loadable in about:tracing or https://ui.perfetto.dev
//   --trace-parent <tp>  adopt a W3C traceparent ("00-<32 hex trace id>-
//                        <16 hex span id>-<2 hex flags>") as the run's root
//                        trace context, so spans, logs, and the --report
//                        artifact carry the caller's trace id; without it a
//                        fresh trace id is minted whenever telemetry is on
//   --threads <N>        worker threads for parallel estimators (default:
//                        hardware concurrency; results are identical for any
//                        N at a fixed seed)
//   --serve <port>       serve /healthz /metrics /varz /tracez on
//                        127.0.0.1:<port> while the command runs (0 picks an
//                        ephemeral port, announced on stderr)
//   --report <out.json>  write a JSON run report (invocation config, timing,
//                        convergence curve, metrics, the run's span profile)
//   --profile <out.folded>  record spans and allocation accounting for the
//                        whole command and write its exact profile as folded
//                        stacks (flamegraph input: one "frame;frame self_us"
//                        line per unique stack, self time in microseconds);
//                        the same fold lands in --report and on /profilez
//                        under --serve. Purely observational: results are
//                        bit-identical with or without it.
//   --log-level <level>  debug|info|warning|error (default warning); info
//                        enables live progress/ETA lines for estimators
//   --log-json           emit log lines as JSON objects instead of text
//
// Importance fast-path flags (both modes; each lands only on algorithms that
// list the matching option):
//
//   --warm-start         allow approximate warm-started prefix training for
//                        models without an exact incremental scorer (changes
//                        values slightly, like truncation; deterministic)
//   --model <name>       proxy model for the game estimators: knn (default) |
//                        gaussian_nb | logreg (knn and gaussian_nb scan
//                        prefixes exactly; logreg pairs with --warm-start)
//
// Exit codes: 0 success; 1 screen found error-severity issues; 2 bad usage or
// configuration; 3 runtime failure (I/O, pipeline, or estimator error —
// including a fault injected via NDE_FAILPOINTS). Runtime failures also land
// as a structured "error" object in the --report artifact and flip /healthz
// to 503 while --serve is up.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "nde/nde.h"

namespace nde {
namespace {

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;
  std::vector<std::string> sets;  ///< "name=value" from repeatable --set
  std::string error;  ///< Non-empty when parsing failed (e.g. missing value).
};

/// Flags that never take a value (so a following positional is not eaten).
const std::set<std::string>& BooleanFlags() {
  static const std::set<std::string>* flags =
      new std::set<std::string>{"metrics", "prometheus", "warm-start",
                                "log-json"};
  return *flags;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (StartsWith(arg, "--")) {
      std::string key = arg.substr(2);
      if (BooleanFlags().count(key) > 0) {
        args.flags[key] = "true";
        continue;
      }
      if (i + 1 >= argc || StartsWith(argv[i + 1], "--")) {
        args.error = StrFormat("flag '--%s' requires a value", key.c_str());
        return args;
      }
      if (key == "set") {
        // Repeatable: each occurrence is one "name=value" assignment.
        args.sets.push_back(argv[++i]);
        continue;
      }
      args.flags[key] = argv[++i];
    } else {
      args.positional.push_back(arg);
    }
  }
  return args;
}

std::string FlagOr(const Args& args, const std::string& key,
                   const std::string& fallback) {
  auto it = args.flags.find(key);
  return it == args.flags.end() ? fallback : it->second;
}

/// The value of the integer flag `--<key>`, or `fallback` when it is absent.
/// A malformed or out-of-range value is InvalidArgument naming the flag, so
/// the command exits 2 instead of aborting.
Result<uint64_t> UnsignedFlag(
    const Args& args, const std::string& key, uint64_t fallback,
    uint64_t min_value = 0,
    uint64_t max_value = std::numeric_limits<uint64_t>::max()) {
  auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  Result<uint64_t> parsed = ParseUnsigned(it->second);
  Status status = parsed.status();
  if (status.ok() && *parsed < min_value) {
    status = Status::InvalidArgument(
        StrFormat("must be at least %llu, got '%s'",
                  static_cast<unsigned long long>(min_value),
                  it->second.c_str()));
  } else if (status.ok() && *parsed > max_value) {
    status = Status::InvalidArgument(
        StrFormat("must be at most %llu, got '%s'",
                  static_cast<unsigned long long>(max_value),
                  it->second.c_str()));
  }
  if (!status.ok()) {
    return Status::InvalidArgument(StrFormat(
        "flag '--%s': %s", key.c_str(), status.message().c_str()));
  }
  return *parsed;
}

/// The value of the number flag `--<key>`, or `fallback` when it is absent;
/// a malformed value is InvalidArgument naming the flag.
Result<double> DoubleFlag(const Args& args, const std::string& key,
                          double fallback) {
  auto it = args.flags.find(key);
  if (it == args.flags.end()) return fallback;
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    return Status::InvalidArgument(StrFormat(
        "flag '--%s': %s", key.c_str(), parsed.status().message().c_str()));
  }
  return *parsed;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 2;
}

/// Active --report sink, if any; estimator progress is mirrored into it.
telemetry::RunReport* g_report = nullptr;

/// Runtime failure (I/O, pipeline, estimator): exit code 3, distinct from
/// bad usage (2). The failure also flips /healthz to degraded and lands as a
/// structured "error" object in the --report artifact.
int FailRuntime(const Status& status) {
  telemetry::SetDegraded(status.ToString());
  if (g_report != nullptr) g_report->SetError(status, 3);
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 3;
}

/// Routes a Status to the right exit code: invalid_argument is the caller's
/// mistake (usage, 2); every other code is a runtime failure (3).
int FailStatus(const Status& status) {
  if (status.code() == StatusCode::kInvalidArgument) {
    return Fail(status.ToString());
  }
  return FailRuntime(status);
}

/// The CLI's estimator progress hook: records every update into the active
/// run report and, at --log-level info or below, prints a progress/ETA line
/// at most every 200 ms (the final update always prints). Purely
/// observational — see common/progress.h.
ProgressCallback MakeCliProgress() {
  using Clock = std::chrono::steady_clock;
  Clock::time_point start = Clock::now();
  auto last_print =
      std::make_shared<Clock::time_point>(start - std::chrono::seconds(1));
  return [start, last_print](const ProgressUpdate& update) {
    if (g_report != nullptr) g_report->RecordProgress(update);
    if (!log::IsEnabled(log::Level::kInfo)) return;
    Clock::time_point now = Clock::now();
    bool final_update = update.completed >= update.total;
    if (!final_update &&
        now - *last_print < std::chrono::milliseconds(200)) {
      return;
    }
    *last_print = now;
    std::string message = StrFormat("%s: %zu/%zu", update.phase,
                                    update.completed, update.total);
    double elapsed = std::chrono::duration<double>(now - start).count();
    if (update.completed > 0 && !final_update && elapsed > 0.0) {
      double eta = elapsed * static_cast<double>(update.total -
                                                 update.completed) /
                   static_cast<double>(update.completed);
      message += StrFormat(" eta=%.1fs", eta);
    }
    if (update.utility_evaluations > 0) {
      message += StrFormat(" evals=%zu", update.utility_evaluations);
    }
    if (update.max_std_error > 0.0) {
      message += StrFormat(" max_std_error=%.4g", update.max_std_error);
    }
    log::Emit(log::Level::kInfo, "nde_cli.cc", 0, message);
  };
}

/// Global flags that write a command's outputs after it finishes. `serve`
/// never finishes a command, so it rejects them rather than ignore them.
const std::set<std::string>& OutputFlags() {
  static const std::set<std::string>* flags = new std::set<std::string>{
      "metrics", "prometheus", "trace", "trace-parent", "serve", "report",
      "profile"};
  return *flags;
}

/// Rejects flags outside `allowed` (plus the global flags) so a typo like
/// --labell fails loudly instead of silently using the default.
Status CheckFlags(const Args& args, const std::string& command,
                  const std::set<std::string>& allowed) {
  if (!args.sets.empty() && allowed.count("set") == 0) {
    return Status::InvalidArgument(
        StrFormat("unknown flag '--set' for '%s'", command.c_str()));
  }
  for (const auto& [key, value] : args.flags) {
    if (allowed.count(key) > 0 || OutputFlags().count(key) > 0 ||
        key == "threads" || key == "log-level" || key == "log-json") {
      continue;
    }
    return Status::InvalidArgument(StrFormat(
        "unknown flag '--%s' for '%s'", key.c_str(), command.c_str()));
  }
  return Status::OK();
}

/// Applies every --set name=value assignment strictly: unknown options and
/// unparsable values are usage errors, unlike the legacy flags (which land
/// only on algorithms declaring the matching option).
Status ApplySetFlags(const Args& args, AlgorithmInstance* algorithm) {
  for (const std::string& assignment : args.sets) {
    size_t eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0) {
      return Status::InvalidArgument("--set expects name=value, got '" +
                                     assignment + "'");
    }
    NDE_RETURN_IF_ERROR(algorithm->Configure(assignment.substr(0, eq),
                                             assignment.substr(eq + 1)));
  }
  return Status::OK();
}

/// Loads a CSV and extracts (features via auto transformer, labels).
Result<MlDataset> LoadDataset(const std::string& path,
                              const std::string& label,
                              ColumnTransformer* transformer,
                              bool fit_transformer) {
  NDE_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path));
  NDE_ASSIGN_OR_RETURN(size_t label_col, table.schema().FieldIndex(label));
  if (table.schema().field(label_col).type != DataType::kInt64) {
    return Status::InvalidArgument("label column must be integer-typed");
  }
  MlDataset data;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.At(r, label_col);
    if (v.is_null() || v.as_int64() < 0) {
      return Status::InvalidArgument(
          StrFormat("row %zu has a null/negative label", r));
    }
    data.labels.push_back(static_cast<int>(v.as_int64()));
  }
  if (fit_transformer) {
    NDE_ASSIGN_OR_RETURN(*transformer, MakeAutoTransformer(table, {label}));
  }
  NDE_ASSIGN_OR_RETURN(data.features, transformer->Transform(table));
  return data;
}

int RunScreen(const Args& args) {
  Status flags_ok = CheckFlags(args, "screen", {"label", "max-null"});
  if (!flags_ok.ok()) return Fail(flags_ok.ToString());
  if (args.positional.size() != 1) {
    return Fail("usage: nde_cli screen <table.csv> --label <col>");
  }
  Result<double> max_null = DoubleFlag(args, "max-null", 0.2);
  if (!max_null.ok()) return Fail(max_null.status().ToString());
  Result<Table> table = ReadCsvFile(args.positional[0]);
  if (!table.ok()) return FailStatus(table.status());

  std::vector<PipelineIssue> issues = CheckNullFractions(*table, *max_null);
  std::string label = FlagOr(args, "label", "");
  if (!label.empty()) {
    ColumnTransformer transformer;
    Result<MlDataset> data =
        LoadDataset(args.positional[0], label, &transformer, true);
    if (!data.ok()) return FailStatus(data.status());
    auto balance = CheckClassBalance(data->labels, 0.1);
    issues.insert(issues.end(), balance.begin(), balance.end());
    auto labels = CheckLabelErrors(*data, 5, 0.2);
    issues.insert(issues.end(), labels.begin(), labels.end());
  }

  if (issues.empty()) {
    std::printf("all screens pass (%zu rows, %zu columns)\n",
                table->num_rows(), table->num_columns());
    return 0;
  }
  bool has_error = false;
  for (const PipelineIssue& issue : issues) {
    std::printf("%s\n", issue.ToString().c_str());
    if (issue.severity == IssueSeverity::kError) has_error = true;
  }
  return has_error ? 1 : 0;
}

/// The importance command's flags, parsed up front whatever the method, so
/// a malformed number is always a usage error (exit 2) naming its flag.
struct ImportanceFlags {
  size_t top = 25;
  /// Sizes every sampling budget; unset keeps the registry's budgets.
  std::optional<size_t> permutations;
  uint64_t seed = 42;
  bool warm_start = false;
  std::string model = "knn";
};

/// Parses the importance flags. `default_permutations` stands in for an
/// absent --permutations: pipeline mode samples 8 permutations by default,
/// two-CSV mode keeps the registry's budgets.
Result<ImportanceFlags> ParseImportanceFlags(
    const Args& args, std::optional<size_t> default_permutations) {
  ImportanceFlags flags;
  NDE_ASSIGN_OR_RETURN(flags.top, UnsignedFlag(args, "top", flags.top));
  flags.permutations = default_permutations;
  if (args.flags.count("permutations") > 0) {
    // Capped so that num_samples, 8x the flag, cannot wrap.
    NDE_ASSIGN_OR_RETURN(
        flags.permutations,
        UnsignedFlag(args, "permutations", 0, 0,
                     std::numeric_limits<size_t>::max() / 8));
  }
  NDE_ASSIGN_OR_RETURN(flags.seed, UnsignedFlag(args, "seed", flags.seed));
  flags.warm_start = args.flags.count("warm-start") > 0;
  flags.model = FlagOr(args, "model", flags.model);
  return flags;
}

/// Maps the parsed flags onto registry options, then applies --set. Each
/// flag lands only on algorithms declaring the matching option, so one
/// command line serves every method (knn_shapley ignores --permutations and
/// --seed); only --set assignments are strict.
Status ConfigureFromFlags(const Args& args, const ImportanceFlags& flags,
                          AlgorithmInstance* algorithm) {
  auto configure = [algorithm](const std::string& option,
                               const std::string& value) -> Status {
    if (!algorithm->HasOption(option)) return Status::OK();
    return algorithm->Configure(option, value);
  };
  NDE_RETURN_IF_ERROR(configure(
      "seed", StrFormat("%llu", static_cast<unsigned long long>(flags.seed))));
  if (flags.permutations.has_value()) {
    size_t permutations = *flags.permutations;
    NDE_RETURN_IF_ERROR(
        configure("num_permutations", StrFormat("%zu", permutations)));
    NDE_RETURN_IF_ERROR(
        configure("num_samples", StrFormat("%zu", permutations * 8)));
    NDE_RETURN_IF_ERROR(
        configure("samples_per_unit",
                  StrFormat("%zu", std::max<size_t>(permutations, 2))));
  }
  NDE_RETURN_IF_ERROR(
      configure("warm_start", flags.warm_start ? "true" : "false"));
  NDE_RETURN_IF_ERROR(configure("model", flags.model));
  return ApplySetFlags(args, algorithm);
}

/// Single-CSV importance: runs the file through a real MlPipeline (source ->
/// filter -> project -> encode) under a PlanProfiler, prints the annotated
/// plan with per-operator timings, then ranks the training rows with a
/// registry-resolved estimator over an internal train/validation split (the
/// shared engine in src/nde/engine.h — the same code path the HTTP job API
/// runs, so CLI and API results are bit-identical). This is the fully
/// instrumented path: with --trace, the output JSON contains one
/// complete-event per plan operator and per Shapley iteration batch.
int RunImportancePipeline(const Args& args) {
  std::string label = FlagOr(args, "label", "");
  if (label.empty()) return Fail("--label is required");
  std::string method = FlagOr(args, "method", "tmc_shapley");
  Result<ImportanceFlags> flags = ParseImportanceFlags(args, size_t{8});
  if (!flags.ok()) return Fail(flags.status().ToString());
  if (g_report != nullptr) {
    g_report->SetConfig("method", method);
    g_report->SetConfig("seed", static_cast<int64_t>(flags->seed));
    g_report->SetConfig("threads",
                        static_cast<int64_t>(DefaultNumThreads()));
    g_report->SetConfig("permutations",
                        static_cast<int64_t>(*flags->permutations));
    g_report->SetConfig("warm_start", flags->warm_start);
    g_report->SetConfig("model", flags->model);
  }

  Result<std::unique_ptr<AlgorithmInstance>> algorithm =
      AlgorithmRegistry::Global().Create(method);
  if (!algorithm.ok()) return Fail(algorithm.status().ToString());
  Status configured = ConfigureFromFlags(args, *flags, algorithm->get());
  if (!configured.ok()) return Fail(configured.ToString());
  (*algorithm)->SetProgress(MakeCliProgress());

  Result<Table> table = ReadCsvFile(args.positional[0]);
  if (!table.ok()) return FailStatus(table.status());
  // A missing label column is a usage error (exit 2), so screen it here
  // before the engine treats it as a generic failure.
  Result<size_t> label_col = table->schema().FieldIndex(label);
  if (!label_col.ok()) return Fail(label_col.status().ToString());

  std::string annotated_plan;
  Result<TableRunResult> run =
      RunAlgorithmOnTable(**algorithm, std::move(*table), label,
                          &annotated_plan);
  // The plan is worth printing even when the estimator then failed.
  if (!annotated_plan.empty()) {
    std::printf("pipeline plan (per-operator timings):\n%s\n",
                annotated_plan.c_str());
  }
  if (!run.ok()) return FailStatus(run.status());

  int exit_code = 0;
  const ImportanceEstimate& estimate = run->estimate;
  if (estimate.aborted_early) {
    // A partial estimate is still worth printing (completed waves are
    // exactly a smaller clean run), but the process must not pretend the
    // budget ran to completion: report the cause, mark the run degraded,
    // and exit with the runtime-failure code.
    telemetry::SetDegraded(estimate.abort_cause.ToString());
    if (g_report != nullptr) g_report->SetError(estimate.abort_cause, 3);
    std::fprintf(stderr,
                 "warning: estimator aborted early (%s); ranking below "
                 "covers the completed portion only\n",
                 estimate.abort_cause.ToString().c_str());
    exit_code = 3;
  }
  if (estimate.utility_evaluations > 0) {
    std::printf(
        "%zu utility evaluations over %zu training rows (%zu threads)\n",
        estimate.utility_evaluations, run->train_rows,
        estimate.num_threads_used);
  }

  // Most suspect first = lowest importance value; the engine already mapped
  // values back to source row ids through the pipeline's provenance.
  size_t top = std::min(flags->top, run->ranked_rows.size());
  std::printf("top %zu cleaning candidates by %s (most suspect first):\n",
              top, method.c_str());
  for (size_t i = 0; i < top; ++i) {
    std::printf("%u\n", run->ranked_rows[i]);
  }
  return exit_code;
}

int RunImportance(const Args& args) {
  Status flags_ok =
      CheckFlags(args, "importance",
                 {"label", "method", "top", "permutations", "warm-start",
                  "model", "seed", "set"});
  if (!flags_ok.ok()) return Fail(flags_ok.ToString());
  if (args.positional.size() == 1) return RunImportancePipeline(args);
  if (args.positional.size() != 2) {
    return Fail(
        "usage: nde_cli importance <train.csv> [<valid.csv>] --label <col>");
  }
  std::string label = FlagOr(args, "label", "");
  if (label.empty()) return Fail("--label is required");
  std::string method = FlagOr(args, "method", "knn_shapley");
  Result<ImportanceFlags> flags = ParseImportanceFlags(args, std::nullopt);
  if (!flags.ok()) return Fail(flags.status().ToString());

  ColumnTransformer transformer;
  Result<MlDataset> train =
      LoadDataset(args.positional[0], label, &transformer, true);
  if (!train.ok()) {
    return FailStatus(Status(train.status().code(),
                             "train: " + train.status().message()));
  }
  Result<MlDataset> valid =
      LoadDataset(args.positional[1], label, &transformer, false);
  if (!valid.ok()) {
    return FailStatus(Status(valid.status().code(),
                             "valid: " + valid.status().message()));
  }

  Result<std::unique_ptr<AlgorithmInstance>> algorithm =
      AlgorithmRegistry::Global().Create(method);
  if (!algorithm.ok()) return Fail(algorithm.status().ToString());
  Status configured = ConfigureFromFlags(args, *flags, algorithm->get());
  if (!configured.ok()) return Fail(configured.ToString());
  (*algorithm)->SetProgress(MakeCliProgress());

  RunInput input;
  input.train = &*train;
  input.validation = &*valid;
  Result<ImportanceEstimate> estimate = (*algorithm)->Run(input);
  if (!estimate.ok()) return FailStatus(estimate.status());
  std::vector<size_t> ranking = AscendingOrder(estimate->values);

  std::printf("top %zu cleaning candidates by %s (most suspect first):\n",
              flags->top, method.c_str());
  for (size_t i = 0; i < std::min(flags->top, ranking.size()); ++i) {
    std::printf("%zu\n", ranking[i]);
  }
  return 0;
}

int RunImpute(const Args& args) {
  Status flags_ok = CheckFlags(args, "impute", {"column", "strategy", "out"});
  if (!flags_ok.ok()) return Fail(flags_ok.ToString());
  if (args.positional.size() != 1) {
    return Fail("usage: nde_cli impute <table.csv> --column <col>");
  }
  std::string column = FlagOr(args, "column", "");
  if (column.empty()) return Fail("--column is required");
  std::string strategy = FlagOr(args, "strategy", "mean");
  std::string out_path = FlagOr(args, "out", args.positional[0] + ".imputed");

  Result<Table> table = ReadCsvFile(args.positional[0]);
  if (!table.ok()) return FailStatus(table.status());

  std::unique_ptr<Imputer> imputer;
  if (strategy == "mean") {
    imputer = std::make_unique<MeanImputer>();
  } else if (strategy == "median") {
    imputer = std::make_unique<MedianImputer>();
  } else if (strategy == "most_frequent") {
    imputer = std::make_unique<MostFrequentImputer>();
  } else {
    return Fail("unknown strategy '" + strategy + "'");
  }
  Result<std::vector<size_t>> repaired =
      ImputeColumn(&table.value(), column, imputer.get());
  if (!repaired.ok()) return Fail(repaired.status().ToString());
  Status written = WriteCsvFile(*table, out_path);
  if (!written.ok()) return FailStatus(written);
  std::printf("repaired %zu cells in '%s' (%s); wrote %s\n", repaired->size(),
              column.c_str(), imputer->name().c_str(), out_path.c_str());
  return 0;
}

/// Turns telemetry on, noting on stderr when it is compiled out: its
/// outputs are then empty by design.
void EnableTelemetry() {
  telemetry::SetEnabled(true);
#if !NDE_TELEMETRY_ENABLED
  std::fprintf(stderr,
               "note: telemetry compiled out (NDE_TELEMETRY=OFF); metrics "
               "and traces will be empty\n");
#endif
}

volatile std::sig_atomic_t g_serve_stop = 0;

void HandleServeSignal(int) { g_serve_stop = 1; }

/// Dedicated serving mode: keeps the embedded HTTP exporter up with the
/// async importance-job API mounted (POST /jobs, GET /jobs/<id>,
/// DELETE /jobs/<id>, GET /algorithmz) alongside the observability endpoints
/// until SIGINT/SIGTERM. Jobs run on a shared worker pool with a bounded
/// queue; an overflowing queue answers 429 so callers can back off.
int RunServe(const Args& args) {
  for (const auto& [key, value] : args.flags) {
    if (OutputFlags().count(key) > 0) {
      return Fail(StrFormat(
          "flag '--%s' is not supported by 'serve'; the server's live "
          "outputs are /metrics, /tracez, /profilez and --artifact-dir",
          key.c_str()));
    }
  }
  Status flags_ok = CheckFlags(
      args, "serve", {"port", "job-workers", "max-queue", "artifact-dir"});
  if (!flags_ok.ok()) return Fail(flags_ok.ToString());
  if (!args.positional.empty()) {
    return Fail("usage: nde_cli serve [--port 0] [--job-workers 1] "
                "[--max-queue 8] [--artifact-dir <dir>]");
  }
  Result<uint64_t> port = UnsignedFlag(args, "port", 0, 0, 65535);
  if (!port.ok()) return Fail(port.status().ToString());
  Result<uint64_t> workers = UnsignedFlag(args, "job-workers", 1, 1, 1024);
  if (!workers.ok()) return Fail(workers.status().ToString());
  Result<uint64_t> max_queue = UnsignedFlag(args, "max-queue", 8, 0, 65536);
  if (!max_queue.ok()) return Fail(max_queue.status().ToString());

  // A long-lived server should always expose live metrics and traces.
  EnableTelemetry();

  JobApiOptions job_options;
  job_options.num_workers = static_cast<size_t>(*workers);
  job_options.max_queued = static_cast<size_t>(*max_queue);
  job_options.artifact_dir = FlagOr(args, "artifact-dir", "");
  // Destruction order matters: the exporter (declared second) stops first,
  // so no HTTP thread can reach the manager while it drains its workers.
  JobManager manager(job_options);
  telemetry::HttpExporter exporter;
  exporter.SetHandler([&manager](const telemetry::HttpRequest& request) {
    return manager.HandleHttp(request);
  });
  Status started = exporter.Start(static_cast<uint16_t>(*port));
  if (!started.ok()) return Fail(started.ToString());
  std::fprintf(stderr, "serving on http://127.0.0.1:%u\n",
               static_cast<unsigned>(exporter.port()));
  std::fprintf(stderr,
               "job api ready: POST /jobs, GET /jobs/<id>, GET /algorithmz "
               "(%zu worker%s, queue %zu)\n",
               job_options.num_workers,
               job_options.num_workers == 1 ? "" : "s",
               job_options.max_queued);
  std::fflush(stderr);

  std::signal(SIGINT, HandleServeSignal);
  std::signal(SIGTERM, HandleServeSignal);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::fprintf(stderr, "shutting down\n");
  exporter.Stop();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: nde_cli <screen|importance|impute|serve> ...\n"
               "  screen <table.csv> [--label <col>] [--max-null 0.2]\n"
               "  importance <train.csv> <valid.csv> --label <col>\n"
               "             [--method knn_shapley|influence|aum|"
               "self_confidence|loo] [--top 25]\n"
               "  importance <table.csv> --label <col>  (pipeline mode)\n"
               "             [--method tmc_shapley|banzhaf|beta_shapley|"
               "knn_shapley]\n"
               "             [--top 25] [--permutations 8] [--warm-start]\n"
               "             [--model knn|gaussian_nb|logreg]\n"
               "  impute <table.csv> --column <col>\n"
               "         [--strategy mean|median|most_frequent] "
               "[--out <out.csv>]\n"
               "  serve [--port 0] [--job-workers 1] [--max-queue 8] "
               "[--artifact-dir <dir>]\n"
               "        (async job API: POST /jobs, GET /jobs/<id>, "
               "GET /algorithmz; of the global flags\n"
               "        only --threads, --log-level and --log-json)\n"
               "  --list-algorithms    print every registry algorithm and "
               "its options\n"
               "importance flags: --set <option>=<value> (repeatable; see "
               "--list-algorithms)\n"
               "global flags: --metrics | --prometheus | --trace <out.json> "
               "| --threads <N>\n"
               "              --serve <port> | --report <out.json> "
               "| --profile <out.folded>\n"
               "              --trace-parent <traceparent> | "
               "--log-level <level> | --log-json\n");
  return 2;
}

/// Writes the run's exact profile, every recorded span folded into
/// flamegraph stacks, to `path`. The stderr summary tells an empty profile
/// (telemetry compiled out) from a failed write.
int WriteProfile(const std::string& path) {
  telemetry::SpanProfile profile = telemetry::TraceBuffer::Global().Profile();
  std::string folded = profile.Folded();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Fail("cannot write profile file '" + path + "'");
  std::fwrite(folded.data(), 1, folded.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote profile of %zu spans (%zu stacks, %zu dropped) "
               "to %s\n", profile.spans, profile.stacks.size(),
               profile.dropped, path.c_str());
  return 0;
}

/// Writes the global trace buffer as Chrome trace JSON.
int WriteTrace(const std::string& path) {
  std::string json = telemetry::TraceBuffer::Global().ToChromeJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Fail("cannot write trace file '" + path + "'");
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %zu trace events to %s (open in Perfetto)\n",
               telemetry::TraceBuffer::Global().size(), path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "--list-algorithms") {
    std::printf("%s", AlgorithmRegistry::Global().DescribeText().c_str());
    return 0;
  }
  Args args = ParseArgs(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "error: %s\n", args.error.c_str());
    return 2;
  }

  std::string log_level_flag = FlagOr(args, "log-level", "");
  if (!log_level_flag.empty()) {
    log::Level level;
    if (!log::ParseLevel(log_level_flag, &level)) {
      return Fail("--log-level must be debug|info|warning|error, got '" +
                  log_level_flag + "'");
    }
    log::SetMinLevel(level);
  }
  if (args.flags.count("log-json") > 0) {
    log::Logger::Global().SetJson(true);
  }

  if (args.flags.count("threads") > 0) {
    Result<uint64_t> threads = UnsignedFlag(args, "threads", 0, 1);
    if (!threads.ok()) return Fail(threads.status().ToString());
    SetDefaultNumThreads(static_cast<size_t>(*threads));
  }

  // `serve` runs its own exporter with the job API mounted; the output flags
  // handled below (the sidecar --serve among them) belong to the other
  // commands.
  if (command == "serve") return RunServe(args);

  bool want_metrics = args.flags.count("metrics") > 0;
  bool want_prometheus = args.flags.count("prometheus") > 0;
  std::string trace_path = FlagOr(args, "trace", "");
  std::string serve_flag = FlagOr(args, "serve", "");
  std::string report_path = FlagOr(args, "report", "");
  std::string profile_path = FlagOr(args, "profile", "");
  if (want_metrics || want_prometheus || !trace_path.empty() ||
      !serve_flag.empty() || !report_path.empty() || !profile_path.empty()) {
    EnableTelemetry();
  }
  // Root trace context for the whole run: adopt an externally supplied
  // --trace-parent (a driving system can then correlate this invocation with
  // its own trace), or mint one whenever telemetry is on so every span and
  // structured log the run emits shares one trace id. Ids never feed the
  // estimators, so results stay bit-identical either way.
  std::optional<ScopedTraceContext> trace_scope;
  TraceContext root_context;
  std::string trace_parent_flag = FlagOr(args, "trace-parent", "");
  if (!trace_parent_flag.empty()) {
    if (!ParseTraceparent(trace_parent_flag, &root_context)) {
      return Fail("--trace-parent must be a W3C traceparent "
                  "(00-<32 hex>-<16 hex>-<2 hex>), got '" +
                  trace_parent_flag + "'");
    }
    trace_scope.emplace(TraceContext(root_context));
  } else if (telemetry::Enabled()) {
    root_context = MintTraceContext();
    trace_scope.emplace(TraceContext(root_context));
  }

  // The profile folds span events, so it implies telemetry (enabled above).
  if (!profile_path.empty()) telemetry::SetAllocAccountingEnabled(true);

  // Declared before the exporter so the exporter (and its request thread)
  // stops before the manager's workers drain.
  std::unique_ptr<JobManager> serve_jobs;
  telemetry::HttpExporter exporter;
  if (!serve_flag.empty()) {
    Result<uint64_t> port = UnsignedFlag(args, "serve", 0, 0, 65535);
    if (!port.ok()) return Fail(port.status().ToString());
    // The sidecar also exposes the job API so an observing client can submit
    // follow-up importance runs against the same process.
    serve_jobs = std::make_unique<JobManager>(JobApiOptions{});
    exporter.SetHandler(
        [manager = serve_jobs.get()](const telemetry::HttpRequest& request) {
          return manager->HandleHttp(request);
        });
    Status started = exporter.Start(static_cast<uint16_t>(*port));
    if (!started.ok()) return Fail(started.ToString());
    // Announced on stderr so scripts backgrounding the CLI can scrape the
    // bound port (meaningful with --serve 0).
    std::fprintf(stderr, "serving on http://127.0.0.1:%u\n",
                 static_cast<unsigned>(exporter.port()));
    std::fflush(stderr);
  }

  std::unique_ptr<telemetry::RunReport> report;
  if (!report_path.empty()) {
    report = std::make_unique<telemetry::RunReport>(command);
    report->SetConfig("command", command);
    std::string argv_line;
    for (int i = 0; i < argc; ++i) {
      if (i > 0) argv_line += " ";
      argv_line += argv[i];
    }
    report->SetConfig("argv", argv_line);
    if (root_context.has_trace()) {
      report->SetConfig("trace_id", TraceIdHex(root_context));
    }
    for (const auto& [key, value] : args.flags) {
      report->SetConfig("flag." + key, value);
    }
    g_report = report.get();
  }

  int code;
  if (command == "screen") {
    code = RunScreen(args);
  } else if (command == "importance") {
    code = RunImportance(args);
  } else if (command == "impute") {
    code = RunImpute(args);
  } else {
    std::fprintf(stderr, "error: unknown command '%s'\n", command.c_str());
    return Usage();
  }

  if (!profile_path.empty()) {
    int profile_code = WriteProfile(profile_path);
    if (code == 0) code = profile_code;
  }
  if (want_metrics) {
    std::printf("\n=== telemetry metrics ===\n%s",
                telemetry::MetricsRegistry::Global().ToTable().c_str());
  }
  if (want_prometheus) {
    std::printf("%s",
                telemetry::MetricsRegistry::Global().ToPrometheusText().c_str());
  }
  if (!trace_path.empty()) {
    int trace_code = WriteTrace(trace_path);
    if (code == 0) code = trace_code;
  }
  if (report != nullptr) {
    g_report = nullptr;
    report->Finish();
    Status written = report->WriteFile(report_path);
    if (!written.ok()) {
      std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
      if (code == 0) code = 2;
    } else {
      std::fprintf(stderr, "wrote run report to %s\n", report_path.c_str());
    }
  }
  exporter.Stop();
  return code;
}

}  // namespace
}  // namespace nde

int main(int argc, char** argv) { return nde::Main(argc, argv); }
