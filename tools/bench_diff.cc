// bench_diff — benchmark-trajectory regression gate.
//
//   bench_diff --baseline bench/BENCH_baseline.json
//              --candidate BENCH_results.json [--threshold 0.15]
//
// Both files are JSON-lines as written by bench_util::ReportJson: one flat
// object per line with a "name" field, numeric measurements, and the machine
// stamp ("git_rev", "date", "cpus", "telemetry"). The tool compares a fixed
// set of key counters — the ones the perf roadmap actually watches:
//
//   BM_TmcUtilityFastPath/fast:1     utility_evals_per_sec  higher is better
//   BM_TmcWaveLatency                wave_p99_ms            lower is better
//   BM_KnnKernel                     utility_evals_per_sec  higher is better
//   BM_GaussianNbPrefixScan/scan:1   utility_evals_per_sec  higher is better
//
// For each watched benchmark the LAST matching record in each file wins, so
// an append-only results file naturally compares its freshest run against the
// committed baseline. A watched benchmark absent from the *baseline* is
// skipped (a short smoke run may only exercise a subset); present in the
// baseline but absent from the candidate is an error — the candidate run
// silently dropped a guarded benchmark. A candidate record whose "cpus"
// stamp differs from its baseline record's is refused, not compared: a
// counter measured on another host class is no regression signal.
//
// Exit codes: 0 all watched counters within threshold; 1 at least one
// regressed beyond threshold; 2 usage or parse failure, or records stamped
// on different host classes.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct WatchedCounter {
  const char* bench_name;  ///< exact "name" field of the record
  const char* counter;     ///< numeric field inside the record
  bool higher_is_better;
};

const WatchedCounter kWatched[] = {
    {"BM_TmcUtilityFastPath/fast:1", "utility_evals_per_sec", true},
    {"BM_TmcWaveLatency", "wave_p99_ms", false},
    {"BM_KnnKernel", "utility_evals_per_sec", true},
    {"BM_GaussianNbPrefixScan/scan:1", "utility_evals_per_sec", true},
};

/// Extracts the string value of `key` from one flat JSON object line.
/// Returns false when the key is absent. Only handles the shapes ReportJson
/// emits (flat object, keys in double quotes, no escaped quotes in values).
bool ExtractRaw(const std::string& line, const std::string& key,
                std::string* out) {
  std::string needle = "\"" + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  pos += needle.size();
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(
                                  line[pos]))) {
    ++pos;
  }
  if (pos >= line.size()) return false;
  size_t end = pos;
  if (line[pos] == '"') {
    end = line.find('"', pos + 1);
    if (end == std::string::npos) return false;
    *out = line.substr(pos + 1, end - pos - 1);
    return true;
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  *out = line.substr(pos, end - pos);
  // Trim trailing spaces.
  while (!out->empty() && std::isspace(static_cast<unsigned char>(
                              out->back()))) {
    out->pop_back();
  }
  return !out->empty();
}

bool ExtractNumber(const std::string& line, const std::string& key,
                   double* out) {
  std::string raw;
  if (!ExtractRaw(line, key, &raw)) return false;
  char* end = nullptr;
  double value = std::strtod(raw.c_str(), &end);
  if (end == raw.c_str() || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

struct Record {
  double value = 0.0;
  std::string git_rev;
  std::string date;
  std::string cpus;

  std::string Stamp() const {
    return "cpus " + cpus + " (rev " + git_rev + ", " + date + ")";
  }
};

/// Loads the last record per watched benchmark from a JSON-lines file.
/// Returns false (with a message) when the file cannot be read or a line that
/// names a watched benchmark lacks its watched counter.
bool LoadLastRecords(const std::string& path,
                     std::map<std::string, Record>* records,
                     std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open '" + path + "'";
    return false;
  }
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    std::string name;
    if (!ExtractRaw(line, "name", &name)) {
      std::ostringstream os;
      os << path << ":" << line_number << ": record has no \"name\" field";
      *error = os.str();
      return false;
    }
    for (const WatchedCounter& watched : kWatched) {
      if (name != watched.bench_name) continue;
      Record record;
      if (!ExtractNumber(line, watched.counter, &record.value)) {
        std::ostringstream os;
        os << path << ":" << line_number << ": '" << name
           << "' lacks numeric counter '" << watched.counter << "'";
        *error = os.str();
        return false;
      }
      ExtractRaw(line, "git_rev", &record.git_rev);
      ExtractRaw(line, "date", &record.date);
      ExtractRaw(line, "cpus", &record.cpus);
      (*records)[name] = record;  // last entry per name wins
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff --baseline <baseline.json> "
               "--candidate <results.json> [--threshold 0.15]\n"
               "compares the last record per watched benchmark; exit 1 when "
               "a key counter regresses beyond the threshold fraction\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path;
  double threshold = 0.15;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string raw;
    if (arg == "--baseline" && value(&baseline_path)) continue;
    if (arg == "--candidate" && value(&candidate_path)) continue;
    if (arg == "--threshold" && value(&raw)) {
      char* end = nullptr;
      threshold = std::strtod(raw.c_str(), &end);
      if (end == raw.c_str() || threshold <= 0.0 || threshold >= 10.0) {
        std::fprintf(stderr, "error: bad --threshold '%s'\n", raw.c_str());
        return 2;
      }
      continue;
    }
    std::fprintf(stderr, "error: unknown or valueless flag '%s'\n",
                 arg.c_str());
    return Usage();
  }
  if (baseline_path.empty() || candidate_path.empty()) return Usage();

  std::map<std::string, Record> baseline, candidate;
  std::string error;
  if (!LoadLastRecords(baseline_path, &baseline, &error) ||
      !LoadLastRecords(candidate_path, &candidate, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (baseline.empty()) {
    std::fprintf(stderr, "error: baseline '%s' has no watched benchmarks\n",
                 baseline_path.c_str());
    return 2;
  }

  for (const WatchedCounter& watched : kWatched) {
    auto base_it = baseline.find(watched.bench_name);
    auto cand_it = candidate.find(watched.bench_name);
    if (base_it == baseline.end() || cand_it == candidate.end() ||
        base_it->second.cpus == cand_it->second.cpus) {
      continue;
    }
    std::fprintf(stderr,
                 "error: refusing to compare records from different host "
                 "classes:\n  baseline  %s: %s\n  candidate %s: %s\n",
                 watched.bench_name, base_it->second.Stamp().c_str(),
                 watched.bench_name, cand_it->second.Stamp().c_str());
    return 2;
  }

  std::printf("%-32s %-22s %12s %12s %8s  %s\n", "benchmark", "counter",
              "baseline", "candidate", "delta", "verdict");
  int regressions = 0;
  for (const WatchedCounter& watched : kWatched) {
    auto base_it = baseline.find(watched.bench_name);
    if (base_it == baseline.end()) {
      std::printf("%-32s %-22s %12s %12s %8s  skipped (not in baseline)\n",
                  watched.bench_name, watched.counter, "-", "-", "-");
      continue;
    }
    auto cand_it = candidate.find(watched.bench_name);
    if (cand_it == candidate.end()) {
      // The baseline guards this benchmark; a candidate run that dropped it
      // must not pass silently.
      std::fprintf(stderr,
                   "error: candidate '%s' has no record for '%s' (guarded by "
                   "the baseline)\n",
                   candidate_path.c_str(), watched.bench_name);
      return 2;
    }
    double base = base_it->second.value;
    double cand = cand_it->second.value;
    // Delta is signed toward "better": positive means the candidate improved.
    double delta = base == 0.0
                       ? 0.0
                       : (watched.higher_is_better ? (cand - base) / base
                                                   : (base - cand) / base);
    bool regressed = delta < -threshold;
    if (regressed) ++regressions;
    std::printf("%-32s %-22s %12.4g %12.4g %+7.1f%%  %s\n",
                watched.bench_name, watched.counter, base, cand, delta * 100.0,
                regressed ? "REGRESSED" : "ok");
  }
  std::string base_rev, cand_rev;
  for (const auto& [name, record] : baseline) base_rev = record.git_rev;
  for (const auto& [name, record] : candidate) cand_rev = record.git_rev;
  std::printf("baseline rev: %s  candidate rev: %s  threshold: %.0f%%\n",
              base_rev.empty() ? "unknown" : base_rev.c_str(),
              cand_rev.empty() ? "unknown" : cand_rev.c_str(),
              threshold * 100.0);
  if (regressions > 0) {
    std::fprintf(stderr, "error: %d watched counter(s) regressed beyond %.0f%%\n",
                 regressions, threshold * 100.0);
    return 1;
  }
  return 0;
}
