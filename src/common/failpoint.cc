#include "common/failpoint.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/result.h"
#include "common/string_util.h"

namespace nde {
namespace failpoint {

namespace internal {
std::atomic<int> g_armed_count{0};
}  // namespace internal

namespace {

enum class Action { kError, kDelay, kNanPoison };

/// Parsed spec for one armed failpoint. Immutable after arming; Fire takes a
/// copy under the registry lock and evaluates it lock-free afterwards.
struct Config {
  Action action = Action::kError;
  Status status;            ///< pre-built for kError
  uint64_t delay_ms = 0;    ///< kDelay
  double probability = 1.0; ///< @prob
  uint64_t seed = 0;        ///< @prob/seed
  uint64_t first_hit = 1;   ///< #N (1-based)
  uint64_t max_fires = 0;   ///< xM; 0 = unlimited
};

/// One registered site: its (possibly disarmed) config plus counters that
/// survive re-arming and disarming, so chaos runs can always read how often
/// a site was reached.
struct Point {
  Config config;
  bool armed = false;
  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> fires{0};
};

struct Registry {
  std::mutex mu;
  /// Points are never erased, so Fire can hold a Point* across the lock.
  std::map<std::string, std::unique_ptr<Point>> points;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t NameHash(const char* name) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char* p = name; *p != '\0'; ++p) {
    h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
  }
  return h;
}

/// The probabilistic fire decision: a pure function of (seed, name, key).
bool KeyedDecision(uint64_t seed, uint64_t name_hash, uint64_t key,
                   double probability) {
  uint64_t mixed = SplitMix64(seed ^ SplitMix64(key) ^ name_hash);
  // Top 53 bits -> uniform double in [0, 1).
  double u = static_cast<double>(mixed >> 11) * 0x1.0p-53;
  return u < probability;
}

Status ParseStatusSpec(const std::string& args, const char* name,
                       Status* out) {
  // "code" or "code:message"; empty args mean internal with a stock message.
  std::string code_text = args;
  std::string message;
  size_t colon = args.find(':');
  if (colon != std::string::npos) {
    code_text = args.substr(0, colon);
    message = args.substr(colon + 1);
  }
  StatusCode code = StatusCode::kInternal;
  if (!code_text.empty() && !StatusCodeFromString(code_text, &code)) {
    return Status::InvalidArgument(
        StrFormat("failpoint spec: unknown status code '%s'",
                  code_text.c_str()));
  }
  if (code == StatusCode::kOk) {
    return Status::InvalidArgument("failpoint spec: error code cannot be ok");
  }
  if (message.empty()) {
    message = StrFormat("failpoint '%s' fired", name);
  }
  *out = Status(code, message);
  return Status::OK();
}

Result<uint64_t> ParseUint(const std::string& text, const char* what) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return Status::InvalidArgument(
        StrFormat("failpoint spec: %s requires an unsigned integer, got '%s'",
                  what, text.c_str()));
  }
  return static_cast<uint64_t>(std::strtoull(text.c_str(), nullptr, 10));
}

/// Parses "name=action[(args)][@prob[/seed]][#N][xM]" into (name, config).
/// `disarm` is set for the "off" pseudo-action.
Status ParseSpec(const std::string& spec, std::string* name, Config* config,
                 bool* disarm) {
  *disarm = false;
  size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument(
        StrFormat("failpoint spec '%s' is not name=action", spec.c_str()));
  }
  *name = std::string(StripWhitespace(spec.substr(0, eq)));
  std::string rest(StripWhitespace(spec.substr(eq + 1)));
  if (name->empty() || rest.empty()) {
    return Status::InvalidArgument(
        StrFormat("failpoint spec '%s' is not name=action", spec.c_str()));
  }

  // Action token: letters/underscore up to '(' or a modifier introducer.
  size_t action_end = 0;
  while (action_end < rest.size() &&
         (std::isalpha(static_cast<unsigned char>(rest[action_end])) ||
          rest[action_end] == '_')) {
    ++action_end;
  }
  std::string action = rest.substr(0, action_end);
  std::string args;
  size_t cursor = action_end;
  if (cursor < rest.size() && rest[cursor] == '(') {
    size_t close = rest.find(')', cursor);
    if (close == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("failpoint spec '%s' has an unterminated '('",
                    spec.c_str()));
    }
    args = rest.substr(cursor + 1, close - cursor - 1);
    cursor = close + 1;
  }

  if (action == "off") {
    if (cursor != rest.size() || !args.empty()) {
      return Status::InvalidArgument(
          StrFormat("failpoint spec '%s': 'off' takes no arguments",
                    spec.c_str()));
    }
    *disarm = true;
    return Status::OK();
  }
  if (action == "error") {
    config->action = Action::kError;
    NDE_RETURN_IF_ERROR(ParseStatusSpec(args, name->c_str(), &config->status));
  } else if (action == "delay") {
    config->action = Action::kDelay;
    NDE_ASSIGN_OR_RETURN(config->delay_ms, ParseUint(args, "delay(ms)"));
  } else if (action == "nan") {
    config->action = Action::kNanPoison;
  } else {
    return Status::InvalidArgument(StrFormat(
        "failpoint spec '%s': unknown action '%s' "
        "(want error|delay|nan|off)",
        spec.c_str(), action.c_str()));
  }

  // Modifiers, in any order: @prob[/seed], #N, xM.
  while (cursor < rest.size()) {
    char mod = rest[cursor++];
    size_t end = cursor;
    while (end < rest.size() && rest[end] != '@' && rest[end] != '#' &&
           rest[end] != 'x') {
      ++end;
    }
    std::string value = rest.substr(cursor, end - cursor);
    cursor = end;
    if (mod == '@') {
      std::string prob_text = value;
      size_t slash = value.find('/');
      if (slash != std::string::npos) {
        prob_text = value.substr(0, slash);
        NDE_ASSIGN_OR_RETURN(config->seed,
                             ParseUint(value.substr(slash + 1), "@prob/seed"));
      }
      char* parse_end = nullptr;
      double p = std::strtod(prob_text.c_str(), &parse_end);
      if (prob_text.empty() || parse_end != prob_text.c_str() + prob_text.size() ||
          p < 0.0 || p > 1.0) {
        return Status::InvalidArgument(StrFormat(
            "failpoint spec '%s': @prob must be in [0, 1], got '%s'",
            spec.c_str(), prob_text.c_str()));
      }
      config->probability = p;
    } else if (mod == '#') {
      NDE_ASSIGN_OR_RETURN(config->first_hit, ParseUint(value, "#N"));
      if (config->first_hit == 0) {
        return Status::InvalidArgument(
            StrFormat("failpoint spec '%s': #N is 1-based", spec.c_str()));
      }
    } else if (mod == 'x') {
      NDE_ASSIGN_OR_RETURN(config->max_fires, ParseUint(value, "xM"));
      if (config->max_fires == 0) {
        return Status::InvalidArgument(StrFormat(
            "failpoint spec '%s': xM must be positive (use 'off' to disarm)",
            spec.c_str()));
      }
    } else {
      return Status::InvalidArgument(StrFormat(
          "failpoint spec '%s': unknown modifier '%c'", spec.c_str(), mod));
    }
  }
  return Status::OK();
}

Outcome FireImpl(const char* name, bool keyed, uint64_t key) {
  Registry& registry = GlobalRegistry();
  Point* point = nullptr;
  Config config;
  {
    std::lock_guard<std::mutex> lock(registry.mu);
    auto it = registry.points.find(name);
    if (it == registry.points.end() || !it->second->armed) return Outcome{};
    point = it->second.get();
    config = point->config;
  }
  // Counter updates and the (possibly sleeping) action run outside the lock;
  // the Point lives forever, so the pointer stays valid.
  uint64_t ordinal = point->hits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (ordinal < config.first_hit) return Outcome{};
  if (config.probability < 1.0 &&
      !KeyedDecision(config.seed, NameHash(name), keyed ? key : ordinal,
                     config.probability)) {
    return Outcome{};
  }
  if (config.max_fires > 0) {
    // Count only real fires against xM: CAS so concurrent hits cannot burn
    // the budget without firing.
    uint64_t fired = point->fires.load(std::memory_order_relaxed);
    do {
      if (fired >= config.max_fires) return Outcome{};
    } while (!point->fires.compare_exchange_weak(fired, fired + 1,
                                                 std::memory_order_relaxed));
  } else {
    point->fires.fetch_add(1, std::memory_order_relaxed);
  }

  Outcome outcome;
  switch (config.action) {
    case Action::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(config.delay_ms));
      outcome.kind = Outcome::kNone;  // delay served; caller proceeds
      break;
    case Action::kNanPoison:
      outcome.kind = Outcome::kNanPoison;
      // Value paths check the kind and poison their double instead; sites
      // that can only return a Status degrade to this typed error.
      outcome.status = Status::Internal(
          StrFormat("failpoint '%s': nan poison at a non-value site", name));
      break;
    case Action::kError:
      outcome.kind = Outcome::kError;
      outcome.status = config.status;
      break;
  }
  return outcome;
}

/// Arms NDE_FAILPOINTS once at process start, before main() runs.
struct EnvArmer {
  EnvArmer() { ArmFromEnv(); }
};
EnvArmer g_env_armer;

}  // namespace

Outcome Fire(const char* name) { return FireImpl(name, false, 0); }

Outcome Fire(const char* name, uint64_t key) {
  return FireImpl(name, true, key);
}

uint64_t MixKey(uint64_t a, uint64_t b) {
  return SplitMix64(a ^ (0x9e3779b97f4a7c15ULL * (b + 1)));
}

Status Arm(const std::string& spec) {
  std::string name;
  Config config;
  bool disarm = false;
  NDE_RETURN_IF_ERROR(ParseSpec(spec, &name, &config, &disarm));
  if (disarm) {
    Disarm(name);
    return Status::OK();
  }
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::unique_ptr<Point>& slot = registry.points[name];
  if (slot == nullptr) slot = std::make_unique<Point>();
  if (!slot->armed) {
    slot->armed = true;
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  slot->config = config;
  return Status::OK();
}

Status ArmFromList(const std::string& specs) {
  size_t begin = 0;
  while (begin <= specs.size()) {
    size_t end = specs.find_first_of(";,", begin);
    if (end == std::string::npos) end = specs.size();
    std::string spec(StripWhitespace(specs.substr(begin, end - begin)));
    if (!spec.empty()) NDE_RETURN_IF_ERROR(Arm(spec));
    begin = end + 1;
  }
  return Status::OK();
}

void ArmFromEnv() {
  const char* env = std::getenv("NDE_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  // Arm spec by spec so one typo does not drop the rest of the list.
  std::string specs = env;
  size_t begin = 0;
  while (begin <= specs.size()) {
    size_t end = specs.find_first_of(";,", begin);
    if (end == std::string::npos) end = specs.size();
    std::string spec(StripWhitespace(specs.substr(begin, end - begin)));
    if (!spec.empty()) {
      Status armed = Arm(spec);
      if (!armed.ok()) {
        std::fprintf(stderr, "warning: NDE_FAILPOINTS: %s (spec ignored)\n",
                     armed.ToString().c_str());
      }
    }
    begin = end + 1;
  }
}

bool Disarm(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end() || !it->second->armed) return false;
  it->second->armed = false;
  internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

void DisarmAll() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, point] : registry.points) {
    if (point->armed) {
      point->armed = false;
      internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void ResetStats() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, point] : registry.points) {
    point->hits.store(0, std::memory_order_relaxed);
    point->fires.store(0, std::memory_order_relaxed);
  }
}

std::vector<PointStats> Stats() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<PointStats> stats;
  stats.reserve(registry.points.size());
  for (const auto& [name, point] : registry.points) {
    PointStats entry;
    entry.name = name;
    entry.hits = point->hits.load(std::memory_order_relaxed);
    entry.fires = point->fires.load(std::memory_order_relaxed);
    entry.armed = point->armed;
    stats.push_back(std::move(entry));
  }
  return stats;  // std::map iteration is already name-sorted.
}

const std::vector<std::string>& KnownSites() {
  static const std::vector<std::string>* sites = new std::vector<std::string>{
      "csv.open",            // ReadCsvFile, before opening the file
      "csv.record",          // ReadCsvString, per data record (key: record #)
      "pipeline.execute",    // PlanNode::Execute, per operator
      "encoder.fit",         // ColumnTransformer::Fit, per column encoder
      "encoder.transform",   // ColumnTransformer::Transform, per column
      "utility.evaluate",    // TryEvaluate (key: subset hash) and TMC's scan
                             // Push (key: permutation x position)
      "threadpool.task",     // ParallelFor, per worker task
      "http.handle_request", // HttpExporter::HandleRequest, per request
  };
  return *sites;
}

}  // namespace failpoint
}  // namespace nde
