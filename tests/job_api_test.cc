// The async importance-job API (src/nde/job_api.h): submit/poll/cancel
// lifecycle, HTTP request handling, bounded-queue backpressure (429), error
// isolation (a failing job flips /healthz without poisoning later jobs), and
// RunReport artifacts. Uses a test-registered blocking algorithm to make
// queue states deterministic.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/trace_context.h"
#include "nde/job_api.h"
#include "nde/registry.h"
#include "telemetry/health.h"
#include "telemetry/http_exporter.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace nde {
namespace {

/// Inline CSV small enough for fast jobs but big enough for the 1-in-5
/// validation split to be non-empty.
const char kCsv[] =
    "a,b,label\n"
    "1,2,0\n2,1,1\n3,3,0\n4,1,1\n5,2,0\n"
    "1,3,1\n2,2,0\n3,1,1\n4,4,0\n5,1,1\n"
    "1,1,0\n2,4,1\n3,2,0\n4,2,1\n5,3,0\n"
    "1,4,1\n2,3,0\n3,4,1\n4,3,0\n5,4,1\n";

JobRequest QuickRequest() {
  JobRequest request;
  request.algorithm = "knn_shapley";
  request.label = "label";
  request.csv_data = kCsv;
  request.options = {{"k", "3"}};
  return request;
}

/// Polls until the job leaves queued/running (all jobs here finish fast).
JobSnapshot AwaitDone(const JobManager& manager, const std::string& id) {
  for (int i = 0; i < 2000; ++i) {
    JobSnapshot snapshot = manager.Get(id).value();
    if (snapshot.state != JobState::kQueued &&
        snapshot.state != JobState::kRunning) {
      return snapshot;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never finished";
  return manager.Get(id).value();
}

TEST(JobApiTest, SubmitPollResultLifecycle) {
  JobManager manager;
  Result<std::string> id = manager.Submit(QuickRequest());
  ASSERT_TRUE(id.ok()) << id.status().ToString();

  JobSnapshot done = AwaitDone(manager, *id);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(done.error.ok());
  EXPECT_EQ(done.algorithm, "knn_shapley");
  // 20 rows -> 16 train / 4 validation under the engine's 1-in-5 split.
  EXPECT_EQ(done.train_rows, 16u);
  EXPECT_EQ(done.valid_rows, 4u);
  EXPECT_EQ(done.estimate.values.size(), 16u);
  EXPECT_EQ(done.ranked_rows.size(), 16u);
  EXPECT_EQ(done.progress_completed, done.progress_total);
}

TEST(JobApiTest, SubmitValidatesUpFront) {
  JobManager manager;

  JobRequest no_source = QuickRequest();
  no_source.csv_data.clear();
  EXPECT_EQ(manager.Submit(no_source).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest both = QuickRequest();
  both.csv_path = "/tmp/x.csv";
  EXPECT_EQ(manager.Submit(both).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest unknown_algorithm = QuickRequest();
  unknown_algorithm.algorithm = "nope";
  EXPECT_EQ(manager.Submit(unknown_algorithm).status().code(),
            StatusCode::kNotFound);

  JobRequest bad_option = QuickRequest();
  bad_option.options = {{"k", "zero"}};
  EXPECT_EQ(manager.Submit(bad_option).status().code(),
            StatusCode::kInvalidArgument);

  JobRequest unknown_option = QuickRequest();
  unknown_option.options = {{"num_permutations", "8"}};
  EXPECT_EQ(manager.Submit(unknown_option).status().code(),
            StatusCode::kNotFound);

  EXPECT_EQ(manager.Get("job-99").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(manager.Cancel("job-99").code(), StatusCode::kNotFound);
}

/// A registry algorithm that blocks until its cancel flag rises — the only
/// way to hold a worker deterministically for queue/cancel tests.
class BlockingAlgorithm : public AlgorithmInstance {
 public:
  BlockingAlgorithm()
      : AlgorithmInstance("test_blocking", "blocks until cancelled") {}
  Result<ImportanceEstimate> Run(const RunInput&) const override {
    while (!cancel_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Cancelled("cancelled mid-run");
  }
};

void EnsureBlockingRegistered() {
  static bool once = [] {
    Status registered = AlgorithmRegistry::Global().Register(
        []() { return std::make_unique<BlockingAlgorithm>(); });
    return registered.ok();
  }();
  ASSERT_TRUE(once);
}

JobRequest BlockingRequest() {
  JobRequest request = QuickRequest();
  request.algorithm = "test_blocking";
  request.options.clear();
  return request;
}

TEST(JobApiTest, FullQueueRefusesWithResourceExhausted) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 1;
  JobManager manager(options);

  // First job occupies the single worker; wait until it actually runs so the
  // queue accounting is deterministic.
  std::string running = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 && manager.Get(running).value().state !=
                                  JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(manager.Get(running).value().state, JobState::kRunning);

  // Second fills the queue; third must bounce with backpressure.
  std::string queued = manager.Submit(BlockingRequest()).value();
  Result<std::string> refused = manager.Submit(BlockingRequest());
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);

  // Cancel both: the queued job only advances once the worker reaches it, so
  // the runner must be released first.
  ASSERT_TRUE(manager.Cancel(queued).ok());
  ASSERT_TRUE(manager.Cancel(running).ok());
  JobSnapshot stopped = AwaitDone(manager, running);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  JobSnapshot cancelled = AwaitDone(manager, queued);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  EXPECT_EQ(cancelled.error.code(), StatusCode::kCancelled);
  EXPECT_TRUE(cancelled.estimate.values.empty());

  // With the queue drained, a new submission is accepted again.
  Result<std::string> retried = manager.Submit(QuickRequest());
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
}

TEST(JobApiTest, DestructorCancelsOutstandingJobs) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 4;
  {
    JobManager manager(options);
    manager.Submit(BlockingRequest()).value();
    manager.Submit(BlockingRequest()).value();
    // Destructor must cancel the runner and the queued job and drain.
  }
  SUCCEED();
}

TEST(JobApiTest, FailingJobDegradesHealthAndLaterSuccessRestoresIt) {
  telemetry::SetHealthy();
  failpoint::DisarmAll();
  // Every utility evaluation fails: the estimator aborts on the first wave
  // and the job must surface the injected error, not a partial result.
  ASSERT_TRUE(failpoint::Arm("utility.evaluate=error(io_error:disk gone)").ok());

  JobManager manager;
  JobRequest failing = QuickRequest();
  failing.algorithm = "loo";
  std::string id = manager.Submit(failing).value();
  JobSnapshot failed = AwaitDone(manager, id);
  failpoint::DisarmAll();

  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_FALSE(failed.error.ok());
  EXPECT_TRUE(failed.estimate.values.empty());
  EXPECT_FALSE(telemetry::IsHealthy());

  // The manager keeps serving: a clean job succeeds and restores /healthz.
  std::string clean = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, clean);
  EXPECT_EQ(done.state, JobState::kDone);
  EXPECT_TRUE(telemetry::IsHealthy());
}

TEST(JobApiTest, PoolFaultDuringScorerContextBuildFailsTheJob) {
  failpoint::DisarmAll();
  const std::vector<std::pair<std::string, std::string>> budgets = {
      {"tmc_shapley", "num_permutations"}, {"banzhaf", "num_samples"}};
  for (const auto& [algorithm, budget] : budgets) {
    SCOPED_TRACE(algorithm);
    telemetry::SetHealthy();
    failpoint::ResetStats();
    // Hit 1 is the first task of the estimator's scorer-context fan-out,
    // which the fault kills.
    ASSERT_TRUE(
        failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
            .ok());
    JobApiOptions options;
    options.num_workers = 1;
    JobManager manager(options);
    JobRequest request = QuickRequest();
    request.algorithm = algorithm;
    request.options = {{"k", "3"}, {budget, "8"}, {"num_threads", "4"}};
    std::string id = manager.Submit(request).value();
    JobSnapshot failed = AwaitDone(manager, id);
    failpoint::DisarmAll();

    EXPECT_EQ(failed.state, JobState::kError);
    EXPECT_EQ(failed.error.code(), StatusCode::kUnavailable);
    EXPECT_NE(failed.error.message().find("worker fault"), std::string::npos);
    EXPECT_TRUE(failed.estimate.values.empty());
    EXPECT_FALSE(telemetry::IsHealthy());
  }
  telemetry::SetHealthy();
}

/// Enough rows for the 1-in-5 validation split to span several 8-point
/// chunks, so the closed forms fan out over the pool.
std::string FanOutCsv() {
  std::string csv = "a,b,label\n";
  for (int i = 0; i < 100; ++i) {
    csv += StrFormat("%d,%d,%d\n", i % 7, (i * 3) % 5, i % 2);
  }
  return csv;
}

TEST(JobApiTest, KnnShapleyJobsReportTheThreadsTheyRanOn) {
  JobManager manager;
  for (const char* algorithm : {"knn_shapley", "datascope"}) {
    SCOPED_TRACE(algorithm);
    JobRequest request = QuickRequest();
    request.algorithm = algorithm;
    request.csv_data = FanOutCsv();
    request.options = {{"k", "3"}, {"num_threads", "2"}};
    JobSnapshot done = AwaitDone(manager, manager.Submit(request).value());
    ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();
    EXPECT_EQ(done.estimate.num_threads_used, 2u);
  }
}

TEST(JobApiTest, PoolFaultInKnnShapleyFanOutFailsTheJob) {
  std::string csv = FanOutCsv();
  for (const char* algorithm : {"knn_shapley", "datascope"}) {
    SCOPED_TRACE(algorithm);
    telemetry::SetHealthy();
    failpoint::ResetStats();
    // Hit 1 is the first task of the estimator's fan-out, which the fault
    // kills.
    ASSERT_TRUE(
        failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
            .ok());
    JobApiOptions options;
    options.num_workers = 1;
    JobManager manager(options);
    JobRequest request = QuickRequest();
    request.algorithm = algorithm;
    request.csv_data = csv;
    request.options = {{"k", "3"}, {"num_threads", "4"}};
    std::string id = manager.Submit(request).value();
    JobSnapshot failed = AwaitDone(manager, id);
    failpoint::DisarmAll();

    EXPECT_EQ(failed.state, JobState::kError);
    EXPECT_EQ(failed.error.code(), StatusCode::kUnavailable);
    EXPECT_NE(failed.error.message().find("worker fault"), std::string::npos);
    EXPECT_TRUE(failed.estimate.values.empty());
    EXPECT_FALSE(telemetry::IsHealthy());
  }
  telemetry::SetHealthy();
}

/// A binary CSV whose training split (4 of every 5 rows) spans two
/// kRowBlock blocks, so the transformer and influence's passes fan out.
std::string TwoBlockCsv() {
  std::string csv = "a,b,label\n";
  for (int i = 0; i < 6000; ++i) {
    csv += StrFormat("%d,%d,%d\n", i % 7, (i * 3) % 5, (i % 7 + i % 3) % 2);
  }
  return csv;
}

/// Sets the process-default thread count, which influence fans out on, for
/// one scope.
struct ScopedDefaultThreads {
  explicit ScopedDefaultThreads(size_t threads) {
    SetDefaultNumThreads(threads);
  }
  ~ScopedDefaultThreads() { SetDefaultNumThreads(0); }
};

TEST(JobApiTest, InfluenceJobsReportTheThreadsTheyRanOn) {
  ScopedDefaultThreads threads(2);
  JobManager manager;
  JobRequest request = QuickRequest();
  request.algorithm = "influence";
  request.csv_data = TwoBlockCsv();
  request.options = {};
  JobSnapshot done = AwaitDone(manager, manager.Submit(request).value());
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();
  EXPECT_EQ(done.train_rows, 4800u);
  EXPECT_EQ(done.estimate.num_threads_used, 2u);
}

/// At two threads the transformer's fan-out is hits 1 and 2 of the pool's
/// failpoint, and influence's first pass is hits 3 and 4: a fault on hit 3
/// loses a task of influence itself.
TEST(JobApiTest, PoolFaultInInfluenceFanOutFailsTheJob) {
  ScopedDefaultThreads threads(2);
  telemetry::SetHealthy();
  failpoint::ResetStats();
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker fault)#3x1")
          .ok());
  JobApiOptions options;
  options.num_workers = 1;
  JobManager manager(options);
  JobRequest request = QuickRequest();
  request.algorithm = "influence";
  request.csv_data = TwoBlockCsv();
  request.options = {};
  JobSnapshot failed = AwaitDone(manager, manager.Submit(request).value());
  uint64_t fires = 0;
  for (const failpoint::PointStats& point : failpoint::Stats()) {
    if (point.name == "threadpool.task") fires = point.fires;
  }
  failpoint::DisarmAll();

  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_EQ(failed.error.code(), StatusCode::kUnavailable);
  EXPECT_NE(failed.error.message().find("worker fault"), std::string::npos);
  EXPECT_TRUE(failed.estimate.values.empty());
  EXPECT_FALSE(telemetry::IsHealthy());
  telemetry::SetHealthy();
}

/// The pool's failpoint models a lost fan-out task, so it never fires on the
/// manager's own job task: a fault on the first hit ends the job `error`
/// instead of leaving it `queued`, and frees its queue slot.
TEST(JobApiTest, PoolFaultOnTheFirstHitEndsTheJobAndFreesItsSlot) {
  telemetry::SetHealthy();
  failpoint::ResetStats();
  ASSERT_TRUE(
      failpoint::Arm("threadpool.task=error(unavailable:worker fault)#1x1")
          .ok());
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 1;
  JobManager manager(options);
  JobRequest request = QuickRequest();
  request.csv_data = FanOutCsv();
  request.options = {{"k", "3"}, {"num_threads", "4"}};
  JobSnapshot failed = AwaitDone(manager, manager.Submit(request).value());
  failpoint::DisarmAll();
  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_NE(failed.error.message().find("worker fault"), std::string::npos);
  EXPECT_FALSE(telemetry::IsHealthy());

  // The one queue slot is free again, and the next job runs to done.
  Result<std::string> next = manager.Submit(request);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(AwaitDone(manager, *next).state, JobState::kDone);
  telemetry::SetHealthy();
}

/// A registry algorithm whose Run throws, as a std::bad_alloc deep in a job
/// would.
class ThrowingAlgorithm : public AlgorithmInstance {
 public:
  ThrowingAlgorithm() : AlgorithmInstance("test_throwing", "always throws") {}
  Result<ImportanceEstimate> Run(const RunInput&) const override {
    throw std::runtime_error("out of luck");
  }
};

/// Registers test_throwing once, for whichever test asks first.
bool ThrowingAlgorithmRegistered() {
  static const bool registered =
      AlgorithmRegistry::Global()
          .Register([]() { return std::make_unique<ThrowingAlgorithm>(); })
          .ok();
  return registered;
}

TEST(JobApiTest, ThrowingJobEndsInErrorNamingTheException) {
  ASSERT_TRUE(ThrowingAlgorithmRegistered());
  telemetry::SetHealthy();
  JobManager manager;
  JobRequest request = QuickRequest();
  request.algorithm = "test_throwing";
  request.options.clear();
  JobSnapshot failed = AwaitDone(manager, manager.Submit(request).value());
  EXPECT_EQ(failed.state, JobState::kError);
  EXPECT_EQ(failed.error.code(), StatusCode::kInternal);
  EXPECT_NE(failed.error.message().find("out of luck"), std::string::npos)
      << failed.error.ToString();
  EXPECT_FALSE(telemetry::IsHealthy());

  // The worker survives the throw: a clean job still runs to done.
  EXPECT_EQ(AwaitDone(manager, manager.Submit(QuickRequest()).value()).state,
            JobState::kDone);
  EXPECT_TRUE(telemetry::IsHealthy());
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::string contents;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return contents;
}

TEST(JobApiTest, ThrowingJobStillWritesItsArtifacts) {
  ASSERT_TRUE(ThrowingAlgorithmRegistered());
  JobApiOptions options;
  options.artifact_dir = ::testing::TempDir() + "nde_thrown_job_artifacts";
  JobManager manager(options);
  JobRequest request = QuickRequest();
  request.algorithm = "test_throwing";
  request.options.clear();
  JobSnapshot failed = AwaitDone(manager, manager.Submit(request).value());
  ASSERT_EQ(failed.state, JobState::kError);
  EXPECT_EQ(failed.error.ToString(),
            "internal: job " + failed.id + " failed: out of luck");

  std::string path = options.artifact_dir + "/" + failed.id + ".json";
  EXPECT_EQ(failed.artifact_path, path);
  Result<json::Value> report = json::Parse(ReadFileOrEmpty(path));
  ASSERT_TRUE(report.ok()) << path << ": " << report.status().ToString();
  const json::Value* error = report->Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->Find("code")->as_string(),
            StatusCodeToString(StatusCode::kInternal));
  EXPECT_EQ(error->Find("message")->as_string(),
            "job " + failed.id + " failed: out of luck");
  std::string events_path = options.artifact_dir + "/" + failed.id +
                            ".events.json";
  EXPECT_TRUE(json::Parse(ReadFileOrEmpty(events_path)).ok()) << events_path;
  std::remove(path.c_str());
  std::remove(events_path.c_str());
}

TEST(JobApiTest, WritesRunReportArtifact) {
  JobApiOptions options;
  options.artifact_dir = ::testing::TempDir() + "nde_job_artifacts";
  JobManager manager(options);
  std::string id = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone);
  ASSERT_FALSE(done.artifact_path.empty());

  std::string contents = ReadFileOrEmpty(done.artifact_path);
  EXPECT_TRUE(json::Parse(contents).ok()) << done.artifact_path;
  EXPECT_NE(contents.find("knn_shapley"), std::string::npos);
}

// --- HTTP face ---------------------------------------------------------------

std::string StatusLine(const std::string& response) {
  return response.substr(0, response.find("\r\n"));
}

std::string Body(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

telemetry::HttpRequest Request(const std::string& method,
                               const std::string& target,
                               const std::string& body = "") {
  telemetry::HttpRequest request;
  request.method = method;
  request.target = target;
  // Mirror the wire parser: the query string arrives split off the target.
  size_t query = request.target.find('?');
  if (query != std::string::npos) {
    request.query = request.target.substr(query + 1);
    request.target.resize(query);
  }
  request.body = body;
  return request;
}

TEST(JobApiHttpTest, AlgorithmzServesTheCatalog) {
  JobManager manager;
  std::string response = manager.HandleHttp(Request("GET", "/algorithmz"));
  EXPECT_NE(StatusLine(response).find("200"), std::string::npos);
  std::string body = Body(response);
  EXPECT_TRUE(json::Parse(body).ok());
  EXPECT_NE(body.find("\"tmc_shapley\""), std::string::npos);
  EXPECT_NE(body.find("\"num_permutations\""), std::string::npos);

  std::string post = manager.HandleHttp(Request("POST", "/algorithmz"));
  EXPECT_NE(StatusLine(post).find("405"), std::string::npos);
}

TEST(JobApiHttpTest, PostPollFetchLifecycle) {
  JobManager manager;
  std::string body =
      "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv\":";
  // JSON-encode the CSV payload.
  std::string csv;
  for (char c : std::string(kCsv)) {
    if (c == '\n') {
      csv += "\\n";
    } else {
      csv += c;
    }
  }
  body += "\"" + csv + "\",\"options\":{\"k\":3}}";

  std::string response = manager.HandleHttp(Request("POST", "/jobs", body));
  ASSERT_NE(StatusLine(response).find("202"), std::string::npos) << response;
  json::Value accepted = json::Parse(Body(response)).value();
  const json::Value* id = accepted.Find("id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(accepted.Find("state")->as_string(), "queued");

  // Poll over HTTP until done.
  std::string job_path = "/jobs/" + id->as_string();
  json::Value snapshot = json::Value::Null();
  for (int i = 0; i < 2000; ++i) {
    std::string poll = manager.HandleHttp(Request("GET", job_path));
    ASSERT_NE(StatusLine(poll).find("200"), std::string::npos);
    snapshot = json::Parse(Body(poll)).value();
    const std::string& state = snapshot.Find("state")->as_string();
    if (state != "queued" && state != "running") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(snapshot.Find("state")->as_string(), "done");
  const json::Value* result = snapshot.Find("result");
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->Find("values")->items().size(), 16u);
  EXPECT_EQ(result->Find("ranked_rows")->items().size(), 16u);
  EXPECT_EQ(result->Find("train_rows")->as_number(), 16.0);

  // The job list mentions it; summaries omit the result payload.
  std::string list = manager.HandleHttp(Request("GET", "/jobs"));
  EXPECT_NE(Body(list).find(id->as_string()), std::string::npos);
  EXPECT_EQ(Body(list).find("\"values\""), std::string::npos);
}

TEST(JobApiHttpTest, BadRequestsGetStructuredErrors) {
  JobManager manager;

  std::string malformed = manager.HandleHttp(Request("POST", "/jobs", "{"));
  EXPECT_NE(StatusLine(malformed).find("400"), std::string::npos);
  EXPECT_NE(Body(malformed).find("\"error\""), std::string::npos);

  std::string unknown_field = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"loo\",\"label\":\"y\",\"csv\":\"x\",\"oops\":1}"));
  EXPECT_NE(StatusLine(unknown_field).find("400"), std::string::npos);

  std::string unknown_algorithm = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"nope\",\"label\":\"y\",\"csv\":\"a,y\\n1,0\\n\"}"));
  EXPECT_NE(StatusLine(unknown_algorithm).find("404"), std::string::npos);
  EXPECT_NE(Body(unknown_algorithm).find("not_found"), std::string::npos);

  std::string missing_job = manager.HandleHttp(Request("GET", "/jobs/job-9"));
  EXPECT_NE(StatusLine(missing_job).find("404"), std::string::npos);

  // A retired fast-path switch is an unknown option, named in the 404.
  std::string retired = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"tmc_shapley\",\"label\":\"y\","
      "\"csv\":\"a,y\\n1,0\\n\",\"options\":{\"soa_kernels\":false}}"));
  EXPECT_NE(StatusLine(retired).find("404"), std::string::npos);
  EXPECT_NE(Body(retired).find("no option 'soa_kernels'"), std::string::npos)
      << Body(retired);
  // So is the retired retry policy.
  std::string retry = manager.HandleHttp(Request(
      "POST", "/jobs",
      "{\"algorithm\":\"tmc_shapley\",\"label\":\"y\","
      "\"csv\":\"a,y\\n1,0\\n\",\"options\":{\"max_retries\":1}}"));
  EXPECT_NE(StatusLine(retry).find("404"), std::string::npos);
  EXPECT_NE(Body(retry).find("no option 'max_retries'"), std::string::npos)
      << Body(retry);

  std::string bad_method = manager.HandleHttp(Request("PUT", "/jobs"));
  EXPECT_NE(StatusLine(bad_method).find("405"), std::string::npos);
}

TEST(JobApiHttpTest, FullQueueAnswers429) {
  EnsureBlockingRegistered();
  JobApiOptions options;
  options.num_workers = 1;
  options.max_queued = 1;
  JobManager manager(options);

  std::string running = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 && manager.Get(running).value().state !=
                                  JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  manager.Submit(BlockingRequest()).value();

  std::string body =
      "{\"algorithm\":\"test_blocking\",\"label\":\"label\",\"csv\":\"a\"}";
  std::string refused = manager.HandleHttp(Request("POST", "/jobs", body));
  EXPECT_NE(StatusLine(refused).find("429"), std::string::npos) << refused;
  EXPECT_NE(Body(refused).find("resource_exhausted"), std::string::npos);
}

TEST(JobApiHttpTest, DeleteCancelsARunningJob) {
  EnsureBlockingRegistered();
  JobManager manager;
  std::string id = manager.Submit(BlockingRequest()).value();
  for (int i = 0; i < 2000 &&
                  manager.Get(id).value().state != JobState::kRunning;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  std::string response = manager.HandleHttp(Request("DELETE", "/jobs/" + id));
  EXPECT_NE(StatusLine(response).find("200"), std::string::npos);

  JobSnapshot stopped = AwaitDone(manager, id);
  EXPECT_EQ(stopped.state, JobState::kCancelled);
  std::string poll = manager.HandleHttp(Request("GET", "/jobs/" + id));
  EXPECT_NE(Body(poll).find("\"cancelled\""), std::string::npos);
}

// --- Trace-context round-trip ------------------------------------------------

std::string ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return "";
  std::string contents;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    contents.append(buffer, n);
  }
  std::fclose(f);
  return contents;
}

TEST(JobApiHttpTest, ExternalTraceparentRoundTripsThroughEveryJobView) {
  telemetry::SetEnabled(true);
  telemetry::TraceBuffer::Global().Clear();
  JobApiOptions options;
  options.artifact_dir = ::testing::TempDir() + "nde_trace_artifacts";
  JobManager manager(options);
  telemetry::HttpExporter exporter;
  exporter.SetHandler([&manager](const telemetry::HttpRequest& request) {
    return manager.HandleHttp(request);
  });

  std::string csv;
  for (char c : std::string(kCsv)) {
    csv += c == '\n' ? std::string("\\n") : std::string(1, c);
  }
  std::string body =
      "{\"algorithm\":\"knn_shapley\",\"label\":\"label\",\"csv\":\"" + csv +
      "\",\"options\":{\"k\":3}}";

  // Submit through the Dispatch ingress with an externally minted traceparent.
  const std::string kTraceId = "4bf92f3577b34da6a3ce929d0e0e4736";
  telemetry::HttpRequest post = Request("POST", "/jobs", body);
  post.traceparent = "00-" + kTraceId + "-00f067aa0ba902b7-01";
  std::string response = exporter.Dispatch(post);
  ASSERT_NE(StatusLine(response).find("202"), std::string::npos) << response;
  std::string id = json::Parse(Body(response)).value().Find("id")->as_string();

  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();
  EXPECT_EQ(TraceIdHex(done.trace), kTraceId);

  // The external id propagated verbatim into the poll JSON...
  std::string poll = Body(manager.HandleHttp(Request("GET", "/jobs/" + id)));
  EXPECT_NE(poll.find("\"trace_id\":\"" + kTraceId + "\""), std::string::npos)
      << poll;

  // ...the span view (estimator/pool spans recorded under the job's trace,
  // with parent linkage fields)...
  std::string tracez =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/tracez"));
  EXPECT_NE(StatusLine(tracez).find("200"), std::string::npos);
  std::string tracez_body = Body(tracez);
  EXPECT_TRUE(json::Parse(tracez_body).ok()) << tracez_body;
  EXPECT_NE(tracez_body.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << tracez_body;
#if NDE_TELEMETRY_ENABLED
  // Span macros compile out with NDE_TELEMETRY=OFF; the view itself (and
  // the trace id on it) must work either way.
  EXPECT_NE(tracez_body.find("\"spans\":[{"), std::string::npos)
      << "job left no spans in the trace buffer: " << tracez_body;
  EXPECT_NE(tracez_body.find("\"parent_span_id\""), std::string::npos);
#endif

  // ...the folded flamegraph view...
  std::string folded = manager.HandleHttp(
      Request("GET", "/jobs/" + id + "/tracez?folded=1"));
  EXPECT_NE(StatusLine(folded).find("200"), std::string::npos);
  EXPECT_NE(folded.find("text/plain"), std::string::npos);

  // ...the wave timeline...
  std::string eventz =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/eventz"));
  EXPECT_NE(StatusLine(eventz).find("200"), std::string::npos);
  std::string eventz_body = Body(eventz);
  EXPECT_TRUE(json::Parse(eventz_body).ok()) << eventz_body;
  EXPECT_NE(eventz_body.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << eventz_body;
  EXPECT_NE(eventz_body.find("\"waves\":[{\"wave\":1,"), std::string::npos)
      << eventz_body;

  // ...the RunReport artifact and its sibling events file on disk.
  ASSERT_FALSE(done.artifact_path.empty());
  std::string report = ReadWholeFile(done.artifact_path);
  EXPECT_NE(report.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos)
      << done.artifact_path;
  std::string events_file =
      ReadWholeFile(options.artifact_dir + "/" + id + ".events.json");
  EXPECT_TRUE(json::Parse(events_file).ok()) << events_file;
  EXPECT_NE(events_file.find("\"trace_id\":\"" + kTraceId + "\""),
            std::string::npos);

  // Unknown views 404 without disturbing the job.
  std::string unknown =
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/nope"));
  EXPECT_NE(StatusLine(unknown).find("404"), std::string::npos);

  telemetry::SetEnabled(false);
  telemetry::TraceBuffer::Global().Clear();
}

TEST(JobApiHttpTest, FoldedViewIsWellFormedAndIsTheServersWholeProfile) {
  telemetry::SetEnabled(true);
  telemetry::TraceBuffer::Global().Clear();
  JobManager manager;
  JobRequest request;
  request.algorithm = "tmc_shapley";
  request.label = "label";
  // A column name holding both folded-stack delimiters.
  request.csv_data = "a;ge x,b,label\n";
  for (int i = 0; i < 40; ++i) {
    request.csv_data += StrFormat("%d,%d,%d\n", 20 + i % 17, i % 5, i % 2);
  }
  request.options = {{"num_permutations", "8"}};
  std::string id = manager.Submit(request).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();

  std::string folded = Body(
      manager.HandleHttp(Request("GET", "/jobs/" + id + "/tracez?folded=1")));
  const std::regex kFoldedLine("^[^ ;]+(;[^ ;]+)* [0-9]+$");
  std::istringstream lines(folded);
  for (std::string line; std::getline(lines, line);) {
    EXPECT_TRUE(std::regex_match(line, kFoldedLine)) << line;
  }
  // The buffer was cleared first, so the job's spans are all it holds: the
  // server-wide profile is byte for byte the job's.
  EXPECT_EQ(Body(telemetry::HttpExporter::HandleRequest(
                "GET /profilez?folded=1 HTTP/1.1")),
            folded);
#if NDE_TELEMETRY_ENABLED
  // Parsing, dataset extraction and ranking are roots of their own stacks.
  for (const char* root : {"csv.parse ", "ToDataset ", "rank "}) {
    EXPECT_NE(("\n" + folded).find(std::string("\n") + root),
              std::string::npos)
        << root << "\n" << folded;
  }
  EXPECT_NE(folded.find("(a_ge_x)"), std::string::npos) << folded;
#endif
  telemetry::SetEnabled(false);
  telemetry::TraceBuffer::Global().Clear();
}

TEST(JobApiHttpTest, NonFiniteResultValuesAnswerNull) {
  // One inf cell makes every aum value non-finite. The result body must
  // still be JSON, with each of those values null.
  JobManager manager;
  std::string body =
      "{\"algorithm\":\"aum\",\"label\":\"label\",\"csv\":\"x,label\\n"
      "1,0\\ninf,1\\n2,0\\n3,1\\n4,0\\n5,1\\n"
      "6,0\\n7,1\\n8,0\\n9,1\\n10,0\\n\"}";
  std::string posted = manager.HandleHttp(Request("POST", "/jobs", body));
  ASSERT_NE(StatusLine(posted).find("202"), std::string::npos) << posted;
  std::string id = json::Parse(Body(posted)).value().Find("id")->as_string();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();

  std::string result = Body(manager.HandleHttp(Request("GET", "/jobs/" + id)));
  Result<json::Value> parsed = json::Parse(result);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << result;
  const json::Value* values = parsed.value().Find("result")->Find("values");
  ASSERT_NE(values, nullptr) << result;
  ASSERT_FALSE(values->items().empty()) << result;
  for (const json::Value& value : values->items()) {
    EXPECT_TRUE(value.is_null()) << result;
  }
}

TEST(JobApiHttpTest, NonUtf8ColumnNamesStayValidUtf8InTraces) {
  // A Latin-1 header byte (0xE9) reaches span names such as
  // "fit numeric(sc\xe9re)". json::Parse does not validate UTF-8, so the
  // check is on the bytes: the writer must spell the byte as \ufffd.
  telemetry::SetEnabled(true);
  telemetry::TraceBuffer::Global().Clear();
  JobManager manager;
  JobRequest request = QuickRequest();
  request.csv_data = "x,sc\xe9re,label\n";
  for (int i = 0; i < 11; ++i) {
    request.csv_data += StrFormat("%d,%d,%d\n", i, (i * 7) % 5, i % 2);
  }
  std::string id = manager.Submit(request).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone) << done.error.ToString();

  std::string tracez =
      Body(manager.HandleHttp(Request("GET", "/jobs/" + id + "/tracez")));
  EXPECT_TRUE(json::Parse(tracez).ok()) << tracez;
  EXPECT_EQ(tracez.find('\xe9'), std::string::npos) << tracez;
  std::string chrome = telemetry::TraceBuffer::Global().ToChromeJson();
  EXPECT_EQ(chrome.find('\xe9'), std::string::npos);
#if NDE_TELEMETRY_ENABLED
  EXPECT_NE(tracez.find("sc\\ufffdre"), std::string::npos) << tracez;
#endif
  telemetry::SetEnabled(false);
  telemetry::TraceBuffer::Global().Clear();
}

TEST(JobApiTest, JobsWithoutIngressContextMintTheirOwnTrace) {
  JobManager manager;
  std::string id = manager.Submit(QuickRequest()).value();
  JobSnapshot done = AwaitDone(manager, id);
  ASSERT_EQ(done.state, JobState::kDone);
  // Even without a caller-supplied traceparent every job owns a nonzero
  // trace id, so logs/metrics attribution never silently degrades.
  EXPECT_TRUE(done.trace.has_trace());
  EXPECT_EQ(done.trace.job_id, id);
  EXPECT_EQ(done.trace.algorithm, "knn_shapley");
}

}  // namespace
}  // namespace nde
