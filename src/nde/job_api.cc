#include "nde/job_api.h"

#include <sys/stat.h>

#include <fstream>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "nde/engine.h"
#include "nde/registry.h"
#include "telemetry/health.h"
#include "telemetry/run_report.h"
#include "telemetry/trace.h"

namespace nde {

const char* JobStateName(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kError:
      return "error";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

using telemetry::HttpRequest;
using telemetry::MakeHttpResponse;

/// Appends {"code":...,"message":...} for a failed status.
void WriteError(json::Writer& json, const Status& status) {
  json.BeginObject().Key("code").String(StatusCodeToString(status.code()))
      .Key("message").String(status.message()).EndObject();
}

/// Maps a submit/parse failure to its HTTP status and {"error":{...}} body.
std::string ErrorResponse(const Status& status) {
  json::Writer json;
  WriteError(json.BeginObject().Key("error"), status);
  std::string body = json.EndObject().Take() + "\n";
  if (status.code() == StatusCode::kResourceExhausted) {
    return MakeHttpResponse(429, "Too Many Requests", "application/json", body);
  }
  if (status.code() == StatusCode::kNotFound) {
    return MakeHttpResponse(404, "Not Found", "application/json", body);
  }
  return MakeHttpResponse(400, "Bad Request", "application/json", body);
}

std::string MethodNotAllowed(const std::string& allowed) {
  return MakeHttpResponse(405, "Method Not Allowed", "text/plain",
                          "method not allowed; use " + allowed + "\n");
}

Result<JobRequest> ParseJobRequest(const std::string& body) {
  NDE_ASSIGN_OR_RETURN(json::Value doc, json::Parse(body));
  if (!doc.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  JobRequest request;
  for (const auto& [key, value] : doc.members()) {
    if (key == "algorithm" || key == "label" || key == "csv" ||
        key == "csv_path") {
      if (!value.is_string()) {
        return Status::InvalidArgument("field \"" + key +
                                       "\" must be a string");
      }
      if (key == "algorithm") request.algorithm = value.as_string();
      if (key == "label") request.label = value.as_string();
      if (key == "csv") request.csv_data = value.as_string();
      if (key == "csv_path") request.csv_path = value.as_string();
      continue;
    }
    if (key == "options") {
      if (!value.is_object()) {
        return Status::InvalidArgument("field \"options\" must be an object");
      }
      for (const auto& [option, option_value] : value.members()) {
        if (option_value.is_string()) {
          request.options[option] = option_value.as_string();
        } else if (option_value.is_number() || option_value.is_bool()) {
          // Keep the exact source spelling ("1e-3", "true") so configuring
          // from JSON equals configuring from the same string on the CLI.
          request.options[option] = option_value.raw();
        } else {
          return Status::InvalidArgument(
              "option \"" + option +
              "\" must be a string, number, or boolean");
        }
      }
      continue;
    }
    return Status::InvalidArgument(
        "unknown field \"" + key +
        "\" (expected algorithm, label, csv, csv_path, options)");
  }
  return request;
}

/// Appends one job's JSON object; `summary_only` leaves out the result.
void WriteSnapshot(json::Writer& json, const JobSnapshot& snapshot,
                   bool summary_only) {
  json.BeginObject().Key("id").String(snapshot.id)
      .Key("algorithm").String(snapshot.algorithm)
      .Key("state").String(JobStateName(snapshot.state))
      .Key("progress").BeginObject()
      .Key("completed").Uint(snapshot.progress_completed)
      .Key("total").Uint(snapshot.progress_total).EndObject();
  if (!summary_only && snapshot.state == JobState::kDone) {
    json.Key("result").BeginObject().Key("values").BeginArray();
    for (double value : snapshot.estimate.values) json.Double(value);
    json.EndArray().Key("std_errors").BeginArray();
    for (double value : snapshot.estimate.std_errors) json.Double(value);
    json.EndArray().Key("ranked_rows").BeginArray();
    for (uint32_t row : snapshot.ranked_rows) json.Uint(row);
    json.EndArray()
        .Key("utility_evaluations").Uint(snapshot.estimate.utility_evaluations)
        .Key("num_threads_used").Uint(snapshot.estimate.num_threads_used)
        .Key("train_rows").Uint(snapshot.train_rows)
        .Key("valid_rows").Uint(snapshot.valid_rows).EndObject();
  }
  if (!snapshot.error.ok()) WriteError(json.Key("error"), snapshot.error);
  if (!snapshot.artifact_path.empty()) {
    json.Key("artifact").String(snapshot.artifact_path);
  }
  json.Key("trace_id").String(TraceIdHex(snapshot.trace)).EndObject();
}

/// GET /jobs/<id>/eventz body (also the `<id>.events.json` artifact): the
/// job's wave-boundary timeline.
std::string EventsJson(const JobSnapshot& snapshot) {
  json::Writer json;
  json.BeginObject().Key("job_id").String(snapshot.id)
      .Key("algorithm").String(snapshot.algorithm)
      .Key("trace_id").String(TraceIdHex(snapshot.trace))
      .Key("waves").BeginArray();
  for (const JobWaveEvent& event : snapshot.events) {
    json.BeginObject().Key("wave").Uint(event.wave)
        .Key("phase").String(event.phase)
        .Key("ts_us").Int(event.ts_us).Key("dur_us").Int(event.dur_us)
        .Key("completed").Uint(event.completed).Key("total").Uint(event.total)
        .Key("utility_evaluations").Uint(event.utility_evaluations)
        .Key("max_std_error").Double(event.max_std_error).EndObject();
  }
  return json.EndArray().EndObject().Take() + "\n";
}

/// GET /jobs/<id>/tracez body: the spans of the job's trace, in /tracez's
/// span form, with parent linkage so clients can rebuild the span tree.
std::string JobTracezJson(const JobSnapshot& snapshot) {
  json::Writer json;
  json.BeginObject().Key("job_id").String(snapshot.id)
      .Key("trace_id").String(TraceIdHex(snapshot.trace)).Key("spans");
  telemetry::WriteSpans(json, telemetry::TraceBuffer::Global().TraceSpans(
                                  snapshot.trace.trace_id_hi,
                                  snapshot.trace.trace_id_lo));
  return json.EndObject().Take() + "\n";
}

}  // namespace

struct JobManager::Job {
  std::string id;
  JobRequest request;
  /// Trace attribution, fixed at submit time (adopted from the submitter's
  /// ambient context or freshly minted) and immutable afterwards.
  TraceContext trace;
  std::atomic<bool> cancel{false};
  std::atomic<size_t> progress_completed{0};
  std::atomic<size_t> progress_total{0};
  // Everything below is guarded by the owning manager's mu_.
  JobState state = JobState::kQueued;
  ImportanceEstimate estimate;
  std::vector<uint32_t> ranked_rows;
  size_t train_rows = 0;
  size_t valid_rows = 0;
  Status error;
  std::string artifact_path;
  std::vector<JobWaveEvent> events;
};

JobManager::JobManager(JobApiOptions options) : options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  if (!options_.artifact_dir.empty()) {
    // Best-effort: an unwritable directory surfaces later as a per-job
    // artifact write failure, not a construction failure.
    ::mkdir(options_.artifact_dir.c_str(), 0755);
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
}

JobManager::~JobManager() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, job] : jobs_) {
      job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  pool_.reset();  // drains: queued jobs run (and see their cancel flag)
}

Result<std::string> JobManager::Submit(const JobRequest& request) {
  if (request.algorithm.empty()) {
    return Status::InvalidArgument("\"algorithm\" is required");
  }
  if (request.label.empty()) {
    return Status::InvalidArgument("\"label\" is required");
  }
  if (request.csv_path.empty() == request.csv_data.empty()) {
    return Status::InvalidArgument(
        "exactly one of \"csv\" (inline data) or \"csv_path\" is required");
  }
  // Fail fast on an unknown algorithm or a bad option map: the client gets a
  // 400 at submit time instead of a job that dies later.
  NDE_ASSIGN_OR_RETURN(std::unique_ptr<AlgorithmInstance> probe,
                       AlgorithmRegistry::Global().Create(request.algorithm));
  NDE_RETURN_IF_ERROR(probe->ConfigureAll(request.options));

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (pending_ >= options_.max_queued) {
      return Status::ResourceExhausted(
          StrFormat("job queue is full (%zu pending); retry later",
                    pending_));
    }
    job = std::make_shared<Job>();
    job->id = StrFormat("job-%zu", next_id_++);
    job->request = request;
    // Adopt the submitter's trace (the one HTTP ingress installed from the
    // request's traceparent) so the caller's id follows the job; mint one
    // for contextless submitters (tests, embedded use). Either way the job
    // id and algorithm ride along for log/metric attribution.
    job->trace = CurrentTraceContext().has_trace() ? CurrentTraceContext()
                                                   : MintTraceContext();
    job->trace.job_id = job->id;
    job->trace.algorithm = request.algorithm;
    jobs_[job->id] = job;
    order_.push_back(job->id);
    ++pending_;
  }
  pool_->Submit([this, job] { Execute(job); });
  return job->id;
}

void JobManager::Execute(const std::shared_ptr<Job>& job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --pending_;
    if (job->cancel.load(std::memory_order_relaxed)) {
      job->state = JobState::kCancelled;
      job->error = Status::Cancelled("job cancelled before it started");
      return;
    }
    job->state = JobState::kRunning;
  }
  Status status;
  try {
    status = RunJob(job.get());
  } catch (...) {
    // RunJob converts what its job's code throws; this is the last resort,
    // caught here rather than by the pool's latch so the job still ends
    // `error` and /healthz turns degraded.
    status = CurrentExceptionStatus("job " + job->id);
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (status.ok()) {
    job->state = JobState::kDone;
    // A healthy job run clears a degraded /healthz left by an earlier
    // failure, mirroring the CLI's lifecycle (one process, latest outcome).
    telemetry::SetHealthy();
  } else if (status.code() == StatusCode::kCancelled) {
    job->state = JobState::kCancelled;
    job->error = status;
  } else {
    job->state = JobState::kError;
    job->error = status;
    telemetry::SetDegraded(status.ToString());
  }
}

Status JobManager::RunJob(Job* job) {
  // The job's whole execution — estimator waves, pool fan-out, logging —
  // runs under its trace context: spans parent into this trace, NDE_LOG
  // records carry trace_id/job_id, and labeled metrics resolve the job's
  // labels from here.
  ScopedTraceContext trace_scope{TraceContext(job->trace)};
  NDE_LOG(INFO) << "job " << job->id << " started: algorithm="
                << job->request.algorithm;
  telemetry::RunReport report("job:" + job->request.algorithm);
  report.SetConfig("job_id", job->id);
  report.SetConfig("algorithm", job->request.algorithm);
  if (job->trace.has_trace()) {
    report.SetConfig("trace_id", TraceIdHex(job->trace));
  }
  report.SetConfig("label", job->request.label);
  if (!job->request.csv_path.empty()) {
    report.SetConfig("csv_path", job->request.csv_path);
  }
  for (const auto& [option, value] : job->request.options) {
    report.SetConfig("option." + option, value);
  }

  auto run_job = [&]() -> Status {
    Result<Table> table = job->request.csv_path.empty()
                              ? ReadCsvString(job->request.csv_data)
                              : ReadCsvFile(job->request.csv_path);
    NDE_RETURN_IF_ERROR(table.status());
    NDE_ASSIGN_OR_RETURN(
        std::unique_ptr<AlgorithmInstance> algorithm,
        AlgorithmRegistry::Global().Create(job->request.algorithm));
    NDE_RETURN_IF_ERROR(algorithm->ConfigureAll(job->request.options));
    algorithm->SetCancelFlag(&job->cancel);
    telemetry::RunReport* report_ptr = &report;
    int64_t job_start_us = telemetry::NowMicros();
    algorithm->SetProgress([this, job, report_ptr,
                            job_start_us](const ProgressUpdate& update) {
      job->progress_completed.store(update.completed,
                                    std::memory_order_relaxed);
      job->progress_total.store(update.total, std::memory_order_relaxed);
      report_ptr->RecordProgress(update);
      // Wave timeline for /jobs/<id>/eventz. Callbacks fire on the job's
      // coordinating thread at wave boundaries, so appending under mu_ is
      // uncontended and purely observational (determinism contract intact).
      JobWaveEvent event;
      event.ts_us = telemetry::NowMicros();
      event.phase = update.phase;
      event.completed = update.completed;
      event.total = update.total;
      event.utility_evaluations = update.utility_evaluations;
      event.max_std_error = update.max_std_error;
      std::lock_guard<std::mutex> lock(mu_);
      event.wave = job->events.size() + 1;
      event.dur_us = event.ts_us - (job->events.empty()
                                        ? job_start_us
                                        : job->events.back().ts_us);
      job->events.push_back(std::move(event));
    });
    NDE_ASSIGN_OR_RETURN(
        TableRunResult result,
        RunAlgorithmOnTable(*algorithm, std::move(*table),
                            job->request.label));
    if (result.estimate.aborted_early) {
      // Same contract as the CLI's exit 3: a partial estimate is not
      // published as a result; the abort cause is the job's outcome.
      return result.estimate.abort_cause;
    }
    std::lock_guard<std::mutex> lock(mu_);
    job->estimate = std::move(result.estimate);
    job->ranked_rows = std::move(result.ranked_rows);
    job->train_rows = result.train_rows;
    job->valid_rows = result.valid_rows;
    return Status::OK();
  };
  Status status;
  try {
    status = run_job();
  } catch (...) {
    // Converted here, not in Execute, so a job whose code throws still
    // writes its RunReport and events with the exception as its error.
    status = CurrentExceptionStatus("job " + job->id);
  }

  if (!status.ok()) report.SetError(status, 3);
  if (!options_.artifact_dir.empty()) {
    std::string path = options_.artifact_dir + "/" + job->id + ".json";
    report.Finish();
    Status written = report.WriteFile(path);
    if (written.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      job->artifact_path = path;
    }
    // Persist the wave timeline next to the RunReport so a job's eventz view
    // survives the process (best-effort, like the report itself).
    Result<JobSnapshot> snapshot = Get(job->id);
    if (snapshot.ok()) {
      std::ofstream events_out(options_.artifact_dir + "/" + job->id +
                               ".events.json");
      if (events_out) events_out << EventsJson(*snapshot);
    }
  }
  return status;
}

Result<JobSnapshot> JobManager::Get(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id '" + id + "'");
  }
  const Job& job = *it->second;
  JobSnapshot snapshot;
  snapshot.id = job.id;
  snapshot.algorithm = job.request.algorithm;
  snapshot.state = job.state;
  snapshot.progress_completed =
      job.progress_completed.load(std::memory_order_relaxed);
  snapshot.progress_total = job.progress_total.load(std::memory_order_relaxed);
  snapshot.estimate = job.estimate;
  snapshot.ranked_rows = job.ranked_rows;
  snapshot.train_rows = job.train_rows;
  snapshot.valid_rows = job.valid_rows;
  snapshot.error = job.error;
  snapshot.artifact_path = job.artifact_path;
  snapshot.trace = job.trace;
  snapshot.events = job.events;
  return snapshot;
}

std::vector<JobSnapshot> JobManager::List() const {
  std::vector<std::string> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids = order_;
  }
  std::vector<JobSnapshot> snapshots;
  snapshots.reserve(ids.size());
  for (const std::string& id : ids) {
    Result<JobSnapshot> snapshot = Get(id);
    if (snapshot.ok()) snapshots.push_back(*std::move(snapshot));
  }
  return snapshots;
}

Status JobManager::Cancel(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    return Status::NotFound("no job with id '" + id + "'");
  }
  it->second->cancel.store(true, std::memory_order_relaxed);
  return Status::OK();
}

std::string JobManager::HandleHttp(const HttpRequest& request) {
  if (request.target == "/algorithmz") {
    if (request.method != "GET") return MethodNotAllowed("GET");
    return MakeHttpResponse(200, "OK", "application/json",
                            AlgorithmRegistry::Global().DescribeJson() + "\n");
  }
  if (request.target == "/jobs") {
    if (request.method == "POST") {
      Result<JobRequest> parsed = ParseJobRequest(request.body);
      if (!parsed.ok()) return ErrorResponse(parsed.status());
      Result<std::string> id = Submit(*parsed);
      if (!id.ok()) return ErrorResponse(id.status());
      json::Writer json;
      json.BeginObject().Key("id").String(*id).Key("state").String("queued");
      return MakeHttpResponse(202, "Accepted", "application/json",
                              json.EndObject().Take() + "\n");
    }
    if (request.method == "GET") {
      json::Writer json;
      json.BeginObject().Key("jobs").BeginArray();
      for (const JobSnapshot& snapshot : List()) {
        WriteSnapshot(json, snapshot, /*summary_only=*/true);
      }
      return MakeHttpResponse(200, "OK", "application/json",
                              json.EndArray().EndObject().Take() + "\n");
    }
    return MethodNotAllowed("GET or POST");
  }
  if (StartsWith(request.target, "/jobs/")) {
    std::string id = request.target.substr(6);
    std::string view;
    size_t slash = id.find('/');
    if (slash != std::string::npos) {
      view = id.substr(slash + 1);
      id.resize(slash);
    }
    if (!view.empty()) {
      if (request.method != "GET") return MethodNotAllowed("GET");
      Result<JobSnapshot> snapshot = Get(id);
      if (!snapshot.ok()) return ErrorResponse(snapshot.status());
      if (view == "tracez") {
        if (request.query.find("folded=1") != std::string::npos) {
          return MakeHttpResponse(
              200, "OK", "text/plain",
              telemetry::TraceBuffer::Global()
                  .Profile(snapshot->trace.trace_id_hi,
                           snapshot->trace.trace_id_lo)
                  .Folded());
        }
        return MakeHttpResponse(200, "OK", "application/json",
                                JobTracezJson(*snapshot));
      }
      if (view == "eventz") {
        return MakeHttpResponse(200, "OK", "application/json",
                                EventsJson(*snapshot));
      }
      return MakeHttpResponse(404, "Not Found", "text/plain",
                              "unknown job view; try tracez or eventz\n");
    }
    if (request.method == "GET") {
      Result<JobSnapshot> snapshot = Get(id);
      if (!snapshot.ok()) return ErrorResponse(snapshot.status());
      json::Writer json;
      WriteSnapshot(json, *snapshot, /*summary_only=*/false);
      return MakeHttpResponse(200, "OK", "application/json",
                              json.Take() + "\n");
    }
    if (request.method == "DELETE") {
      Status cancelled = Cancel(id);
      if (!cancelled.ok()) return ErrorResponse(cancelled);
      Result<JobSnapshot> snapshot = Get(id);
      if (!snapshot.ok()) return ErrorResponse(snapshot.status());
      json::Writer json;
      WriteSnapshot(json, *snapshot, /*summary_only=*/true);
      return MakeHttpResponse(200, "OK", "application/json",
                              json.Take() + "\n");
    }
    return MethodNotAllowed("GET or DELETE");
  }
  return MakeHttpResponse(404, "Not Found", "text/plain",
                          "unknown path; try /jobs /algorithmz\n");
}

}  // namespace nde
