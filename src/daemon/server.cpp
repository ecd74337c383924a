#include "src/daemon/server.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <utility>

#include "src/core/fault.h"
#include "src/core/report.h"
#include "src/scenario/generator.h"
#include "src/smt/cache_io.h"

namespace bcert::daemon {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// A request line (and hence its JSON) must fit well under this; the cap
/// keeps a stuck or hostile writer from growing the read buffer forever.
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// Write timeout: a client that cannot absorb one line within this long
/// is disconnected rather than allowed to wedge the scheduler.
constexpr int kSendTimeoutS = 5;

double seconds_between(SteadyClock::time_point from,
                       SteadyClock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::string u64_str(std::uint64_t v) { return std::to_string(v); }

std::string double_str(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The `"id"` member of a request re-encoded as a JSON fragment for the
/// `"req"` echo; empty when absent or of an unsupported type.
std::string request_id_fragment(const JsonValue& request) {
  const JsonValue* id = request.find("id");
  if (id == nullptr) return {};
  if (id->is_number()) return double_str(id->as_number());
  if (id->is_string()) {
    return "\"" + core::json_escape(id->as_string()) + "\"";
  }
  return {};
}

/// Appends `,"req":<id>` when the request carried an id.
void append_req(std::string& json, const std::string& req_id) {
  if (req_id.empty()) return;
  json += ",\"req\":";
  json += req_id;
}

}  // namespace

/// One job, from accepted request to delivered result. Owned by the
/// scheduler thread; only the progress callback (pool worker) sees any
/// of it concurrently, and that callback captures copies — never the
/// Job itself.
struct Server::Job {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> conn;  ///< submitter (events go here)
  std::uint64_t conn_id = 0;
  ScenarioSpec spec;
  std::string name;
  int priority = 0;
  double deadline_s = 0.0;
  std::uint64_t mem_quota_bytes = 0;
  bool want_progress = false;

  enum class State { kPending, kRunning, kDone };
  State state = State::kPending;

  core::JobHandle handle;
  std::optional<core::Scenario> scenario;
  SteadyClock::time_point submitted;
  SteadyClock::time_point dispatched;
  SteadyClock::time_point finished;
  std::optional<core::VerifyResult> result;
  int rr = 0;  ///< fair-share round-robin slot within the current wave
};

ServerOptions ServerOptions::from_runtime_config(
    const core::RuntimeConfig& config) {
  ServerOptions options;
  options.socket_path = config.daemon_socket;
  options.state_dir = config.state_dir;
  options.snapshot_period_s = config.snapshot_period_s;
  options.log_level = config.log_level;
  return options;
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      log_(options_.log_level, options_.log_stream),
      engine_(std::make_unique<core::Engine>(options_.engine)) {}

Server::~Server() {
  // run() normally tears everything down; this path covers a Server
  // that was started but never run (or whose start failed midway).
  io_stop_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (io_thread_.joinable()) io_thread_.join();
  for (int fd : {listen_fd_, wake_pipe_[0], wake_pipe_[1]}) {
    if (fd >= 0) ::close(fd);
  }
  if (started_) ::unlink(options_.socket_path.c_str());
}

std::string Server::snapshot_path() const {
  return options_.state_dir + "/bcertd.snapshot";
}

bool Server::start(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof addr.sun_path) {
    if (error != nullptr) *error = "socket path empty or too long";
    return false;
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof addr.sun_path - 1);

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = "socket(): " + std::string(strerror(errno));
    return false;
  }
  // The daemon owns its socket path: a leftover file from a previous
  // (crashed) instance is replaced.
  ::unlink(options_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    if (error != nullptr) {
      *error = "bind/listen " + options_.socket_path + ": " +
               std::string(strerror(errno));
    }
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (::pipe2(wake_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    if (error != nullptr) *error = "pipe2(): " + std::string(strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  if (!options_.state_dir.empty()) {
    const std::string path = snapshot_path();
    if (::access(path.c_str(), F_OK) != 0) {
      log_.info("snapshot_absent", {{"path", path}});
    } else {
      smt::WarmState state;
      std::string load_error;
      if (smt::load_snapshot(path, state, &load_error)) {
        const std::size_t tapes = state.tapes.size();
        const std::size_t trees = state.trees.size();
        const std::size_t bases = state.bases.size();
        engine_->import_warm_state(std::move(state));
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          stats_.snapshot_loaded = true;
        }
        log_.info("snapshot_loaded",
                  {{"path", path},
                   {"tapes", tapes},
                   {"trees", trees},
                   {"bases", bases}});
      } else {
        // Corrupt / truncated / version-mismatched snapshots start the
        // daemon cold, never dead.
        log_.warn("snapshot_rejected",
                  {{"path", path}, {"error", load_error}});
      }
    }
  }

  io_stop_.store(false);
  io_thread_ = std::thread([this] { io_loop(); });
  started_ = true;
  log_.info("listening", {{"socket", options_.socket_path},
                          {"state_dir", options_.state_dir.empty()
                                            ? std::string("<disabled>")
                                            : options_.state_dir},
                          {"snapshot_period_s", options_.snapshot_period_s}});
  return true;
}

// ---------------------------------------------------------------------------
// I/O thread
// ---------------------------------------------------------------------------

void Server::io_loop() {
  while (!io_stop_.load(std::memory_order_relaxed)) {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Connection>> polled;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const auto& [id, conn] : connections_) {
        fds.push_back({conn->fd, POLLIN, 0});
        polled.push_back(conn);
      }
    }
    const int rc = ::poll(fds.data(), fds.size(), 200);
    if (rc < 0 && errno != EINTR) break;
    if (io_stop_.load(std::memory_order_relaxed)) break;
    if (rc <= 0) continue;

    if ((fds[0].revents & POLLIN) != 0) {
      char sink[64];
      while (::read(wake_pipe_[0], sink, sizeof sink) > 0) {
      }
    }
    if ((fds[1].revents & (POLLIN | POLLERR)) != 0) accept_client();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const short revents = fds[i + 2].revents;
      const std::shared_ptr<Connection>& conn = polled[i];
      if (conn->closed.load(std::memory_order_relaxed)) {
        reclaim(conn);
        continue;
      }
      if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!read_from(conn)) reclaim(conn);
    }
  }
  // Shutdown: reclaim every connection so fds do not leak.
  std::vector<std::shared_ptr<Connection>> remaining;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& [id, conn] : connections_) remaining.push_back(conn);
  }
  for (const auto& conn : remaining) reclaim(conn);
}

void Server::accept_client() {
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) return;
  timeval timeout{};
  timeout.tv_sec = kSendTimeoutS;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);

  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn->id = next_conn_id_++;
    connections_[conn->id] = conn;
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.connections_opened;
  }
  log_.debug("accept", {{"conn", conn->id}});
}

bool Server::read_from(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, MSG_DONTWAIT);
    if (n > 0) {
      conn->read_buffer.append(buf, static_cast<std::size_t>(n));
      if (conn->read_buffer.size() > kMaxLineBytes) {
        log_.warn("oversized_request", {{"conn", conn->id}});
        return false;
      }
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }

  std::size_t start = 0;
  bool alive = true;
  while (alive) {
    const std::size_t nl = conn->read_buffer.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = conn->read_buffer.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    // The read half of the socket_io fault point: a firing rule behaves
    // exactly like the client's connection dying mid-request.
    if (core::FaultRegistry::trip(core::FaultPoint::kSocketIo)) {
      log_.warn("socket_fault", {{"conn", conn->id}, {"side", "read"}});
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.connections_dropped;
      }
      alive = false;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(inbox_mutex_);
      inbox_.push_back(InboundLine{conn, std::move(line)});
    }
    inbox_cv_.notify_one();
  }
  conn->read_buffer.erase(0, start);
  return alive;
}

void Server::reclaim(const std::shared_ptr<Connection>& conn) {
  {
    // The write mutex fences out in-flight send_line calls so the fd is
    // never closed (and possibly reused) under a writer.
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->closed.store(true, std::memory_order_relaxed);
    if (conn->fd >= 0) {
      ::close(conn->fd);
      conn->fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    connections_.erase(conn->id);
  }
  log_.debug("disconnect", {{"conn", conn->id}});
}

// ---------------------------------------------------------------------------
// Writes (any thread)
// ---------------------------------------------------------------------------

bool Server::send_line(const std::shared_ptr<Connection>& conn,
                       const std::string& json) {
  if (conn == nullptr) return false;
  std::lock_guard<std::mutex> lock(conn->write_mutex);
  if (conn->closed.load(std::memory_order_relaxed) || conn->fd < 0) {
    return false;
  }
  const bool faulted = core::FaultRegistry::trip(core::FaultPoint::kSocketIo);
  bool ok = !faulted;
  if (ok) {
    std::string line = json;
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(conn->fd, line.data() + sent,
                               line.size() - sent, MSG_NOSIGNAL);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      ok = false;  // timeout, EPIPE, reset, ...
      break;
    }
  }
  if (!ok) {
    // Mark closed and half-shut the socket; the I/O thread observes the
    // hangup and reclaims the fd (fds are only closed there).
    conn->closed.store(true, std::memory_order_relaxed);
    ::shutdown(conn->fd, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.connections_dropped;
    }
    log_.warn("connection_dropped",
              {{"conn", conn->id}, {"why", faulted ? "socket_fault" : "send"}});
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Scheduler: request handling
// ---------------------------------------------------------------------------

void Server::send_error(const std::shared_ptr<Connection>& conn,
                        const std::string& req_id,
                        const std::string& message) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.protocol_errors;
  }
  std::string json = "{\"type\":\"error\"";
  append_req(json, req_id);
  json += ",\"error\":\"" + core::json_escape(message) + "\"}";
  send_line(conn, json);
}

void Server::handle_line(const InboundLine& in) {
  JsonValue request;
  std::string parse_error;
  if (!JsonValue::parse(in.line, request, &parse_error)) {
    send_error(in.conn, {}, "invalid JSON: " + parse_error);
    return;
  }
  if (!request.is_object()) {
    send_error(in.conn, {}, "request must be a JSON object");
    return;
  }
  const std::string req_id = request_id_fragment(request);
  const JsonValue* cmd = request.find("cmd");
  if (cmd == nullptr || !cmd->is_string()) {
    send_error(in.conn, req_id, "missing \"cmd\"");
    return;
  }
  const std::string& name = cmd->as_string();
  log_.debug("request", {{"conn", in.conn->id}, {"cmd", name}});
  if (name == "ping") {
    std::string json = "{\"type\":\"pong\"";
    append_req(json, req_id);
    json += "}";
    send_line(in.conn, json);
  } else if (name == "submit") {
    handle_submit(in.conn, request, req_id);
  } else if (name == "status") {
    handle_status(in.conn, request, req_id);
  } else if (name == "cancel") {
    handle_cancel(in.conn, request, req_id);
  } else if (name == "stats") {
    handle_stats(in.conn, req_id);
  } else if (name == "drain") {
    if (!draining_) {
      draining_ = true;
      log_.info("drain_requested", {{"conn", in.conn->id}});
    }
    std::string json = "{\"type\":\"draining\"";
    append_req(json, req_id);
    json += "}";
    send_line(in.conn, json);
  } else {
    send_error(in.conn, req_id, "unknown cmd \"" + name + "\"");
  }
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request,
                           const std::string& req_id) {
  if (draining_) {
    send_error(conn, req_id, "draining: no new jobs accepted");
    return;
  }
  const JsonValue* scenario = request.find("scenario");
  if (scenario == nullptr) {
    send_error(conn, req_id, "submit requires a \"scenario\" object");
    return;
  }
  ScenarioSpec spec;
  std::string spec_error;
  if (!parse_scenario_spec(*scenario, spec, &spec_error)) {
    send_error(conn, req_id, spec_error);
    return;
  }
  const double priority = request.number_or("priority", 0.0);
  const double deadline_s = request.number_or("deadline_s", 0.0);
  const double mem_quota_mb = request.number_or("mem_quota_mb", 0.0);
  if (!(deadline_s >= 0.0) || !(mem_quota_mb >= 0.0)) {
    send_error(conn, req_id, "deadline_s / mem_quota_mb must be >= 0");
    return;
  }

  auto job = std::make_unique<Job>();
  job->id = next_job_id_++;
  job->conn = conn;
  job->conn_id = conn->id;
  job->spec = spec;
  job->name = spec.name();
  job->priority = static_cast<int>(
      std::clamp(priority, -1000.0, 1000.0));
  job->deadline_s = deadline_s;
  job->mem_quota_bytes =
      static_cast<std::uint64_t>(mem_quota_mb * 1024.0 * 1024.0);
  job->want_progress = request.bool_or("progress", false);
  job->submitted = SteadyClock::now();

  std::string json = "{\"type\":\"submitted\"";
  append_req(json, req_id);
  json += ",\"job\":" + u64_str(job->id);
  json += ",\"name\":\"" + core::json_escape(job->name) + "\"}";

  const std::uint64_t id = job->id;
  pending_.push_back(id);
  jobs_[id] = std::move(job);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_submitted;
    stats_.queue_depth = pending_.size();
  }
  log_.info("submit", {{"job", id},
                       {"conn", conn->id},
                       {"name", jobs_[id]->name},
                       {"priority", jobs_[id]->priority}});
  send_line(conn, json);
}

void Server::handle_status(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request,
                           const std::string& req_id) {
  const double id_number = request.number_or("job", -1.0);
  const auto it = id_number >= 0.0
                      ? jobs_.find(static_cast<std::uint64_t>(id_number))
                      : jobs_.end();
  if (it == jobs_.end()) {
    send_error(conn, req_id, "unknown job");
    return;
  }
  const Job& job = *it->second;
  std::string json = "{\"type\":\"status\"";
  append_req(json, req_id);
  json += ",\"job\":" + u64_str(job.id);
  json += ",\"name\":\"" + core::json_escape(job.name) + "\"";
  json += ",\"state\":\"";
  switch (job.state) {
    case Job::State::kPending: json += "pending"; break;
    case Job::State::kRunning: json += "running"; break;
    case Job::State::kDone: json += "done"; break;
  }
  json += "\"";
  if (job.state == Job::State::kDone && job.result.has_value()) {
    json += ",\"verdict\":\"" +
            core::json_escape(verdict_line(job.name, *job.result)) + "\"";
    json += ",\"result\":" + core::result_json(*job.result);
  }
  json += "}";
  send_line(conn, json);
}

void Server::handle_cancel(const std::shared_ptr<Connection>& conn,
                           const JsonValue& request,
                           const std::string& req_id) {
  const double id_number = request.number_or("job", -1.0);
  const auto it = id_number >= 0.0
                      ? jobs_.find(static_cast<std::uint64_t>(id_number))
                      : jobs_.end();
  if (it == jobs_.end()) {
    send_error(conn, req_id, "unknown job");
    return;
  }
  Job& job = *it->second;
  const char* state = "done";
  if (job.state == Job::State::kPending) {
    // Never dispatched: synthesize the cancelled result right here.
    pending_.erase(std::find(pending_.begin(), pending_.end(), job.id));
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.queue_depth = pending_.size();
    }
    core::VerifyResult result;
    result.status = core::VerifyStatus::kCancelled;
    result.error = core::Status(core::ErrorCode::kCancelled,
                                "cancelled before dispatch");
    finish_job(job, std::move(result));
    state = "cancelled";
  } else if (job.state == Job::State::kRunning) {
    job.handle.cancel();  // cooperative; result arrives as kCancelled
    state = "cancelling";
  }
  log_.info("cancel", {{"job", job.id}, {"state", state}});
  std::string json = "{\"type\":\"cancelled\"";
  append_req(json, req_id);
  json += ",\"job\":" + u64_str(job.id);
  json += ",\"state\":\"" + std::string(state) + "\"}";
  send_line(conn, json);
}

void Server::handle_stats(const std::shared_ptr<Connection>& conn,
                          const std::string& req_id) {
  send_line(conn, stats_json(req_id));
}

// ---------------------------------------------------------------------------
// Scheduler: dispatch and collection
// ---------------------------------------------------------------------------

void Server::dispatch_wave() {
  // Fair-share order: priority strictly first; within a priority, jobs
  // interleave round-robin across submitting connections (each job's
  // rank within its own connection's backlog), submission order last.
  std::vector<Job*> wave;
  wave.reserve(pending_.size());
  for (const std::uint64_t id : pending_) wave.push_back(jobs_[id].get());
  std::map<std::uint64_t, int> per_conn;
  for (Job* job : wave) job->rr = per_conn[job->conn_id]++;
  std::stable_sort(wave.begin(), wave.end(), [](const Job* a, const Job* b) {
    if (a->priority != b->priority) return a->priority > b->priority;
    if (a->rr != b->rr) return a->rr < b->rr;
    return a->id < b->id;
  });
  pending_.clear();

  for (Job* job : wave) {
    // Materialization interns into pool_, which is safe exactly because
    // dispatch_wave only runs at quiesce (see the file comment).
    try {
      scenario::ScenarioGenerator generator(pool_, job->spec.generator_config());
      job->scenario =
          generator.generate_one(static_cast<std::size_t>(job->spec.index));
    } catch (const std::exception& e) {
      core::VerifyResult result;
      result.status = core::VerifyStatus::kInternalError;
      result.error = core::Status(core::ErrorCode::kInternal,
                                  std::string("materialize: ") + e.what());
      finish_job(*job, std::move(result));
      continue;
    }

    core::JobOptions job_options = scenario::zoo_job_defaults();
    if (job->scenario->certificate.has_value()) {
      job_options.certificate = *job->scenario->certificate;
    }
    job_options.deadline_s = job->deadline_s;
    job_options.mem_quota_bytes =
        static_cast<std::size_t>(job->mem_quota_bytes);
    if (job->want_progress) {
      // Fires on the Engine pool worker: copy everything, touch no Job.
      job_options.on_progress = [this, conn = job->conn,
                                 id = job->id](const core::JobProgress& p) {
        std::string event = "{\"type\":\"progress\",\"job\":" + u64_str(id);
        event += ",\"phase\":\"";
        event += core::job_phase_name(p.phase);
        event += "\",\"candidate_iteration\":" +
                 std::to_string(p.candidate_iteration);
        event +=
            ",\"level_iteration\":" + std::to_string(p.level_iteration) + "}";
        send_line(conn, event);
      };
    }

    try {
      job->handle = engine_->submit(job->scenario->problem, job_options);
    } catch (const std::exception& e) {
      core::VerifyResult result;
      result.status = core::VerifyStatus::kInternalError;
      result.error = core::Status(core::ErrorCode::kInternal,
                                  std::string("dispatch: ") + e.what());
      finish_job(*job, std::move(result));
      continue;
    }
    job->state = Job::State::kRunning;
    job->dispatched = SteadyClock::now();
    running_.push_back(job->id);
    log_.info("dispatch", {{"job", job->id}, {"name", job->name}});
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.queue_depth = 0;
    stats_.running = running_.size();
  }
}

void Server::collect_finished() {
  for (std::size_t i = 0; i < running_.size();) {
    Job& job = *jobs_[running_[i]];
    if (!job.handle.done()) {
      ++i;
      continue;
    }
    core::VerifyResult result = job.handle.get();
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    finish_job(job, std::move(result));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    stats_.running = running_.size();
  }
}

void Server::finish_job(Job& job, core::VerifyResult result) {
  job.finished = SteadyClock::now();
  job.state = Job::State::kDone;
  job.result = std::move(result);
  const core::VerifyResult& r = *job.result;

  const bool was_dispatched =
      job.dispatched.time_since_epoch().count() != 0;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs_completed;
    if (r.status == core::VerifyStatus::kCancelled) ++stats_.jobs_cancelled;
    if (!r.error.ok()) ++stats_.jobs_failed;
    if (was_dispatched) {
      stats_.queue_wait_total_s += seconds_between(job.submitted,
                                                   job.dispatched);
      stats_.run_total_s += seconds_between(job.dispatched, job.finished);
    }
    stats_.phase_totals.accumulate(r.timings);
    stats_.degradation.jit_to_tape += r.degradation.jit_to_tape;
    stats_.degradation.tape_to_tree += r.degradation.tape_to_tree;
    stats_.degradation.cache_cold += r.degradation.cache_cold;
    stats_.degradation.lp_cold += r.degradation.lp_cold;
    stats_.degradation.retries += r.degradation.retries;
  }
  log_.info("result", {{"job", job.id},
                       {"name", job.name},
                       {"status", core::verify_status_name(r.status)},
                       {"total_s", r.timings.total_time_s}});

  // Push the result event. A dead/dropped connection is fine: the
  // result stays in jobs_ and remains fetchable through `status`.
  std::string event = "{\"type\":\"result\",\"job\":" + u64_str(job.id);
  event += ",\"name\":\"" + core::json_escape(job.name) + "\"";
  event += ",\"verdict\":\"" +
           core::json_escape(verdict_line(job.name, r)) + "\"";
  event += ",\"result\":" + core::result_json(r) + "}";
  send_line(job.conn, event);
}

// ---------------------------------------------------------------------------
// Scheduler: snapshots
// ---------------------------------------------------------------------------

bool Server::save_snapshot_now(const char* reason) {
  const std::string path = snapshot_path();
  smt::WarmState state = engine_->export_warm_state();
  std::string error;
  const bool saved = smt::save_snapshot(path, state, &error);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (saved) {
      ++stats_.snapshots_saved;
    } else {
      ++stats_.snapshot_failures;
    }
  }
  if (saved) {
    log_.info("snapshot_saved", {{"path", path},
                                 {"reason", reason},
                                 {"tapes", state.tapes.size()},
                                 {"trees", state.trees.size()},
                                 {"bases", state.bases.size()}});
  } else {
    // Degradation, not death: a failed snapshot (I/O error or an armed
    // cache_serialize fault) skips this save and the daemon carries on.
    log_.warn("snapshot_skipped",
              {{"path", path}, {"reason", reason}, {"error", error}});
  }
  return saved;
}

void Server::maybe_periodic_snapshot() {
  if (options_.state_dir.empty() || options_.snapshot_period_s <= 0.0) return;
  const auto now = SteadyClock::now();
  if (seconds_between(last_snapshot_, now) < options_.snapshot_period_s) {
    return;
  }
  last_snapshot_ = now;
  save_snapshot_now("periodic");
}

// ---------------------------------------------------------------------------
// Scheduler: main loop
// ---------------------------------------------------------------------------

int Server::run() {
  if (!started_) {
    log_.error("run_before_start");
    return 1;
  }
  started_at_ = last_snapshot_ = SteadyClock::now();

  std::deque<InboundLine> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(inbox_mutex_);
      inbox_cv_.wait_for(lock, std::chrono::milliseconds(20),
                         [this] { return !inbox_.empty(); });
      batch.swap(inbox_);
    }
    for (const InboundLine& line : batch) handle_line(line);

    if (options_.stop_flag != nullptr && options_.stop_flag->load() &&
        !draining_) {
      draining_ = true;
      log_.info("drain_requested", {{"conn", std::string("signal")}});
    }

    collect_finished();
    if (running_.empty() && !pending_.empty()) {
      dispatch_wave();
      collect_finished();  // pre-dispatch failures & instant jobs
    }
    maybe_periodic_snapshot();

    if (draining_ && pending_.empty() && running_.empty()) break;
  }

  if (!options_.state_dir.empty()) save_snapshot_now("drain");

  // Tell every surviving client the drain completed, then shut down.
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const auto& [id, conn] : connections_) conns.push_back(conn);
  }
  for (const auto& conn : conns) send_line(conn, "{\"type\":\"drained\"}");

  io_stop_.store(true);
  const char byte = 0;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  io_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  ::unlink(options_.socket_path.c_str());
  started_ = false;
  log_.info("drained", {{"uptime_s",
                         seconds_between(started_at_, SteadyClock::now())}});
  return 0;
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

ServerStats Server::stats_snapshot() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::string Server::stats_json(const std::string& req_id) const {
  const ServerStats s = stats_snapshot();
  const smt::KeyedCacheStats tape = engine_->tape_cache().stats();
  const smt::KeyedCacheStats jit = engine_->tape_cache().jit_stats();
  const smt::KeyedCacheStats unsat = engine_->unsat_cache().stats();

  std::string json = "{\"type\":\"stats\"";
  append_req(json, req_id);
  json += ",\"uptime_s\":" +
          double_str(seconds_between(started_at_, SteadyClock::now()));
  json += ",\"draining\":" + std::string(draining_ ? "true" : "false");
  json += ",\"jobs\":{\"submitted\":" + u64_str(s.jobs_submitted);
  json += ",\"pending\":" + u64_str(s.queue_depth);
  json += ",\"running\":" + u64_str(s.running);
  json += ",\"completed\":" + u64_str(s.jobs_completed);
  json += ",\"cancelled\":" + u64_str(s.jobs_cancelled);
  json += ",\"failed\":" + u64_str(s.jobs_failed) + "}";
  json += ",\"connections\":{\"opened\":" + u64_str(s.connections_opened);
  json += ",\"dropped\":" + u64_str(s.connections_dropped);
  json += ",\"protocol_errors\":" + u64_str(s.protocol_errors) + "}";
  json += ",\"caches\":{\"tape\":{\"hits\":" + u64_str(tape.hits);
  json += ",\"misses\":" + u64_str(tape.misses);
  json += ",\"entries\":" + u64_str(tape.entries);
  json += ",\"capacity\":" + u64_str(tape.capacity);
  json += ",\"warm_restores\":" +
          u64_str(engine_->tape_cache().warm_restores()) + "}";
  json += ",\"jit\":{\"hits\":" + u64_str(jit.hits);
  json += ",\"misses\":" + u64_str(jit.misses) + "}";
  json += ",\"unsat\":{\"hits\":" + u64_str(unsat.hits);
  json += ",\"misses\":" + u64_str(unsat.misses);
  json += ",\"entries\":" + u64_str(unsat.entries);
  json += ",\"capacity\":" + u64_str(unsat.capacity);
  json += ",\"stale\":" + u64_str(engine_->unsat_cache().stale());
  json += ",\"warm_restores\":" +
          u64_str(engine_->unsat_cache().warm_restores()) + "}}";
  const core::VerifyTimings& t = s.phase_totals;
  json += ",\"latency\":{\"queue_wait_total_s\":" +
          double_str(s.queue_wait_total_s);
  json += ",\"run_total_s\":" + double_str(s.run_total_s);
  json += ",\"lp_time_s\":" + double_str(t.lp_time_s);
  json += ",\"smt5_time_s\":" + double_str(t.smt5_time_s);
  json += ",\"simulation_time_s\":" + double_str(t.simulation_time_s);
  json += ",\"generator_time_s\":" + double_str(t.generator_time_s);
  json += ",\"level_set_time_s\":" + double_str(t.level_set_time_s);
  json += ",\"total_time_s\":" + double_str(t.total_time_s) + "}";
  const core::DegradationReport& d = s.degradation;
  json += ",\"degradation\":{\"jit_to_tape\":" + u64_str(d.jit_to_tape);
  json += ",\"tape_to_tree\":" + u64_str(d.tape_to_tree);
  json += ",\"cache_cold\":" + u64_str(d.cache_cold);
  json += ",\"lp_cold\":" + u64_str(d.lp_cold);
  json += ",\"retries\":" + u64_str(d.retries) + "}";
  json += ",\"snapshots\":{\"loaded\":" +
          std::string(s.snapshot_loaded ? "true" : "false");
  json += ",\"saved\":" + u64_str(s.snapshots_saved);
  json += ",\"failed\":" + u64_str(s.snapshot_failures) + "}}";
  return json;
}

}  // namespace bcert::daemon
