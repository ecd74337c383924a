#pragma once
/// \file engine.h
/// \brief The unified verification engine — the library's top-level API.
///
/// `bcert::Engine` runs barrier-certificate verification at scale. Where
/// a bare `BarrierPipeline` run builds its caches per call, the Engine
/// owns the shared infrastructure and amortizes it across *all* the
/// scenarios it is asked to verify:
///
///  * a **thread pool** (`parallel::ThreadPool`) executing submitted
///    jobs, one whole job per worker (a job's ICP queries run on its
///    worker's thread), plus the falsifier's simulation batches;
///  * a **tape cache** (`smt::TapeCache`): compiled HC4 bytecode reused
///    whenever scenarios share hash-consed conjunctions;
///  * an **UNSAT-tree cache** (`smt::UnsatTreeCache`): refutation
///    partitions replayed across *structurally* identical queries, so
///    scenario k+1's candidate loop warm-starts from scenario k's
///    proofs;
///  * an **LP warm-basis store**: the final simplex basis per template
///    shape, seeding the next scenario's first candidate LP.
///
/// Submission is asynchronous: `submit()` returns a `JobHandle` with
/// blocking `get()`, cooperative `cancel()` (which interrupts even a
/// long-running ICP query mid-flight), optional deadlines and progress
/// callbacks. `run_campaign()` pipelines a batch of scenarios through
/// the pool and reports per-scenario plus aggregate Table-1 timings.
///
/// Lifetime contract: the caches key on `ExprPool` identity — every
/// `BarrierProblem::pool` passed to this Engine must stay alive until
/// the Engine is destroyed (or until no further jobs are submitted and
/// all handles are retired). Destroying the Engine waits for all
/// submitted jobs to finish (cancel first for a fast exit).

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/falsifier.h"
#include "src/core/pipeline.h"
#include "src/core/runtime_config.h"
#include "src/core/verify_types.h"
#include "src/lp/simplex.h"
#include "src/parallel/thread_pool.h"
#include "src/smt/cache_io.h"
#include "src/smt/tape.h"
#include "src/smt/unsat_tree.h"

namespace bcert::core {

/// Engine construction knobs.
struct EngineOptions {
  /// Workers in the Engine-owned pool; 0 = RuntimeConfig / hardware.
  int threads = 0;
  /// Seed each scenario's first candidate LP from the last optimal
  /// basis of the same template shape (see PipelineHooks::warm_basis_io
  /// for the contract). Disable to make every job's LP sequence
  /// independent of submission history.
  bool share_lp_basis = true;
};

/// Campaign-level retry policy for transient job failures (injected
/// faults, escaped exceptions — Status::retryable()). Retries run
/// serially on the collecting thread with exponential backoff; a
/// scenario that fails every attempt is quarantined, never fatal.
struct RetryPolicy {
  int max_retries = 2;            ///< extra attempts after the first
  double backoff_s = 0.05;        ///< sleep before the first retry
  double backoff_multiplier = 2.0;
};

/// Per-job options: the pipeline tuning plus Engine-level execution
/// controls.
struct JobOptions {
  VerifierOptions verify;
  TemplateSpec certificate = TemplateSpec::quadratic();
  /// Wall-clock deadline in seconds from submission; 0 = none. An
  /// expired deadline stops the pipeline between steps, clamps every
  /// ICP query's time limit to the remaining budget and interrupts
  /// in-flight simplex pivot loops (status kDeadlineExceeded).
  double deadline_s = 0.0;
  /// Per-job memory quota in bytes for the ICP frontier + UNSAT-tree
  /// recording; 0 = the BCERT_MEM_QUOTA runtime default (which itself
  /// defaults to unlimited). A breached quota winds the job down with
  /// status kResourceExhausted instead of unbounded growth.
  std::size_t mem_quota_bytes = 0;
  /// Campaign watchdog grace: a job that is still running this many
  /// seconds past its deadline is cancelled, and if it still does not
  /// retire within another grace period it is abandoned with
  /// ErrorCode::kWorkerStuck (the worker keeps running detached until
  /// the pool drains at Engine destruction). Only meaningful together
  /// with deadline_s > 0.
  double stuck_grace_s = 1.0;
  /// Retry/quarantine policy applied by run_campaign.
  RetryPolicy retry;
  /// Progress callback; invoked from the executing thread (a pool
  /// worker for submitted jobs) — must be thread-safe and cheap.
  std::function<void(const JobProgress&)> on_progress;
};

/// Shared state of one submitted job (internal).
struct JobState {
  /// Shared with the running task itself (the task captures the token,
  /// NOT this state: state → future → task → state would be a
  /// shared_ptr cycle and leak every job). A dropped handle therefore
  /// still cannot leave the running job with a dangling token.
  std::shared_ptr<parallel::CancellationToken> cancel =
      std::make_shared<parallel::CancellationToken>();
  std::shared_future<VerifyResult> future;
};

/// Handle to a submitted job. Copyable (shared); `get()` blocks.
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const { return state_ != nullptr; }

  /// Blocks until the job finished and returns its result. Safe to call
  /// repeatedly (shared future). Throws std::logic_error on an invalid
  /// (default-constructed or moved-from) handle, as do the accessors
  /// below.
  VerifyResult get() const { return state().future.get(); }

  /// True when the result is ready (non-blocking).
  bool done() const {
    return state().future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  /// Blocks up to \p seconds; true when the result became ready.
  bool wait_for(double seconds) const {
    return state().future.wait_for(std::chrono::duration<double>(seconds)) ==
           std::future_status::ready;
  }

  /// Requests cooperative cancellation: the pipeline stops at the next
  /// step boundary and any in-flight ICP query stops admitting boxes.
  /// The job still completes (promptly) with status kCancelled — call
  /// get() to observe it.
  void cancel() const { state().cancel->cancel(); }

 private:
  JobState& state() const {
    if (state_ == nullptr) {
      throw std::logic_error("JobHandle: invalid (empty) handle");
    }
    return *state_;
  }

  friend class Engine;
  explicit JobHandle(std::shared_ptr<JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<JobState> state_;
};

/// One named campaign scenario. `certificate`, when set, overrides the
/// campaign-default template for this scenario only — how a generated
/// mixed suite verifies some scenarios with a quadratic and others with
/// a polynomial template in one run_campaign call.
struct Scenario {
  std::string name;
  BarrierProblem problem;
  std::optional<TemplateSpec> certificate;
};

/// Per-scenario campaign outcome. `result.error` carries the typed
/// failure (if any) of the *final* attempt; `attempts` counts every
/// attempt including the first.
struct ScenarioOutcome {
  std::string name;
  VerifyResult result;
  int attempts = 1;
  bool quarantined = false;  ///< failed every attempt (see CampaignResult)
};

/// Campaign summary: per-scenario results plus the aggregate Table-1
/// timing columns. A campaign always completes with partial results:
/// scenarios whose jobs fault, throw or hang are retried per
/// RetryPolicy, then quarantined — never allowed to take the process
/// (or the other scenarios' results) down.
struct CampaignResult {
  std::vector<ScenarioOutcome> scenarios;
  VerifyTimings aggregate;   ///< column-wise sum over scenarios
  double wall_time_s = 0.0;  ///< end-to-end campaign wall clock
  int safe_count = 0;
  /// Scenarios whose final attempt still failed with a transient-class
  /// error (kFaultInjected / kInternal / kWorkerStuck) — candidates to
  /// exclude from a re-run.
  std::vector<std::string> quarantined;
  /// Scenarios whose final result carries any non-kOk error.
  int failed_count = 0;

  double scenarios_per_sec() const {
    return wall_time_s > 0.0
               ? static_cast<double>(scenarios.size()) / wall_time_s
               : 0.0;
  }
  /// Machine-readable summary (per-scenario verdicts via
  /// report.h's result JSON plus the aggregate block).
  std::string to_json() const;
};

/// The unified verification engine. Thread-safe: submit/verify may be
/// called concurrently from multiple threads.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});
  /// Waits for every submitted job to finish (the owned pool drains its
  /// queue before joining). Cancel outstanding handles first for a fast
  /// exit.
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Blocking single-scenario verification on the calling thread, using
  /// the shared caches. On a fresh Engine this is bit-identical to a
  /// bare `BarrierPipeline<Form>(...).run()` (asserted by
  /// tests/engine_test.cpp).
  VerifyResult verify(const BarrierProblem& problem,
                      const JobOptions& options = {});

  /// Asynchronous submission: the job runs on the Engine's pool.
  JobHandle submit(BarrierProblem problem, JobOptions options = {});

  /// Verifies every scenario, pipelined through the pool, and returns
  /// per-scenario plus aggregate results. \p defaults applies to every
  /// scenario.
  CampaignResult run_campaign(std::span<const Scenario> scenarios,
                              const JobOptions& defaults = {});

  /// Testing-side complement: optimization-based falsification of a
  /// scenario, with simulation batches and CMA-ES evaluations running
  /// on the Engine's pool. Blocking; see core::Falsifier.
  FalsificationResult falsify(const BarrierProblem& problem,
                              FalsifierOptions options = {});

  parallel::ThreadPool& pool() { return pool_; }
  const smt::TapeCache& tape_cache() const { return *tape_cache_; }
  const smt::UnsatTreeCache& unsat_cache() const { return *unsat_cache_; }

  std::size_t jobs_submitted() const { return jobs_submitted_.load(); }

  /// Exports the Engine's warm state — cached tapes and UNSAT trees
  /// under their pool-independent signatures plus the LP warm-basis
  /// store — for persistence (smt::save_snapshot). Consistent point-in-
  /// time copy; safe to call while jobs run.
  smt::WarmState export_warm_state() const;

  /// Imports a previously exported warm state. Tapes and trees land in
  /// the caches' warm side tables (adopted on the first matching miss,
  /// observable via warm_restores()); bases merge into the warm-basis
  /// store, keeping any live entry (this run's bases are newer). Loaded
  /// state only changes timings, never verdicts: warm tapes are
  /// bit-identical programs, trees only seed partitions, bases only pick
  /// simplex starting points.
  void import_warm_state(smt::WarmState state);

 private:
  /// Executes one job on the current thread with the shared
  /// infrastructure wired into the pipeline hooks.
  VerifyResult run_job(const BarrierProblem& problem,
                       const JobOptions& options,
                       parallel::CancellationToken* cancel,
                       std::chrono::steady_clock::time_point submitted);

  /// Key of the LP warm-basis store: template kind + degree + problem
  /// dimension (bases only transfer between identically-shaped LPs).
  using BasisKey = std::tuple<int, int, std::size_t>;

  EngineOptions options_;
  std::shared_ptr<smt::TapeCache> tape_cache_;
  std::shared_ptr<smt::UnsatTreeCache> unsat_cache_;
  mutable std::mutex basis_mutex_;
  std::map<BasisKey, lp::LpBasis> warm_bases_;
  std::atomic<std::size_t> jobs_submitted_{0};
  /// Declared LAST on purpose: the pool's destructor drains queued jobs
  /// and joins its workers, and those jobs touch every member above —
  /// so the pool must be destroyed (and the jobs finished) first.
  parallel::ThreadPool pool_;
};

}  // namespace bcert::core

namespace bcert {
// The Engine is the library's top-level entry point; surface it (and
// the types its signatures need) at namespace scope.
using core::Engine;
using core::EngineOptions;
using core::JobHandle;
using core::JobOptions;
using core::Scenario;
using core::TemplateSpec;
}  // namespace bcert
