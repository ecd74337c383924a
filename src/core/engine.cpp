#include "src/core/engine.h"

#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "src/core/fault.h"
#include "src/core/report.h"

namespace bcert::core {

namespace {

using clock = std::chrono::steady_clock;

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(options),
      // Both caches at their default capacity (kMaxEntries).
      tape_cache_(std::make_shared<smt::TapeCache>()),
      unsat_cache_(std::make_shared<smt::UnsatTreeCache>()),
      pool_(static_cast<std::size_t>(
          parallel::resolve_thread_count(options.threads))) {}

VerifyResult Engine::run_job(const BarrierProblem& problem,
                             const JobOptions& options,
                             parallel::CancellationToken* cancel,
                             clock::time_point submitted) {
  // Per-attempt resource governor: an explicit job quota wins, else the
  // BCERT_MEM_QUOTA runtime default (0 = accounting only, no limit).
  const std::size_t quota = options.mem_quota_bytes != 0
                                ? options.mem_quota_bytes
                                : RuntimeConfig::active().mem_quota_bytes;
  MemoryBudget budget(quota);

  // Noexcept job boundary: nothing a scenario does — an armed fault, a
  // bug escaping the pipeline, a malformed problem — may take the pool
  // worker (and with it every other queued scenario) down. Failures
  // come back as typed statuses that run_campaign can retry/quarantine.
  try {
    FaultRegistry::check(FaultPoint::kWorkerDispatch);

    // Wire the Engine-owned infrastructure into the pipeline. Caller-set
    // caches win (a job may want isolation); absent ones get the shared
    // stores so structurally repeated scenarios reuse compiled tapes,
    // UNSAT partitions and LP bases across the whole campaign.
    VerifierOptions verify = options.verify;
    if (!verify.icp.tape_cache) verify.icp.tape_cache = tape_cache_;
    if (!verify.icp.unsat_cache) verify.icp.unsat_cache = unsat_cache_;

    PipelineHooks hooks;
    hooks.cancel = cancel;
    if (options.deadline_s > 0.0) {
      hooks.deadline =
          submitted + std::chrono::duration_cast<clock::duration>(
                          std::chrono::duration<double>(options.deadline_s));
      hooks.has_deadline = true;
    }
    hooks.on_progress = options.on_progress;
    hooks.mem_budget = &budget;

    const BasisKey key{
        static_cast<int>(options.certificate.kind),
        options.certificate.kind == TemplateSpec::Kind::kQuadratic
            ? 2
            : options.certificate.max_degree,
        problem.dims()};
    lp::LpBasis basis;
    if (options_.share_lp_basis) {
      std::lock_guard<std::mutex> lock(basis_mutex_);
      const auto it = warm_bases_.find(key);
      if (it != warm_bases_.end()) basis = it->second;
      hooks.warm_basis_io = &basis;
    }

    VerifyResult result;
    if (options.certificate.kind == TemplateSpec::Kind::kQuadratic) {
      BarrierPipeline<QuadraticForm> pipeline(problem, std::move(verify),
                                              options.certificate);
      result = pipeline.run(std::move(hooks));
    } else {
      BarrierPipeline<PolynomialForm> pipeline(problem, std::move(verify),
                                               options.certificate);
      result = pipeline.run(std::move(hooks));
    }

    if (options_.share_lp_basis) {
      std::lock_guard<std::mutex> lock(basis_mutex_);
      warm_bases_[key] = std::move(basis);
    }
    return result;
  } catch (const FaultInjected& e) {
    VerifyResult result;
    result.template_kind = options.certificate.kind;
    result.status = VerifyStatus::kInternalError;
    result.error = Status(ErrorCode::kFaultInjected, e.what());
    return result;
  } catch (const std::exception& e) {
    VerifyResult result;
    result.template_kind = options.certificate.kind;
    result.status = VerifyStatus::kInternalError;
    result.error = Status(ErrorCode::kInternal, e.what());
    return result;
  }
}

VerifyResult Engine::verify(const BarrierProblem& problem,
                            const JobOptions& options) {
  ++jobs_submitted_;
  return run_job(problem, options, nullptr, clock::now());
}

JobHandle Engine::submit(BarrierProblem problem, JobOptions options) {
  ++jobs_submitted_;
  auto state = std::make_shared<JobState>();
  const clock::time_point submitted = clock::now();
  // The task shares ownership of the token only — capturing `state`
  // would close a state → future → task → state shared_ptr cycle and
  // leak the job; a dropped handle still cannot dangle the token.
  std::shared_ptr<parallel::CancellationToken> token = state->cancel;
  state->future =
      pool_
          .submit([this, token, submitted, problem = std::move(problem),
                   options = std::move(options)]() mutable {
            return run_job(problem, options, token.get(), submitted);
          })
          .share();
  return JobHandle(std::move(state));
}

namespace {

/// Collects one handle under the campaign watchdog. With a deadline
/// set, a job still running `grace` seconds past it is cancelled; if
/// it still does not retire within another grace period it is
/// abandoned with kWorkerStuck (the task co-owns its cancellation
/// token, so the detached worker is safe — it drains with the pool).
/// Without a deadline get() blocks, exactly the pre-watchdog behavior.
VerifyResult collect_with_watchdog(const JobHandle& handle,
                                   const JobOptions& options,
                                   const std::string& name) {
  if (options.deadline_s > 0.0) {
    if (!handle.wait_for(options.deadline_s + options.stuck_grace_s)) {
      handle.cancel();
      if (!handle.wait_for(options.stuck_grace_s)) {
        VerifyResult r;
        r.status = VerifyStatus::kInternalError;
        r.error = Status(ErrorCode::kWorkerStuck,
                         "scenario '" + name +
                             "' missed its deadline plus grace and ignored "
                             "cancellation; abandoned by the watchdog");
        return r;
      }
    }
  }
  return handle.get();
}

/// Campaign defaults specialized to one scenario (per-scenario template
/// override, when set).
JobOptions scenario_options(const Scenario& s, const JobOptions& defaults) {
  JobOptions options = defaults;
  if (s.certificate) options.certificate = *s.certificate;
  return options;
}

}  // namespace

CampaignResult Engine::run_campaign(std::span<const Scenario> scenarios,
                                    const JobOptions& defaults) {
  CampaignResult out;
  out.scenarios.reserve(scenarios.size());
  const clock::time_point t0 = clock::now();

  // Submit everything up front: scenarios pipeline through the pool
  // workers while this thread collects results in order.
  std::vector<JobHandle> handles;
  handles.reserve(scenarios.size());
  for (const Scenario& s : scenarios) {
    handles.push_back(submit(s.problem, scenario_options(s, defaults)));
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const JobOptions options = scenario_options(scenarios[i], defaults);
    ScenarioOutcome outcome;
    outcome.name = scenarios[i].name;
    outcome.result =
        collect_with_watchdog(handles[i], options, outcome.name);

    // Bounded serial retry with exponential backoff for transient-class
    // failures (injected faults, escaped exceptions). kWorkerStuck,
    // deadline and quota breaches are deterministic — no retry.
    double backoff = options.retry.backoff_s;
    while (outcome.result.error.retryable() &&
           outcome.attempts <= options.retry.max_retries) {
      if (backoff > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff *= options.retry.backoff_multiplier;
      }
      const JobHandle retry = submit(scenarios[i].problem, options);
      outcome.result = collect_with_watchdog(retry, options, outcome.name);
      ++outcome.attempts;
    }
    outcome.result.degradation.retries =
        static_cast<std::uint32_t>(outcome.attempts - 1);

    const ErrorCode code = outcome.result.error.code;
    if (code != ErrorCode::kOk) ++out.failed_count;
    outcome.quarantined = code == ErrorCode::kFaultInjected ||
                          code == ErrorCode::kInternal ||
                          code == ErrorCode::kWorkerStuck;
    if (outcome.quarantined) out.quarantined.push_back(outcome.name);

    out.aggregate.accumulate(outcome.result.timings);
    if (outcome.result.safe()) ++out.safe_count;
    out.scenarios.push_back(std::move(outcome));
  }
  out.wall_time_s =
      std::chrono::duration<double>(clock::now() - t0).count();
  return out;
}

FalsificationResult Engine::falsify(const BarrierProblem& problem,
                                    FalsifierOptions options) {
  if (options.pool == nullptr) options.pool = &pool_;
  Falsifier falsifier(problem, options);
  return falsifier.search();
}

smt::WarmState Engine::export_warm_state() const {
  smt::WarmState state;
  state.tapes = tape_cache_->export_entries();
  state.trees = unsat_cache_->export_entries();
  std::lock_guard<std::mutex> lock(basis_mutex_);
  state.bases.reserve(warm_bases_.size());
  for (const auto& [key, basis] : warm_bases_) {
    if (basis.empty()) continue;
    smt::WarmBasisEntry entry;
    entry.kind = std::get<0>(key);
    entry.degree = std::get<1>(key);
    entry.dims = std::get<2>(key);
    entry.basis = basis;
    state.bases.push_back(std::move(entry));
  }
  return state;
}

void Engine::import_warm_state(smt::WarmState state) {
  tape_cache_->import_entries(std::move(state.tapes));
  unsat_cache_->import_entries(std::move(state.trees));
  std::lock_guard<std::mutex> lock(basis_mutex_);
  for (smt::WarmBasisEntry& entry : state.bases) {
    const BasisKey key{entry.kind, entry.degree,
                       static_cast<std::size_t>(entry.dims)};
    // emplace keeps any live entry — a basis recorded this run is newer
    // (and by the warm-start contract, either is merely a starting
    // point, so staleness is a performance question only).
    warm_bases_.emplace(key, std::move(entry.basis));
  }
}

std::string CampaignResult::to_json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\n  \"scenarios\": [";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
       << json_escape(scenarios[i].name)
       << "\", \"attempts\": " << scenarios[i].attempts
       << ", \"quarantined\": "
       << (scenarios[i].quarantined ? "true" : "false") << ", \"result\": ";
    write_result_json(os, scenarios[i].result);
    os << '}';
  }
  os << "\n  ],\n";
  os << "  \"safe_count\": " << safe_count << ",\n";
  os << "  \"failed_count\": " << failed_count << ",\n";
  os << "  \"quarantined\": [";
  for (std::size_t i = 0; i < quarantined.size(); ++i) {
    os << (i ? ", " : "") << '"' << json_escape(quarantined[i]) << '"';
  }
  os << "],\n";
  os << "  \"wall_time_s\": " << wall_time_s << ",\n";
  os << "  \"scenarios_per_sec\": " << scenarios_per_sec() << ",\n";
  os << "  \"aggregate\": {\n";
  os << "    \"candidate_iterations\": " << aggregate.candidate_iterations
     << ",\n";
  os << "    \"lp_solves\": " << aggregate.lp_solves << ",\n";
  os << "    \"lp_time_s\": " << aggregate.lp_time_s << ",\n";
  os << "    \"smt5_queries\": " << aggregate.smt5_queries << ",\n";
  os << "    \"smt5_time_s\": " << aggregate.smt5_time_s << ",\n";
  os << "    \"simulation_time_s\": " << aggregate.simulation_time_s
     << ",\n";
  os << "    \"generator_time_s\": " << aggregate.generator_time_s << ",\n";
  os << "    \"level_set_time_s\": " << aggregate.level_set_time_s << ",\n";
  os << "    \"total_time_s\": " << aggregate.total_time_s << "\n";
  os << "  }\n}\n";
  return os.str();
}

}  // namespace bcert::core
