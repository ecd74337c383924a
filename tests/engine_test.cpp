// Tests for the unified verification Engine: differential equivalence
// with a bare BarrierPipeline run, cross-scenario cache sharing,
// async submission, cooperative cancellation, deadlines, and campaigns.
#include "src/core/engine.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"
#include "src/scenario/generator.h"

namespace bcert::core {
namespace {

using linalg::Vector;
constexpr double kPi = 3.14159265358979323846;

/// The paper's Dubins case study with a distilled controller — a real
/// workload whose candidate loop typically takes several CEX rounds.
BarrierProblem dubins_problem(expr::ExprPool& pool,
                              const nn::FeedforwardNet& controller) {
  const dubins::ErrorModel model{1.0, 0.0};
  BarrierProblem p;
  p.pool = &pool;
  p.sim_field = dubins::closed_loop_field(model, controller);
  p.sym_field = dubins::closed_loop_field_expr(model, controller, pool);
  p.initial_set = {{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}};
  p.safe_rect = {{-5.0, -(kPi / 2.0 - 0.01)}, {5.0, kPi / 2.0 - 0.01}};
  return p;
}

/// Analytic workload: ẋ = −x decays to the origin, the first LP
/// candidate is already a valid generator, and the whole pipeline is
/// deterministic (no SAT witnesses ever enter the loop).
BarrierProblem linear_problem(expr::ExprPool& pool) {
  BarrierProblem p;
  p.pool = &pool;
  p.sim_field = [](const Vector& x) { return Vector{-x[0], -x[1]}; };
  p.sym_field = {pool.neg(pool.var(0)), pool.neg(pool.var(1))};
  p.initial_set = {{-0.5, -0.5}, {0.5, 0.5}};
  p.safe_rect = {{-2.0, -2.0}, {2.0, 2.0}};
  return p;
}

void expect_bit_identical(const VerifyResult& a, const VerifyResult& b) {
  ASSERT_EQ(a.status, b.status)
      << verify_status_name(a.status) << " vs " << verify_status_name(b.status);
  EXPECT_EQ(a.template_kind, b.template_kind);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.lp_margin, b.lp_margin);
  ASSERT_EQ(a.has_generator(), b.has_generator());
  if (a.has_generator()) {
    const Vector& ca = a.generator_coeffs();
    const Vector& cb = b.generator_coeffs();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i], cb[i]) << "coefficient " << i;
    }
  }
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    for (std::size_t d = 0; d < a.counterexamples[i].size(); ++d) {
      EXPECT_EQ(a.counterexamples[i][d], b.counterexamples[i][d]);
    }
  }
  EXPECT_EQ(a.timings.candidate_iterations, b.timings.candidate_iterations);
  EXPECT_EQ(a.timings.lp_solves, b.timings.lp_solves);
  EXPECT_EQ(a.timings.smt5_queries, b.timings.smt5_queries);
}

// A bare pipeline run and the Engine single-job path run the same
// procedure and must produce bit-identical results (fresh Engine ⇒
// empty caches, exactly a standalone pipeline's per-run state).
TEST(Engine, SingleJobBitIdenticalToBarePipeline) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);

  expr::ExprPool pool_bare;
  const JobOptions opts{};
  const VerifyResult bare_result = BarrierPipeline<QuadraticForm>(
      dubins_problem(pool_bare, controller), opts.verify).run();

  expr::ExprPool pool_engine;
  Engine engine;
  const VerifyResult engine_result =
      engine.verify(dubins_problem(pool_engine, controller), opts);

  ASSERT_TRUE(bare_result.safe())
      << verify_status_name(bare_result.status);
  expect_bit_identical(bare_result, engine_result);
}

TEST(Engine, PolynomialJobBitIdenticalToBarePipeline) {
  JobOptions opts;
  opts.certificate = TemplateSpec::polynomial(2);

  expr::ExprPool pool_bare;
  const VerifyResult bare_result = BarrierPipeline<PolynomialForm>(
      linear_problem(pool_bare), opts.verify, opts.certificate).run();

  expr::ExprPool pool_engine;
  Engine engine;
  const VerifyResult engine_result =
      engine.verify(linear_problem(pool_engine), opts);

  ASSERT_TRUE(bare_result.safe())
      << verify_status_name(bare_result.status);
  EXPECT_TRUE(bare_result.poly_generator.has_value());
  EXPECT_FALSE(bare_result.generator.has_value());
  expect_bit_identical(bare_result, engine_result);
}

// Engine-level cache sharing: two structurally identical scenarios
// through one Engine must reuse compiled tapes and UNSAT trees across
// scenarios, and the results must be bit-identical to fresh single-shot
// runs. (share_lp_basis is off here so the second scenario's LP
// sequence is exactly a fresh run's; the ICP warm machinery itself
// never changes results on this SAT-free workload.)
TEST(Engine, CampaignSharesCachesAcrossScenarios) {
  // Armed cache_lookup / tape_compile faults legitimately change the
  // cache counters this test pins (cold starts are the intended
  // degradation); results stay correct, so just skip the stats checks.
  core::RuntimeConfig::active();  // installs any BCERT_FAULT spec
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: cache stats not stable";
  }
  EngineOptions eo;
  eo.share_lp_basis = false;
  Engine engine(eo);
  const JobOptions opts{};

  // One shared pool: identical scenarios hash-cons to identical
  // ExprIds, so even the tape cache (which keys on expression identity,
  // not just structure) can hit across scenarios.
  expr::ExprPool pool;
  const BarrierProblem problem = linear_problem(pool);

  const VerifyResult first = engine.verify(problem, opts);
  ASSERT_TRUE(first.safe()) << verify_status_name(first.status);

  const smt::KeyedCacheStats tape_before = engine.tape_cache().stats();
  const smt::KeyedCacheStats jit_before = engine.tape_cache().jit_stats();
  const smt::KeyedCacheStats unsat_before = engine.unsat_cache().stats();

  const VerifyResult second = engine.verify(problem, opts);
  ASSERT_TRUE(second.safe()) << verify_status_name(second.status);

  const smt::KeyedCacheStats tape_after = engine.tape_cache().stats();
  const smt::KeyedCacheStats jit_after = engine.tape_cache().jit_stats();
  const smt::KeyedCacheStats unsat_after = engine.unsat_cache().stats();

  // Cross-scenario reuse: the second scenario hit both caches (the
  // tape cache participates under the jit and tape backends — under
  // BCERT_HC4_MODE=tree nothing compiles tapes at all)...
  const smt::Hc4Mode mode = smt::resolve_hc4_mode(smt::Hc4Mode::kAuto);
  if (mode == smt::Hc4Mode::kJit || mode == smt::Hc4Mode::kTape) {
    EXPECT_GT(tape_after.hits, tape_before.hits);
    // ...and compiled no new tapes (every conjunction was cached)...
    EXPECT_EQ(tape_after.insertions, tape_before.insertions);
  }
  // ...and, on the native backend, reused emitted code too.
  if (mode == smt::Hc4Mode::kJit) {
    EXPECT_GT(jit_after.hits, jit_before.hits);
  }
  // ...and replayed UNSAT trees from the first scenario.
  EXPECT_GT(unsat_after.hits, unsat_before.hits);

  // Shared caches must not change answers: both runs bit-identical to a
  // fresh single-shot Engine run.
  Engine fresh(eo);
  const VerifyResult cold = fresh.verify(problem, opts);
  expect_bit_identical(cold, first);
  expect_bit_identical(cold, second);
}

TEST(Engine, SubmitRunsAsynchronouslyOnEnginePool) {
  expr::ExprPool pool;
  Engine engine;
  JobHandle handle = engine.submit(linear_problem(pool));
  ASSERT_TRUE(handle.valid());
  const VerifyResult result = handle.get();
  EXPECT_TRUE(handle.done());
  EXPECT_TRUE(result.safe()) << verify_status_name(result.status);
  EXPECT_EQ(engine.jobs_submitted(), 1u);
}

TEST(Engine, ProgressCallbackSeesAllPhases) {
  expr::ExprPool pool;
  Engine engine;
  std::mutex m;
  std::vector<JobPhase> phases;
  JobOptions opts;
  opts.on_progress = [&](const JobProgress& p) {
    std::lock_guard<std::mutex> lock(m);
    phases.push_back(p.phase);
  };
  const VerifyResult result = engine.verify(linear_problem(pool), opts);
  ASSERT_TRUE(result.safe());
  ASSERT_GE(phases.size(), 4u);
  EXPECT_EQ(phases.front(), JobPhase::kSeeding);
  EXPECT_EQ(phases.back(), JobPhase::kDone);
  bool saw_candidate = false, saw_level = false;
  for (const JobPhase p : phases) {
    saw_candidate = saw_candidate || p == JobPhase::kCandidateLoop;
    saw_level = saw_level || p == JobPhase::kLevelSet;
  }
  EXPECT_TRUE(saw_candidate);
  EXPECT_TRUE(saw_level);
}

/// A job whose candidate loop never converges: γ is so large that the
/// decrease query is SAT every round, so the CEX loop would grind
/// through max_candidate_iterations (set absurdly high) forever.
JobOptions endless_candidate_loop_options() {
  JobOptions opts;
  opts.verify.gamma = 50.0;  // lie ≥ −16 on the domain ⇒ always SAT
  opts.verify.adaptive_delta = false;
  opts.verify.max_candidate_iterations = 1'000'000;
  return opts;
}

TEST(Engine, CancellationStopsJobMidCandidateLoop) {
  expr::ExprPool pool;
  Engine engine;
  JobHandle handle =
      engine.submit(linear_problem(pool), endless_candidate_loop_options());

  // Let the job get into the candidate loop, then cancel.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  handle.cancel();

  const auto t0 = std::chrono::steady_clock::now();
  const VerifyResult result = handle.get();
  const double wait_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_EQ(result.status, VerifyStatus::kCancelled)
      << verify_status_name(result.status);
  EXPECT_FALSE(result.safe());
  EXPECT_LT(wait_s, 30.0);  // prompt, not after 10^6 iterations

  // No leaked pool tasks: the pool immediately accepts and completes
  // further work, and Engine destruction (scope exit) does not hang.
  expr::ExprPool pool2;
  const VerifyResult next = engine.verify(linear_problem(pool2));
  EXPECT_TRUE(next.safe());
}

TEST(Engine, DeadlineExpiresMidCandidateLoop) {
  expr::ExprPool pool;
  Engine engine;
  JobOptions opts = endless_candidate_loop_options();
  opts.deadline_s = 0.3;
  const auto t0 = std::chrono::steady_clock::now();
  const VerifyResult result = engine.verify(linear_problem(pool), opts);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(result.status, VerifyStatus::kDeadlineExceeded)
      << verify_status_name(result.status);
  EXPECT_LT(wall_s, 30.0);
}

TEST(Engine, RunCampaignReportsPerScenarioAndAggregate) {
  expr::ExprPool pool;
  Engine engine;
  std::vector<Scenario> scenarios;
  scenarios.push_back({"nominal", linear_problem(pool)});
  scenarios.push_back({"repeat", linear_problem(pool)});

  const CampaignResult campaign =
      engine.run_campaign(std::span<const Scenario>(scenarios));

  ASSERT_EQ(campaign.scenarios.size(), 2u);
  EXPECT_EQ(campaign.scenarios[0].name, "nominal");
  EXPECT_EQ(campaign.scenarios[1].name, "repeat");
  EXPECT_EQ(campaign.safe_count, 2);
  EXPECT_GT(campaign.wall_time_s, 0.0);
  EXPECT_GT(campaign.scenarios_per_sec(), 0.0);

  // Aggregate = column-wise sum of the scenario timings.
  int iters = 0;
  double total = 0.0;
  for (const ScenarioOutcome& s : campaign.scenarios) {
    EXPECT_TRUE(s.result.safe()) << s.name;
    iters += s.result.timings.candidate_iterations;
    total += s.result.timings.total_time_s;
  }
  EXPECT_EQ(campaign.aggregate.candidate_iterations, iters);
  EXPECT_DOUBLE_EQ(campaign.aggregate.total_time_s, total);

  const std::string json = campaign.to_json();
  EXPECT_NE(json.find("\"nominal\""), std::string::npos);
  EXPECT_NE(json.find("\"repeat\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"scenarios_per_sec\""), std::string::npos);
}

TEST(Engine, DestructionWaitsForAbandonedSubmittedJobs) {
  // Submit and immediately drop both the handle and the Engine: the
  // queued job must run to completion against live Engine members
  // (pool_ is destroyed first, draining jobs, before the caches and
  // the warm-basis store go away).
  expr::ExprPool pool;
  {
    Engine engine;
    (void)engine.submit(linear_problem(pool));
    // ~Engine here, with the job possibly still queued.
  }
  SUCCEED();
}

TEST(Engine, InvalidJobHandleThrowsInsteadOfCrashing) {
  JobHandle empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.get(), std::logic_error);
  EXPECT_THROW(empty.done(), std::logic_error);
  EXPECT_THROW(empty.wait_for(0.0), std::logic_error);
  EXPECT_THROW(empty.cancel(), std::logic_error);
}

TEST(Engine, CampaignJsonEscapesScenarioNames) {
  expr::ExprPool pool;
  Engine engine;
  std::vector<Scenario> scenarios;
  scenarios.push_back({"quote\"back\\slash", linear_problem(pool)});
  const CampaignResult campaign = engine.run_campaign(
      std::span<const Scenario>(scenarios));
  const std::string json = campaign.to_json();
  EXPECT_NE(json.find("quote\\\"back\\\\slash"), std::string::npos);
  EXPECT_EQ(json.find("quote\"back"), std::string::npos);
}

// Every campaign job runs start to finish on one Engine worker: no job
// may start on a thread while another job is still open there. (A wait
// inside one job that runs another job stretches both, drains their
// wall-clock budgets and couples their results.) A job is open on its
// thread from its first progress event to its last, so a nested job
// shows up as one job's events inside another job's span.
TEST(Engine, CampaignJobsNeverNest) {
  constexpr std::size_t kScenarios = 8;
  scenario::GeneratorConfig config;
  config.seed = 1;
  config.count = kScenarios;
  config.jitter_templates = true;
  // One pool per scenario: concurrent jobs must not share an ExprPool.
  std::vector<expr::ExprPool> pools(kScenarios);
  std::vector<Scenario> scenarios;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    scenarios.push_back(
        scenario::ScenarioGenerator(pools[i], config).generate_one(i));
  }

  struct Event {
    std::thread::id tid;
    std::size_t job;
  };
  std::mutex events_mutex;
  std::vector<Event> events;  // in the order they happened
  Engine engine({.threads = 4});
  std::vector<JobHandle> handles;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    JobOptions job = scenario::zoo_job_defaults();
    if (scenarios[i].certificate) job.certificate = *scenarios[i].certificate;
    job.on_progress = [&events_mutex, &events, i](const JobProgress&) {
      std::lock_guard<std::mutex> lock(events_mutex);
      events.push_back({std::this_thread::get_id(), i});
    };
    handles.push_back(engine.submit(scenarios[i].problem, job));
  }
  for (const JobHandle& handle : handles) {
    EXPECT_TRUE(handle.get().error.ok());
  }

  // Per thread, each job's span [first, last] in event order.
  std::map<std::thread::id,
           std::map<std::size_t, std::pair<std::size_t, std::size_t>>>
      spans;
  for (std::size_t k = 0; k < events.size(); ++k) {
    const auto it =
        spans[events[k].tid].try_emplace(events[k].job, k, k).first;
    it->second.second = k;
  }
  std::size_t jobs_seen = 0;
  for (const auto& [tid, jobs] : spans) {
    jobs_seen += jobs.size();
    for (const auto& [outer, o] : jobs) {
      for (const auto& [inner, n] : jobs) {
        EXPECT_FALSE(o.first < n.first && n.first < o.second)
            << "job " << inner << " started inside job " << outer;
      }
    }
  }
  EXPECT_EQ(jobs_seen, kScenarios);  // each job ran on exactly one thread
}

}  // namespace
}  // namespace bcert::core
