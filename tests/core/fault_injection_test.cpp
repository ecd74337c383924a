// Fault-injection matrix for the fault-tolerant Engine: the
// deterministic registry itself (spec grammar, exact-hit / every-N
// triggers, delay actions), the per-job resource governor
// (MemoryBudget + kResourceExhausted), the degradation ladder
// (jit → tape, tape → tree, cache trip → cold start — each degraded run
// must be bit-identical to the matching clean fallback configuration), the
// campaign isolation/retry/quarantine machinery, and the JSON error
// reporting with full string escaping.
#include "src/core/fault.h"

#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/report.h"
#include "src/core/runtime_config.h"
#include "src/lp/simplex.h"
#include "src/smt/hc4.h"

namespace bcert::core {
namespace {

using linalg::Vector;

/// RAII: installs a fault spec for the test body, disarms on exit.
class ScopedFaultSpec {
 public:
  explicit ScopedFaultSpec(const std::string& spec) {
    std::vector<std::string> errors;
    ok_ = FaultRegistry::configure(spec, &errors);
    EXPECT_TRUE(ok_) << (errors.empty() ? "?" : errors.front());
  }
  ~ScopedFaultSpec() { FaultRegistry::clear(); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

/// RAII: overrides the active RuntimeConfig (and with it the armed
/// fault spec — set_active(config) re-installs config.fault_spec).
class ScopedActiveConfig {
 public:
  explicit ScopedActiveConfig(const RuntimeConfig& next)
      : saved_(RuntimeConfig::active()) {
    RuntimeConfig::set_active(next);
  }
  ~ScopedActiveConfig() { RuntimeConfig::set_active(saved_); }

 private:
  RuntimeConfig saved_;
};

/// Analytic workload (matches tests/engine_test.cpp): ẋ = −x decays to
/// the origin and the whole pipeline is deterministic.
BarrierProblem linear_problem(expr::ExprPool& pool) {
  BarrierProblem p;
  p.pool = &pool;
  p.sim_field = [](const Vector& x) { return Vector{-x[0], -x[1]}; };
  p.sym_field = {pool.neg(pool.var(0)), pool.neg(pool.var(1))};
  p.initial_set = {{-0.5, -0.5}, {0.5, 0.5}};
  p.safe_rect = {{-2.0, -2.0}, {2.0, 2.0}};
  return p;
}

EngineOptions serial_engine() {
  EngineOptions eo;
  eo.threads = 1;           // fault hit numbers map to submission order
  eo.share_lp_basis = false;  // retries must not reshuffle basis handoff
  return eo;
}

void expect_bit_identical(const VerifyResult& a, const VerifyResult& b) {
  ASSERT_EQ(a.status, b.status)
      << verify_status_name(a.status) << " vs "
      << verify_status_name(b.status);
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
  EXPECT_EQ(a.timings.candidate_iterations, b.timings.candidate_iterations);
  EXPECT_EQ(a.timings.lp_solves, b.timings.lp_solves);
  EXPECT_EQ(a.timings.smt5_queries, b.timings.smt5_queries);
}

// --- registry -------------------------------------------------------------

TEST(FaultRegistry, ValidateAcceptsGrammarAndRejectsJunk) {
  std::vector<std::string> errors;
  EXPECT_TRUE(FaultRegistry::validate(
      "tape_compile:throw@3,lp_solve:delay=50ms@every:7,alloc:throw",
      &errors));
  EXPECT_TRUE(errors.empty());

  EXPECT_FALSE(FaultRegistry::validate("no_such_point:throw", &errors));
  EXPECT_FALSE(FaultRegistry::validate("lp_solve:explode", &errors));
  EXPECT_FALSE(FaultRegistry::validate("lp_solve:delay=99999999ms", &errors));
  EXPECT_FALSE(FaultRegistry::validate("lp_solve:throw@zero", &errors));
  EXPECT_FALSE(FaultRegistry::validate("lp_solve:throw@every:0", &errors));
  EXPECT_EQ(errors.size(), 5u);
  // A failed configure must leave the registry disarmed.
  EXPECT_FALSE(FaultRegistry::configure("no_such_point:throw"));
  EXPECT_FALSE(FaultRegistry::enabled());
}

TEST(FaultRegistry, ThrowFiresOnExactlyTheNthHit) {
  ScopedFaultSpec spec("lp_solve:throw@3");
  EXPECT_TRUE(FaultRegistry::enabled());
  EXPECT_NO_THROW(FaultRegistry::check(FaultPoint::kLpSolve));
  EXPECT_NO_THROW(FaultRegistry::check(FaultPoint::kLpSolve));
  try {
    FaultRegistry::check(FaultPoint::kLpSolve);
    FAIL() << "third hit must throw";
  } catch (const FaultInjected& e) {
    EXPECT_EQ(e.point(), FaultPoint::kLpSolve);
    EXPECT_NE(std::string(e.what()).find("lp_solve"), std::string::npos);
  }
  EXPECT_NO_THROW(FaultRegistry::check(FaultPoint::kLpSolve));
  EXPECT_EQ(FaultRegistry::hits(FaultPoint::kLpSolve), 4u);
  // Unrelated points stay dark.
  EXPECT_NO_THROW(FaultRegistry::check(FaultPoint::kTapeCompile));
  EXPECT_FALSE(FaultRegistry::trip(FaultPoint::kCacheLookup));
}

TEST(FaultRegistry, EveryNTriggerTripsPeriodically) {
  ScopedFaultSpec spec("cache_lookup:throw@every:2");
  EXPECT_FALSE(FaultRegistry::trip(FaultPoint::kCacheLookup));
  EXPECT_TRUE(FaultRegistry::trip(FaultPoint::kCacheLookup));
  EXPECT_FALSE(FaultRegistry::trip(FaultPoint::kCacheLookup));
  EXPECT_TRUE(FaultRegistry::trip(FaultPoint::kCacheLookup));
}

TEST(FaultRegistry, DelayActionSleepsWithoutThrowing) {
  ScopedFaultSpec spec("lp_pivot:delay=20ms@1");
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_NO_THROW(FaultRegistry::check(FaultPoint::kLpPivot));
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed.count() * 1000.0, 15.0);
}

TEST(FaultRegistry, ClearDisarmsAndResetsCounters) {
  FaultRegistry::configure("lp_solve:throw@1");
  FaultRegistry::check(FaultPoint::kTapeCompile);
  FaultRegistry::clear();
  EXPECT_FALSE(FaultRegistry::enabled());
  EXPECT_EQ(FaultRegistry::hits(FaultPoint::kTapeCompile), 0u);
  // Disarmed checks are free no-ops and do not even count hits.
  FaultRegistry::check(FaultPoint::kLpSolve);
  EXPECT_EQ(FaultRegistry::hits(FaultPoint::kLpSolve), 0u);
}

// --- resource governor ----------------------------------------------------

TEST(MemoryBudget, QuotaChargesAndLatchesExhaustion) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.try_charge(60));
  EXPECT_EQ(budget.used(), 60u);
  EXPECT_FALSE(budget.try_charge(50));  // 110 > 100
  EXPECT_EQ(budget.used(), 60u);        // failed charge rolls back
  EXPECT_TRUE(budget.exhausted());      // ...but latches
  budget.release(60);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(budget.try_charge(100));
  EXPECT_TRUE(budget.exhausted());  // the latch is one-way per job
}

TEST(MemoryBudget, UnlimitedBudgetOnlyAccounts) {
  MemoryBudget budget;  // quota 0 = unlimited
  EXPECT_TRUE(budget.try_charge(1ull << 40));
  EXPECT_FALSE(budget.exhausted());
}

TEST(MemoryBudget, AllocFaultForcesChargeFailure) {
  ScopedFaultSpec spec("alloc:throw@1");
  MemoryBudget budget;  // even an unlimited budget fails on the trip
  EXPECT_FALSE(budget.try_charge(8));
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_TRUE(budget.try_charge(8));  // only the first hit was armed
}

// --- LP interrupt + fault checks ------------------------------------------

TEST(SimplexInterrupt, InterruptHookStopsTheSolve) {
  lp::LpProblem p = lp::LpProblem::with_free_vars(2);
  p.objective = Vector{2.0, 3.0};
  p.lower = {0.0, 0.0};
  p.add_row(Vector{1.0, 1.0}, lp::RowRel::kGe, 4.0);
  lp::SimplexOptions opts;
  opts.interrupt = [] { return true; };
  const lp::LpSolution s = lp::solve_lp(p, opts);
  EXPECT_EQ(s.status, lp::LpStatus::kInterrupted)
      << lp_status_name(s.status);
  EXPECT_EQ(s.x.size(), 0u);  // non-optimal statuses carry no solution

  lp::SimplexOptions clean;
  const lp::LpSolution full = lp::solve_lp(p, clean);
  EXPECT_EQ(full.status, lp::LpStatus::kOptimal);
}

TEST(SimplexInterrupt, LpSolveFaultBecomesTypedJobError) {
  // Prime the runtime config first: the job's lazy active() init would
  // otherwise (re)install the env fault spec and disarm ours.
  RuntimeConfig clean = RuntimeConfig::active();
  clean.fault_spec.clear();
  ScopedActiveConfig guard(clean);

  expr::ExprPool pool;
  Engine engine(serial_engine());
  ScopedFaultSpec spec("lp_solve:throw@1");
  const VerifyResult r = engine.verify(linear_problem(pool));
  EXPECT_EQ(r.status, VerifyStatus::kInternalError);
  EXPECT_EQ(r.error.code, ErrorCode::kFaultInjected);
  EXPECT_TRUE(r.error.retryable());
  EXPECT_NE(r.error.message.find("lp_solve"), std::string::npos);
}

// --- degradation ladder ---------------------------------------------------

// An injected tape-compilation failure must walk the contractor down to
// the tree HC4 backend — and produce a result bit-identical to running
// with BCERT_HC4_MODE=tree outright (the clean fallback configuration).
TEST(DegradationLadder, TapeFaultMatchesTreeModeBitIdentical) {
  RuntimeConfig tree = RuntimeConfig::active();
  tree.fault_spec.clear();
  tree.hc4_mode = ConfigHc4Mode::kTree;
  RuntimeConfig tape = tree;
  tape.hc4_mode = ConfigHc4Mode::kTape;

  expr::ExprPool pool_a;
  VerifyResult tree_result;
  {
    ScopedActiveConfig guard(tree);
    Engine engine(serial_engine());
    tree_result = engine.verify(linear_problem(pool_a));
  }
  ASSERT_TRUE(tree_result.safe()) << verify_status_name(tree_result.status);
  EXPECT_EQ(tree_result.degradation.tape_to_tree, 0u);

  expr::ExprPool pool_b;
  VerifyResult faulted;
  {
    ScopedActiveConfig guard(tape);
    ScopedFaultSpec spec("tape_compile:throw");  // every compile fails
    Engine engine(serial_engine());
    faulted = engine.verify(linear_problem(pool_b));
  }
  expect_bit_identical(tree_result, faulted);
  EXPECT_GT(faulted.degradation.tape_to_tree, 0u);
  EXPECT_TRUE(faulted.error.ok());  // degraded, not failed
}

// The ladder attributes each failure to the rung that failed. Under the
// default backend (the native one where the build has it) a failing
// tape compile is a tape failure: straight to the tree backend, never a
// jit_to_tape, and bit-identical to tree mode.
TEST(DegradationLadder, TapeFaultUnderDefaultBackendIsOneTreeRung) {
  RuntimeConfig tree = RuntimeConfig::active();
  tree.fault_spec.clear();
  tree.hc4_mode = ConfigHc4Mode::kTree;
  RuntimeConfig defaults = tree;
  defaults.hc4_mode = RuntimeConfig{}.hc4_mode;

  expr::ExprPool pool_a;
  VerifyResult tree_result;
  {
    ScopedActiveConfig guard(tree);
    Engine engine(serial_engine());
    tree_result = engine.verify(linear_problem(pool_a));
  }
  ASSERT_TRUE(tree_result.safe()) << verify_status_name(tree_result.status);

  expr::ExprPool pool_b;
  VerifyResult faulted;
  {
    ScopedActiveConfig guard(defaults);
    ScopedFaultSpec spec("tape_compile:throw");  // every compile fails
    Engine engine(serial_engine());
    faulted = engine.verify(linear_problem(pool_b));
  }
  expect_bit_identical(tree_result, faulted);
  EXPECT_GT(faulted.degradation.tape_to_tree, 0u);
  EXPECT_EQ(faulted.degradation.jit_to_tape, 0u);
  EXPECT_TRUE(faulted.error.ok());
}

// A failing native emission falls back to the very tape it was emitted
// from: no tape_to_tree, and every distinct tape is compiled once — the
// fallback never compiles it a second time.
TEST(DegradationLadder, JitFaultReusesTheFetchedTape) {
  RuntimeConfig defaults = RuntimeConfig::active();
  defaults.fault_spec.clear();
  defaults.hc4_mode = RuntimeConfig{}.hc4_mode;
  ScopedActiveConfig guard(defaults);

  expr::ExprPool pool_a;
  Engine clean(serial_engine());
  const VerifyResult baseline = clean.verify(linear_problem(pool_a));
  ASSERT_TRUE(baseline.safe()) << verify_status_name(baseline.status);

  expr::ExprPool pool_b;
  Engine engine(serial_engine());
  ScopedFaultSpec spec("jit_compile:throw");  // every emission fails
  const VerifyResult faulted = engine.verify(linear_problem(pool_b));
  expect_bit_identical(baseline, faulted);
  EXPECT_EQ(faulted.degradation.tape_to_tree, 0u);
  if (smt::resolve_hc4_mode(smt::Hc4Mode::kAuto) == smt::Hc4Mode::kJit) {
    EXPECT_GT(faulted.degradation.jit_to_tape, 0u);
  }
  const smt::KeyedCacheStats tapes = engine.tape_cache().stats();
  EXPECT_GT(tapes.insertions, 0u);
  EXPECT_EQ(FaultRegistry::hits(FaultPoint::kTapeCompile), tapes.insertions);
  // One tape-store lookup per query, exactly as in the clean run.
  const smt::KeyedCacheStats clean_tapes = clean.tape_cache().stats();
  EXPECT_EQ(tapes.hits, clean_tapes.hits);
  EXPECT_EQ(tapes.misses, clean_tapes.misses);
}

// A tripped cache lookup must behave exactly like the cold-start path
// that already exists for stale seeds: same results, cache_cold counted.
TEST(DegradationLadder, CacheTripColdStartsBitIdentical) {
  RuntimeConfig clean = RuntimeConfig::active();
  clean.fault_spec.clear();
  ScopedActiveConfig guard(clean);

  expr::ExprPool pool_a;
  Engine fresh(serial_engine());
  const VerifyResult baseline = fresh.verify(linear_problem(pool_a));
  ASSERT_TRUE(baseline.safe()) << verify_status_name(baseline.status);

  expr::ExprPool pool_b;
  Engine engine(serial_engine());
  const BarrierProblem problem = linear_problem(pool_b);
  ScopedFaultSpec spec("cache_lookup:throw");  // every probe trips
  const VerifyResult first = engine.verify(problem);
  const VerifyResult second = engine.verify(problem);
  expect_bit_identical(baseline, first);
  expect_bit_identical(baseline, second);
  EXPECT_GT(second.degradation.cache_cold, 0u);
}

TEST(ResourceGovernor, TinyQuotaYieldsTypedResourceExhausted) {
  expr::ExprPool pool;
  Engine engine(serial_engine());
  JobOptions opts;
  opts.mem_quota_bytes = 1;  // first frontier charge already fails
  const VerifyResult r = engine.verify(linear_problem(pool), opts);
  EXPECT_EQ(r.status, VerifyStatus::kResourceExhausted)
      << verify_status_name(r.status);
  EXPECT_EQ(r.error.code, ErrorCode::kResourceExhausted);
  EXPECT_FALSE(r.error.retryable());  // deterministic: retry won't help
  EXPECT_NE(r.error.message.find("quota"), std::string::npos);
}

// --- campaign isolation / retry / quarantine ------------------------------

// Eight scenarios, faults injected into three of them: the campaign
// must complete, the clean five must be bit-identical to a fault-free
// campaign, and the faulted three must recover via retry with their
// attempt counts recorded.
TEST(Campaign, RetriesTransientFaultsAndKeepsCleanScenariosIdentical) {
  RuntimeConfig clean_config = RuntimeConfig::active();
  clean_config.fault_spec.clear();
  ScopedActiveConfig config_guard(clean_config);

  constexpr std::size_t kScenarios = 8;
  const JobOptions opts{};

  expr::ExprPool pool_a;
  std::vector<Scenario> scenarios_a;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    scenarios_a.push_back(
        {"s" + std::to_string(i), linear_problem(pool_a)});
  }
  Engine clean_engine(serial_engine());
  const CampaignResult clean = clean_engine.run_campaign(
      std::span<const Scenario>(scenarios_a), opts);
  ASSERT_EQ(clean.scenarios.size(), kScenarios);
  ASSERT_EQ(clean.failed_count, 0);

  expr::ExprPool pool_b;
  std::vector<Scenario> scenarios_b;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    scenarios_b.push_back(
        {"s" + std::to_string(i), linear_problem(pool_b)});
  }
  Engine engine(serial_engine());
  // threads=1 executes jobs in submission order, so dispatch hits 2, 5
  // and 7 are scenarios s1, s4 and s6; their retries are hits 9+ and
  // run clean.
  ScopedFaultSpec spec(
      "worker_dispatch:throw@2,worker_dispatch:throw@5,"
      "worker_dispatch:throw@7");
  const CampaignResult faulted =
      engine.run_campaign(std::span<const Scenario>(scenarios_b), opts);

  ASSERT_EQ(faulted.scenarios.size(), kScenarios);
  EXPECT_EQ(faulted.failed_count, 0);  // every fault recovered via retry
  EXPECT_TRUE(faulted.quarantined.empty());
  for (std::size_t i = 0; i < kScenarios; ++i) {
    SCOPED_TRACE(faulted.scenarios[i].name);
    const bool was_faulted = i == 1 || i == 4 || i == 6;
    EXPECT_EQ(faulted.scenarios[i].attempts, was_faulted ? 2 : 1);
    EXPECT_EQ(faulted.scenarios[i].result.degradation.retries,
              was_faulted ? 1u : 0u);
    EXPECT_FALSE(faulted.scenarios[i].quarantined);
    EXPECT_TRUE(faulted.scenarios[i].result.error.ok());
    expect_bit_identical(clean.scenarios[i].result,
                         faulted.scenarios[i].result);
  }
}

TEST(Campaign, PersistentFailuresAreQuarantinedWithPartialResults) {
  RuntimeConfig clean_config = RuntimeConfig::active();
  clean_config.fault_spec.clear();
  ScopedActiveConfig config_guard(clean_config);

  expr::ExprPool pool;
  std::vector<Scenario> scenarios;
  for (int i = 0; i < 3; ++i) {
    scenarios.push_back({"doomed-" + std::to_string(i),
                         linear_problem(pool)});
  }
  Engine engine(serial_engine());
  JobOptions opts;
  opts.retry.max_retries = 1;
  opts.retry.backoff_s = 0.001;
  ScopedFaultSpec spec("worker_dispatch:throw@every:1");  // every attempt
  const CampaignResult out = engine.run_campaign(
      std::span<const Scenario>(scenarios), opts);

  ASSERT_EQ(out.scenarios.size(), 3u);  // campaign completed regardless
  EXPECT_EQ(out.failed_count, 3);
  ASSERT_EQ(out.quarantined.size(), 3u);
  for (const ScenarioOutcome& s : out.scenarios) {
    SCOPED_TRACE(s.name);
    EXPECT_EQ(s.attempts, 2);  // 1 + max_retries
    EXPECT_TRUE(s.quarantined);
    EXPECT_EQ(s.result.status, VerifyStatus::kInternalError);
    EXPECT_EQ(s.result.error.code, ErrorCode::kFaultInjected);
  }
  const std::string json = out.to_json();
  EXPECT_NE(json.find("\"fault_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": [\"doomed-0\", \"doomed-1\", "
                      "\"doomed-2\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"failed_count\": 3"), std::string::npos);
}

TEST(Campaign, WatchdogFlagsStuckWorkerAndCompletes) {
  RuntimeConfig clean_config = RuntimeConfig::active();
  clean_config.fault_spec.clear();
  ScopedActiveConfig config_guard(clean_config);

  expr::ExprPool pool;
  const std::vector<Scenario> scenarios = {
      {"stuck", linear_problem(pool)}};
  Engine engine(serial_engine());
  JobOptions opts;
  opts.deadline_s = 0.05;
  opts.stuck_grace_s = 0.05;
  // The dispatch stalls far past deadline + 2×grace and never polls the
  // cancellation token while sleeping — a stuck worker, not a slow one.
  ScopedFaultSpec spec("worker_dispatch:delay=500ms@1");
  const CampaignResult out = engine.run_campaign(
      std::span<const Scenario>(scenarios), opts);

  ASSERT_EQ(out.scenarios.size(), 1u);
  EXPECT_EQ(out.scenarios[0].result.error.code, ErrorCode::kWorkerStuck);
  EXPECT_EQ(out.scenarios[0].attempts, 1);  // kWorkerStuck: no retry
  EXPECT_TRUE(out.scenarios[0].quarantined);
  EXPECT_EQ(out.failed_count, 1);
  // Engine destruction then waits for the abandoned worker to drain.
}

// --- JSON escaping --------------------------------------------------------

/// Inverse of json_escape for round-trip checking.
std::string json_unescape(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        const int hi = std::stoi(s.substr(i + 1, 4), nullptr, 16);
        out.push_back(static_cast<char>(hi));
        i += 4;
        break;
      }
      default: ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

/// Extracts the contents of the JSON string literal that follows
/// `"<key>": "` in \p json (still escaped).
std::string string_field_after(const std::string& json,
                               const std::string& key) {
  const std::string marker = "\"" + key + "\": \"";
  const std::size_t begin = json.find(marker) + marker.size();
  EXPECT_NE(begin, std::string::npos + marker.size());
  std::size_t end = begin;
  while (end < json.size() &&
         !(json[end] == '"' && json[end - 1] != '\\')) {
    // A literal backslash escape ("\\\\") must not hide a closing quote.
    if (json[end] == '\\' && end + 1 < json.size()) ++end;
    ++end;
  }
  return json.substr(begin, end - begin);
}

TEST(JsonEscaping, EscapeRoundTripsControlAndQuoteCharacters) {
  const std::string nasty =
      "quote\" back\\slash\nnewline\ttab\rret\x01\x1f end";
  const std::string escaped = json_escape(nasty);
  // No raw control characters survive, and every quote is escaped.
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(escaped[i]), 0x20);
    if (escaped[i] == '"') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(escaped[i - 1], '\\');
    }
  }
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_EQ(json_unescape(escaped), nasty);
}

TEST(JsonEscaping, CampaignJsonCarriesEscapedNamesAndTypedErrors) {
  const std::string nasty = "scenario \"7\"\\dubins\n\x02";
  CampaignResult out;
  ScenarioOutcome s;
  s.name = nasty;
  s.attempts = 3;
  s.quarantined = true;
  s.result.status = VerifyStatus::kInternalError;
  s.result.error =
      Status(ErrorCode::kFaultInjected, "fault \"thrown\" at\n\tpivot");
  s.result.degradation.retries = 2;
  s.result.degradation.tape_to_tree = 1;
  out.scenarios.push_back(std::move(s));
  out.quarantined.push_back(nasty);
  out.failed_count = 1;

  const std::string json = out.to_json();
  EXPECT_EQ(json_unescape(string_field_after(json, "name")), nasty);
  EXPECT_EQ(json_unescape(string_field_after(json, "message")),
            "fault \"thrown\" at\n\tpivot");
  EXPECT_NE(json.find("\"code\": \"fault_injected\""), std::string::npos);
  EXPECT_NE(json.find("\"attempts\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": true"), std::string::npos);
  EXPECT_NE(json.find("\"retries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tape_to_tree\": 1"), std::string::npos);
  // Raw control characters must never reach the document.
  for (const char c : json) {
    if (c == '\n') continue;  // the pretty-printer's own newlines
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);
  }
}

}  // namespace
}  // namespace bcert::core
