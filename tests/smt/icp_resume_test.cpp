// δ-refinement resume tests: a δ-SAT answer of the DNF sweep keeps the
// rest of its depth-first search, and re-asking the same query at a
// smaller δ continues it. Every resumed step must be bit-identical to a
// fresh solve on an identically built twin (pool and caches): verdict,
// witness bits, statistics, published trees and cache counters. The
// fallbacks (changed seed, other box, larger δ, armed faults, memory
// quota) solve afresh, and every memory charge a suspension holds
// returns when it ends or is dropped.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fault.h"
#include "src/core/runtime_config.h"
#include "src/expr/expr.h"
#include "src/smt/icp_solver.h"
#include "src/smt/tape.h"
#include "src/smt/unsat_tree.h"

namespace bcert::smt {
namespace {

using expr::ExprId;
using expr::ExprPool;
using interval::Box;

/// h = (x+y)² − x² − 2xy − y² is identically zero, but its interval
/// enclosure over a box straddles zero by an amount proportional to the
/// box width (the dependency problem). `h ≥ eps` is therefore δ-SAT for
/// every δ down to roughly eps, and only refutable below that.
ExprId dependency_zero(ExprPool& pool) {
  const ExprId x = pool.var(0);
  const ExprId y = pool.var(1);
  return pool.sub(
      pool.sub(pool.sub(pool.sqr(pool.add(x, y)), pool.sqr(x)),
               pool.mul(pool.constant(2.0), pool.mul(x, y))),
      pool.sqr(y));
}

/// Two disjuncts over [-1, 1]²: the first is UNSAT at every δ from
/// kDelta0 down but refuted only by subdividing (it publishes a split
/// tree that warm-seeds its next solve); the second is δ-SAT at every δ
/// a test uses, and its search prunes part of the box (sin 6x · sin 6y
/// ≥ 0.95 holds in small blobs only) before its first witness, so a
/// resume skips a real prefix.
Dnf surviving_query(ExprPool& pool) {
  const ExprId h = dependency_zero(pool);
  Conjunction refuted;
  refuted.add(pool.sub(pool.mul(pool.constant(1.25), h), pool.constant(0.1)),
              Rel::kGe);
  Conjunction surviving;
  surviving.add(
      pool.sub(pool.mul(pool.constant(1.25), h), pool.constant(1e-9)),
      Rel::kGe);
  surviving.add(pool.sub(pool.mul(pool.sin(pool.mul(pool.constant(6.0),
                                                     pool.var(0))),
                                  pool.sin(pool.mul(pool.constant(6.0),
                                                     pool.var(1)))),
                         pool.constant(0.95)),
                Rel::kGe);
  return Dnf({refuted, surviving});
}

/// One disjunct that is δ-SAT at coarse δ and UNSAT at fine δ: the
/// dependency slack over a small disk must shrink below eps.
Dnf refuted_late_query(ExprPool& pool) {
  const ExprId x = pool.var(0);
  const ExprId y = pool.var(1);
  Conjunction c;
  c.add(pool.sub(pool.mul(pool.constant(1.25), dependency_zero(pool)),
                 pool.constant(2e-3)),
        Rel::kGe);
  c.add(pool.sub(pool.add(pool.sqr(pool.sub(x, pool.constant(0.6))),
                          pool.sqr(pool.sub(y, pool.constant(0.55)))),
                 pool.constant(4e-4)),
        Rel::kLe);
  return Dnf::single(std::move(c));
}

Box search_box() { return Box::from_bounds({{-1.0, 1.0}, {-1.0, 1.0}}); }

/// An identically built pool, query and cache set. Two twins answer
/// every query identically as long as they are asked the same things.
struct Twin {
  ExprPool pool;
  Dnf query;
  std::shared_ptr<TapeCache> tapes = std::make_shared<TapeCache>();
  std::shared_ptr<UnsatTreeCache> trees = std::make_shared<UnsatTreeCache>();

  explicit Twin(Dnf (*build)(ExprPool&)) : query(build(pool)) {}

  IcpConfig config(double delta) const {
    IcpConfig config;
    config.delta = delta;
    config.max_boxes = 5'000'000;
    config.time_limit_s = 300.0;
    config.tape_cache = tapes;
    config.unsat_cache = trees;
    return config;
  }

  IcpResult solve(double delta,
                  std::shared_ptr<IcpSuspension> resume = nullptr) const {
    return IcpSolver(pool, config(delta))
        .solve(query, search_box(), std::move(resume));
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_bits(const Box& a, const Box& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i].lo(), b[i].lo()) || !same_bits(a[i].hi(), b[i].hi())) {
      return false;
    }
  }
  return true;
}

/// Everything but solve_time_s (wall clock).
void expect_identical(const IcpResult& resumed, const IcpResult& fresh,
                      const std::string& step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(resumed.verdict, fresh.verdict);
  ASSERT_EQ(resumed.witness.has_value(), fresh.witness.has_value());
  if (resumed.witness) {
    EXPECT_TRUE(same_bits(*resumed.witness, *fresh.witness));
  }
  EXPECT_EQ(resumed.stats.boxes_processed, fresh.stats.boxes_processed);
  EXPECT_EQ(resumed.stats.boxes_pruned, fresh.stats.boxes_pruned);
  EXPECT_EQ(resumed.stats.splits, fresh.stats.splits);
  EXPECT_EQ(resumed.stats.warm_starts, fresh.stats.warm_starts);
  EXPECT_TRUE(same_bits(resumed.stats.max_depth_width,
                        fresh.stats.max_depth_width));
  EXPECT_EQ(resumed.suspension != nullptr, fresh.suspension != nullptr);
}

void expect_same_stats(const KeyedCacheStats& a, const KeyedCacheStats& b) {
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.entries, b.entries);
}

/// The twins' caches: same counters, same published trees.
void expect_same_caches(const Twin& a, const Twin& b) {
  expect_same_stats(a.tapes->stats(), b.tapes->stats());
  expect_same_stats(a.tapes->jit_stats(), b.tapes->jit_stats());
  expect_same_stats(a.trees->stats(), b.trees->stats());
  EXPECT_EQ(a.trees->stale(), b.trees->stale());
  const auto ea = a.trees->export_entries();
  const auto eb = b.trees->export_entries();
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].content, eb[i].content);
    EXPECT_TRUE(same_bits(ea[i].tree->root_box, eb[i].tree->root_box));
    ASSERT_EQ(ea[i].tree->nodes.size(), eb[i].tree->nodes.size());
    for (std::size_t n = 0; n < ea[i].tree->nodes.size(); ++n) {
      const UnsatTree::Node& x = ea[i].tree->nodes[n];
      const UnsatTree::Node& y = eb[i].tree->nodes[n];
      EXPECT_EQ(x.dim, y.dim);
      EXPECT_TRUE(same_bits(x.value, y.value));
      EXPECT_EQ(x.left, y.left);
      EXPECT_EQ(x.right, y.right);
    }
  }
}

constexpr double kDelta0 = 2.5e-3;
/// Where refuted_late_query still answers δ-SAT for a few steps.
constexpr double kLateDelta0 = 4e-2;

/// Armed faults switch resuming off (a skipped prefix would not advance
/// the fault counters), so the resume-specific assertions cannot hold.
bool faults_armed() {
  core::RuntimeConfig::active();  // installs any BCERT_FAULT spec
  return core::FaultRegistry::enabled();
}

TEST(IcpResume, ResumedChainIsBitIdenticalToFreshSolves) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  Twin resumed(surviving_query);
  Twin fresh(surviving_query);
  double delta = kDelta0;
  IcpResult r = resumed.solve(delta);
  IcpResult f = fresh.solve(delta);
  expect_identical(r, f, "step 0");
  ASSERT_EQ(r.verdict, SatResult::kDeltaSat);
  ASSERT_NE(r.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*r.suspension), 0u);
  // The first witness lies past a pruned prefix.
  ASSERT_GT(r.stats.boxes_pruned, 10u);

  for (std::uint32_t step = 1; step <= 6; ++step) {
    delta *= 0.25;
    r = resumed.solve(delta, std::move(r.suspension));
    f = fresh.solve(delta);
    expect_identical(r, f, "step " + std::to_string(step));
    ASSERT_EQ(r.verdict, SatResult::kDeltaSat);
    ASSERT_NE(r.suspension, nullptr);
    EXPECT_EQ(resumed_steps(*r.suspension), step);
    EXPECT_EQ(resumed_steps(*f.suspension), 0u);
  }
  expect_same_caches(resumed, fresh);
}

TEST(IcpResume, ChainEndingUnsatPublishesTheSameTree) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  Twin resumed(refuted_late_query);
  Twin fresh(refuted_late_query);
  double delta = kLateDelta0;
  IcpResult r = resumed.solve(delta);
  IcpResult f = fresh.solve(delta);
  expect_identical(r, f, "step 0");
  int sat_steps = 0;
  for (int step = 1; r.verdict == SatResult::kDeltaSat && step <= 12;
       ++step) {
    ++sat_steps;
    delta *= 0.25;
    r = resumed.solve(delta, std::move(r.suspension));
    f = fresh.solve(delta);
    expect_identical(r, f, "step " + std::to_string(step));
  }
  EXPECT_GE(sat_steps, 2) << "query too easy to exercise a chain";
  ASSERT_EQ(r.verdict, SatResult::kUnsat);
  EXPECT_EQ(r.suspension, nullptr);
  EXPECT_EQ(resumed.trees->size(), 1u);
  expect_same_caches(resumed, fresh);
}

TEST(IcpResume, ChangedSeedSolvesAfresh) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  Twin resumed(surviving_query);
  Twin fresh(surviving_query);
  IcpResult r = resumed.solve(kDelta0);
  IcpResult f = fresh.solve(kDelta0);
  ASSERT_NE(r.suspension, nullptr);

  // A tree for the surviving disjunct's shape appears between the steps
  // (as another candidate's proof would): the next lookup returns a
  // seed the suspended search did not start from.
  for (Twin* t : {&resumed, &fresh}) {
    auto tree = std::make_shared<UnsatTree>();
    tree->root_box = search_box();
    tree->nodes = {{0, 0.125, 1, 2}, {}, {}};
    t->trees->store(t->pool, t->query.disjuncts[1], std::move(tree));
  }
  r = resumed.solve(kDelta0 * 0.25, std::move(r.suspension));
  f = fresh.solve(kDelta0 * 0.25);
  expect_identical(r, f, "after the seed changed");
  EXPECT_EQ(r.stats.warm_starts, 2u);  // both disjuncts seeded
  ASSERT_NE(r.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*r.suspension), 0u);

  // The new search resumes again once the seed is stable.
  r = resumed.solve(kDelta0 / 16.0, std::move(r.suspension));
  f = fresh.solve(kDelta0 / 16.0);
  expect_identical(r, f, "seed stable again");
  ASSERT_NE(r.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*r.suspension), 1u);
  expect_same_caches(resumed, fresh);
}

TEST(IcpResume, OtherBoxOrLargerDeltaSolvesAfresh) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  Twin resumed(surviving_query);
  Twin fresh(surviving_query);
  IcpResult r = resumed.solve(kDelta0 * 0.25);
  IcpResult f = fresh.solve(kDelta0 * 0.25);
  ASSERT_NE(r.suspension, nullptr);

  // A larger δ could stop the search before the suspended witness.
  r = resumed.solve(kDelta0, std::move(r.suspension));
  f = fresh.solve(kDelta0);
  expect_identical(r, f, "larger delta");
  ASSERT_NE(r.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*r.suspension), 0u);

  // A different box is a different query.
  const Box other = Box::from_bounds({{-1.0, 1.0}, {-1.0, 0.9375}});
  const double delta = kDelta0 * 0.25;
  r = IcpSolver(resumed.pool, resumed.config(delta))
          .solve(resumed.query, other, std::move(r.suspension));
  f = IcpSolver(fresh.pool, fresh.config(delta)).solve(fresh.query, other);
  expect_identical(r, f, "other box");
  ASSERT_NE(r.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*r.suspension), 0u);

  // A consumed suspension cannot be resumed twice.
  const std::shared_ptr<IcpSuspension> kept = r.suspension;
  const IcpResult once = IcpSolver(resumed.pool, resumed.config(delta / 4))
                             .solve(resumed.query, other, kept);
  ASSERT_NE(once.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*once.suspension), 1u);
  const IcpResult twice = IcpSolver(resumed.pool, resumed.config(delta / 4))
                              .solve(resumed.query, other, kept);
  ASSERT_NE(twice.suspension, nullptr);
  EXPECT_EQ(resumed_steps(*twice.suspension), 0u);
  EXPECT_EQ(twice.verdict, once.verdict);
}

TEST(IcpResume, BoxBudgetFiresInsideTheContinuation) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  // Learn the fresh box counts along the chain, pick the first step that
  // needs more boxes than every step before it, and set the budget in
  // between: the resumed step claims its skipped prefix and runs out
  // inside the continuation, at the fresh solve's count.
  std::vector<double> deltas;
  std::vector<std::uint64_t> boxes;
  {
    Twin probe(refuted_late_query);
    for (double delta = kLateDelta0;; delta *= 0.25) {
      const IcpResult r = probe.solve(delta);
      deltas.push_back(delta);
      boxes.push_back(r.stats.boxes_processed);
      if (r.verdict != SatResult::kDeltaSat) break;
    }
  }
  std::size_t k = 1;
  std::uint64_t before = boxes[0];
  while (k < boxes.size() && boxes[k] < before + 4) {
    before = std::max(before, boxes[k]);
    ++k;
  }
  ASSERT_LT(k, boxes.size()) << "no step outgrows its predecessors";
  const std::uint64_t budget = (before + boxes[k]) / 2;

  Twin resumed(refuted_late_query);
  Twin fresh(refuted_late_query);
  std::shared_ptr<IcpSuspension> suspension;
  for (std::size_t step = 0; step <= k; ++step) {
    IcpConfig rc = resumed.config(deltas[step]);
    IcpConfig fc = fresh.config(deltas[step]);
    rc.max_boxes = fc.max_boxes = budget;
    IcpResult r = IcpSolver(resumed.pool, rc)
                      .solve(resumed.query, search_box(),
                             std::move(suspension));
    const IcpResult f =
        IcpSolver(fresh.pool, fc).solve(fresh.query, search_box());
    expect_identical(r, f, "step " + std::to_string(step));
    suspension = std::move(r.suspension);
    if (step == k) {
      EXPECT_EQ(r.verdict, SatResult::kUnknown);
      EXPECT_EQ(r.stats.boxes_processed, budget);
    } else {
      ASSERT_NE(suspension, nullptr);
    }
  }
  expect_same_caches(resumed, fresh);
}

TEST(IcpResume, MemoryChargesReturnWhenAChainEndsOrIsDropped) {
  if (faults_armed()) GTEST_SKIP() << "fault injection armed: no resume";
  core::MemoryBudget mem;  // accounting only
  Twin twin(refuted_late_query);
  const auto solve = [&](double delta,
                         std::shared_ptr<IcpSuspension> resume) {
    IcpConfig config = twin.config(delta);
    config.mem_budget = &mem;
    return IcpSolver(twin.pool, config)
        .solve(twin.query, search_box(), std::move(resume));
  };

  // Dropped: the suspension holds its stack and tree charges until then.
  {
    IcpResult r = solve(kLateDelta0, nullptr);
    ASSERT_NE(r.suspension, nullptr);
    EXPECT_GT(mem.used(), 0u);
  }
  EXPECT_EQ(mem.used(), 0u);

  // Ended: the chain runs to UNSAT, and the last resume frees it all.
  double delta = kLateDelta0;
  IcpResult r = solve(delta, nullptr);
  while (r.verdict == SatResult::kDeltaSat) {
    delta *= 0.25;
    r = solve(delta, std::move(r.suspension));
  }
  EXPECT_EQ(r.verdict, SatResult::kUnsat);
  EXPECT_EQ(mem.used(), 0u);
  EXPECT_FALSE(mem.exhausted());

  // A memory quota switches suspending off.
  core::MemoryBudget quota(std::size_t{1} << 30);
  IcpConfig config = twin.config(kLateDelta0);
  config.mem_budget = &quota;
  const IcpResult q =
      IcpSolver(twin.pool, config).solve(twin.query, search_box());
  EXPECT_EQ(q.verdict, SatResult::kDeltaSat);
  EXPECT_EQ(q.suspension, nullptr);
  EXPECT_EQ(quota.used(), 0u);
}

TEST(IcpResume, ArmedFaultsSwitchSuspendingOff) {
  if (faults_armed()) GTEST_SKIP() << "a BCERT_FAULT spec is already armed";
  Twin twin(surviving_query);
  ASSERT_TRUE(core::FaultRegistry::configure("lp_solve:delay=1ms@1000000"));
  const IcpResult r = twin.solve(kDelta0);
  core::FaultRegistry::clear();
  EXPECT_EQ(r.verdict, SatResult::kDeltaSat);
  EXPECT_EQ(r.suspension, nullptr);
}

}  // namespace
}  // namespace bcert::smt
