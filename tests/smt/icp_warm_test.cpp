// UNSAT-tree warm-starting tests: warm-vs-cold equivalence on a
// verifier-shaped candidate sequence (same SAT/UNSAT answers, valid
// witnesses), the silent cold fallback on stale seeds, the
// poisoned-seed soundness guarantee (a wrong tree can never change a
// verdict — replayed leaves always partition the search box), and the
// bounded keyed stores (TapeCache / UnsatTreeCache LRU + stats).
#include <cmath>
#include <memory>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/runtime_config.h"
#include "src/expr/expr.h"
#include "src/smt/icp_solver.h"
#include "src/smt/unsat_tree.h"

namespace bcert::smt {
namespace {

using expr::ExprId;
using expr::ExprPool;
using interval::Box;
using interval::Interval;
using linalg::Vector;

/// Candidate-shaped query built on the interval dependency problem:
/// h = (x+y)² − x² − 2xy − y² is identically zero, but its natural
/// enclosure straddles zero with an error proportional to the box
/// width, and HC4's occurrence-wise projections cannot shortcut that.
/// The query asks ∃(x,y) : coeff·h − eps ≥ 0. With eps > 0 it is UNSAT
/// but only refutable by subdividing until every enclosure tightens
/// below eps — a genuine, reproducible split tree, the shape of the
/// verifier's hard SMT-(5) refutations. With eps < 0 it is satisfied
/// everywhere (h ≡ 0 ≥ eps) and SAT is found after a few splits.
/// `coeff` and `eps` are expression *constants*: every draw shares one
/// structure, which is exactly the warm-start hit pattern (only W's
/// coefficients change between candidate iterations). Keep coeff away
/// from 0/±1 so constant-folding cannot alter the shape.
Conjunction candidate_query(ExprPool& pool, double coeff, double eps) {
  const ExprId x = pool.var(0);
  const ExprId y = pool.var(1);
  const ExprId h = pool.sub(
      pool.sub(pool.sub(pool.sqr(pool.add(x, y)), pool.sqr(x)),
               pool.mul(pool.constant(2.0), pool.mul(x, y))),
      pool.sqr(y));
  Conjunction q;
  q.add(pool.sub(pool.mul(pool.constant(coeff), h), pool.constant(eps)),
        Rel::kGe);
  return q;
}

constexpr double kEps = 0.1;

Box search_box() { return Box::from_bounds({{-1.0, 1.0}, {-1.0, 1.0}}); }

IcpConfig warm_config(std::shared_ptr<UnsatTreeCache> cache) {
  IcpConfig config;
  config.delta = 1e-3;
  config.max_boxes = 2'000'000;
  config.time_limit_s = 120.0;
  config.unsat_cache = std::move(cache);
  return config;
}

TEST(IcpWarm, StructuralSignatureIgnoresConstantValues) {
  ExprPool pool;
  const Conjunction c1 = candidate_query(pool, 1.2, kEps);
  const Conjunction c2 = candidate_query(pool, 1.37, -0.09);
  EXPECT_EQ(structural_signature(pool, c1), structural_signature(pool, c2));

  // A different shape (extra constraint) must not collide.
  Conjunction c3 = candidate_query(pool, 1.2, kEps);
  c3.add(pool.sub(pool.var(0), pool.constant(1.0)), Rel::kLe);
  EXPECT_NE(structural_signature(pool, c1), structural_signature(pool, c3));

  // Same shape, different relation: distinct.
  Conjunction c4;
  c4.add(c1.constraints[0].lhs, Rel::kLe);
  EXPECT_NE(structural_signature(pool, c1), structural_signature(pool, c4));
}

TEST(IcpWarm, RepeatedQueryWarmStartsAndProcessesFewerBoxes) {
  // An armed cache_lookup fault legitimately forces cold starts; the
  // counters this test pins would then undercount by design.
  core::RuntimeConfig::active();  // installs any BCERT_FAULT spec
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: warm-start stats not stable";
  }
  ExprPool pool;
  const auto cache = std::make_shared<UnsatTreeCache>();
  const IcpSolver solver(pool, warm_config(cache));
  const Conjunction q = candidate_query(pool, 1.25, kEps);

  const IcpResult cold = solver.solve(q, search_box());
  ASSERT_EQ(cold.verdict, SatResult::kUnsat);
  EXPECT_EQ(cold.stats.warm_starts, 0u);
  ASSERT_GT(cold.stats.splits, 0u) << "workload too easy to exercise warm";
  EXPECT_EQ(cache->size(), 1u);

  const IcpResult warm = solver.solve(q, search_box());
  ASSERT_EQ(warm.verdict, SatResult::kUnsat);
  EXPECT_EQ(warm.stats.warm_starts, 1u);
  // Re-refuting an identical query touches only the partition leaves;
  // the cold run also processed every interior node of the tree.
  EXPECT_LT(warm.stats.boxes_processed, cold.stats.boxes_processed);
  EXPECT_GE(cache->stats().hits, 1u);
}

TEST(IcpWarm, WarmVsColdCandidateSequenceEquivalence) {
  // A recorded verifier-style conjunction sequence: mostly UNSAT
  // candidates with drifting coefficients, plus SAT interlopers (a
  // flipped slack sign makes the same structure satisfiable).
  struct Step {
    double coeff, eps;
  };
  const std::vector<Step> sequence = {
      {1.20, kEps},  {1.22, kEps}, {1.30, -kEps}, {1.25, kEps},
      {1.21, kEps},  {1.40, -kEps}, {1.27, kEps},
  };

  ExprPool cold_pool, warm_pool;
  const IcpSolver cold_solver(cold_pool,
                              warm_config(nullptr));  // no cache: cold
  const IcpSolver warm_solver(warm_pool,
                              warm_config(std::make_shared<UnsatTreeCache>()));

  std::uint32_t warm_hits = 0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const Step& s = sequence[i];
    const Conjunction cq = candidate_query(cold_pool, s.coeff, s.eps);
    const Conjunction wq = candidate_query(warm_pool, s.coeff, s.eps);
    const IcpResult cold = cold_solver.solve(cq, search_box());
    const IcpResult warm = warm_solver.solve(wq, search_box());

    ASSERT_NE(cold.verdict, SatResult::kUnknown) << "step " << i;
    // Warm starts must never change a SAT/UNSAT answer.
    EXPECT_EQ(cold.is_unsat(), warm.is_unsat()) << "step " << i;
    EXPECT_EQ(cold.is_sat(), warm.is_sat()) << "step " << i;
    if (warm.is_unsat()) {
      EXPECT_FALSE(warm.witness.has_value());
    } else {
      // A witness box is valid regardless of which one is found first.
      ASSERT_TRUE(warm.witness.has_value()) << "step " << i;
      EXPECT_TRUE(search_box().contains(*warm.witness)) << "step " << i;
      if (warm.verdict == SatResult::kSat) {
        const Vector w = warm.witness_point();
        const double hv = (w[0] + w[1]) * (w[0] + w[1]) - w[0] * w[0] -
                          2.0 * w[0] * w[1] - w[1] * w[1];
        EXPECT_GE(s.coeff * hv - s.eps, -1e-9) << "step " << i;
      }
    }
    warm_hits += warm.stats.warm_starts;
  }
  // The drifting-coefficient steps share one structure: after the first
  // UNSAT proof, later steps must actually warm-start.
  EXPECT_GE(warm_hits, 3u);
}

TEST(IcpWarm, ImportedTreesRestoreWithoutChangingAnything) {
  core::RuntimeConfig::active();
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: warm-start stats not stable";
  }
  // The snapshot contract (src/smt/cache_io.h): a process restored from
  // exported trees must behave *bit-identically* to a fresh one on the
  // same query sequence — not just same SAT/UNSAT answers but the same
  // witnesses, because downstream the witness steers the LP ↔ SMT
  // trajectory and every low-order certificate digit. Content-exact
  // adoption guarantees this: an imported tree only ever seeds the
  // byte-identical query it refuted before.
  struct Step {
    double coeff, eps;
  };
  const std::vector<Step> sequence = {
      {1.20, kEps}, {1.22, kEps}, {1.30, -kEps}, {1.25, kEps},
  };

  ExprPool pool_a;
  const auto cache_a = std::make_shared<UnsatTreeCache>();
  const IcpSolver solver_a(pool_a, warm_config(cache_a));
  std::vector<IcpResult> organic;
  for (const Step& s : sequence) {
    organic.push_back(
        solver_a.solve(candidate_query(pool_a, s.coeff, s.eps), search_box()));
  }

  ExprPool pool_b;
  const auto cache_b = std::make_shared<UnsatTreeCache>();
  cache_b->import_entries(cache_a->export_entries());
  const IcpSolver solver_b(pool_b, warm_config(cache_b));
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const Step& s = sequence[i];
    const IcpResult restored =
        solver_b.solve(candidate_query(pool_b, s.coeff, s.eps), search_box());
    EXPECT_EQ(restored.verdict, organic[i].verdict) << "step " << i;
    ASSERT_EQ(restored.witness.has_value(), organic[i].witness.has_value())
        << "step " << i;
    if (restored.witness.has_value()) {
      // Bit-identical witness boxes, not merely valid ones.
      EXPECT_TRUE(*restored.witness == *organic[i].witness) << "step " << i;
    }
  }
  // The first refutation of the shape was answered from the import.
  EXPECT_GE(cache_b->warm_restores(), 1u);
}

TEST(IcpWarm, StaleSeedSilentlyFallsBackToColdStart) {
  core::RuntimeConfig::active();
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: warm-start stats not stable";
  }
  ExprPool pool;
  const auto cache = std::make_shared<UnsatTreeCache>();
  const IcpSolver solver(pool, warm_config(cache));
  const Conjunction q = candidate_query(pool, 1.22, kEps);

  ASSERT_EQ(solver.solve(q, search_box()).verdict, SatResult::kUnsat);
  ASSERT_EQ(cache->size(), 1u);

  // Same structure, different search box (the level-set pattern: the
  // bounding box moved with the candidate): the seed must be rejected
  // and the solve must be indistinguishable from a cold one.
  const Box moved = Box::from_bounds({{-1.25, 1.0}, {-1.0, 1.0}});
  const IcpResult r = solver.solve(q, moved);
  EXPECT_EQ(r.stats.warm_starts, 0u);
  EXPECT_GE(cache->stale(), 1u);

  ExprPool ref_pool;
  const Conjunction ref_q = candidate_query(ref_pool, 1.22, kEps);
  const IcpSolver ref(ref_pool, warm_config(nullptr));
  const IcpResult cold = ref.solve(ref_q, moved);
  EXPECT_EQ(r.verdict, cold.verdict);
  EXPECT_EQ(r.stats.boxes_processed, cold.stats.boxes_processed);
  EXPECT_EQ(r.stats.splits, cold.stats.splits);
}

TEST(IcpWarm, PoisonedSeedCannotChangeVerdicts) {
  core::RuntimeConfig::active();
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: warm-start stats not stable";
  }
  // Hand-plant a nonsense tree — splits in the wrong places, a split
  // point outside the box, an out-of-range child id — under the exact
  // signature and box of real queries. Replay still partitions the box,
  // so both the UNSAT and the SAT verdict must come out unchanged.
  for (const bool sat_case : {false, true}) {
    ExprPool pool;
    const auto cache = std::make_shared<UnsatTreeCache>();
    const double eps = sat_case ? -kEps : kEps;
    const Conjunction q = candidate_query(pool, 1.2, eps);

    auto poison = std::make_shared<UnsatTree>();
    poison->root_box = search_box();
    poison->nodes.resize(5);
    poison->nodes[0] = {1, 0.7, 1, 2};     // split y at 0.7
    poison->nodes[1] = {0, 97.0, 3, 4};    // split point outside the box
    poison->nodes[2] = {0, 0.4, 9000, 7};  // children out of range
    cache->store(pool, q, poison);

    const IcpSolver solver(pool, warm_config(cache));
    const IcpResult warm = solver.solve(q, search_box());
    EXPECT_EQ(warm.stats.warm_starts, 1u);

    ExprPool ref_pool;
    const Conjunction ref_q = candidate_query(ref_pool, 1.2, eps);
    const IcpSolver ref(ref_pool, warm_config(nullptr));
    const IcpResult cold = ref.solve(ref_q, search_box());
    EXPECT_EQ(cold.is_unsat(), warm.is_unsat());
    EXPECT_EQ(cold.is_sat(), warm.is_sat());
  }
}

TEST(IcpWarm, ReplayPartitionCoversTheBox) {
  UnsatTree tree;
  tree.root_box = search_box();
  tree.nodes.resize(3);
  tree.nodes[0] = {0, 0.25, 1, 2};
  tree.nodes[1] = {1, 0.0, UnsatTree::kNoNode, UnsatTree::kNoNode};
  tree.nodes[2] = {1, -3.5, UnsatTree::kNoNode, UnsatTree::kNoNode};
  EXPECT_EQ(tree.split_count(), 1u);

  std::vector<Box> leaves;
  tree.replay(search_box(), leaves);
  ASSERT_EQ(leaves.size(), 2u);

  // Every point of the box lies in some leaf (partition ⇒ soundness).
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> ux(-1.0, 1.0), uy(-1.0, 1.0);
  for (int i = 0; i < 200; ++i) {
    const Vector p{ux(rng), uy(rng)};
    bool covered = false;
    for (const Box& leaf : leaves) covered = covered || leaf.contains(p);
    EXPECT_TRUE(covered) << "point (" << p[0] << ", " << p[1] << ")";
  }

  // Degenerate split points clamp instead of losing coverage.
  UnsatTree clamped;
  clamped.root_box = search_box();
  clamped.nodes.resize(3);
  clamped.nodes[0] = {0, 99.0, 1, 2};  // split right of the box: left=all
  leaves.clear();
  clamped.replay(search_box(), leaves);
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_TRUE(leaves[0].contains(search_box()));
}

TEST(IcpWarm, WarmStartsDisabledByConfigFlag) {
  ExprPool pool;
  const auto cache = std::make_shared<UnsatTreeCache>();
  IcpConfig config = warm_config(cache);
  config.warm_start = false;  // env unset in tests: flag decides
  const IcpSolver solver(pool, config);
  const Conjunction q = candidate_query(pool, 1.3, kEps);

  ASSERT_EQ(solver.solve(q, search_box()).verdict, SatResult::kUnsat);
  const IcpResult again = solver.solve(q, search_box());
  EXPECT_EQ(again.verdict, SatResult::kUnsat);
  EXPECT_EQ(again.stats.warm_starts, 0u);
  // Disabled warm-starting records nothing either (pure legacy path).
  EXPECT_EQ(cache->size(), 0u);
}

TEST(IcpWarm, DnfQueriesWarmStartPerDisjunct) {
  core::RuntimeConfig::active();  // installs any BCERT_FAULT spec
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: warm-start stats not stable";
  }
  ExprPool pool;
  const auto cache = std::make_shared<UnsatTreeCache>();
  const IcpSolver solver(pool, warm_config(cache));

  const auto make_dnf = [&](double c1, double c2) {
    Dnf dnf;
    dnf.disjuncts.push_back(candidate_query(pool, c1, kEps));
    Conjunction second = candidate_query(pool, c2, kEps);
    second.add(pool.sub(pool.var(1), pool.constant(0.5)), Rel::kLe);
    dnf.disjuncts.push_back(std::move(second));
    return dnf;
  };

  const IcpResult cold = solver.solve(make_dnf(1.2, 1.3), search_box());
  ASSERT_EQ(cold.verdict, SatResult::kUnsat);
  EXPECT_EQ(cold.stats.warm_starts, 0u);
  EXPECT_EQ(cache->size(), 2u);  // one tree per refuted disjunct

  const IcpResult warm = solver.solve(make_dnf(1.25, 1.28), search_box());
  ASSERT_EQ(warm.verdict, SatResult::kUnsat);
  EXPECT_EQ(warm.stats.warm_starts, 2u);
  EXPECT_LE(warm.stats.boxes_processed, cold.stats.boxes_processed);
}

TEST(IcpWarm, TapeCacheIsBoundedLruWithStats) {
  ExprPool pool;
  TapeCache cache(/*capacity=*/4);
  std::vector<Conjunction> queries;
  for (int i = 0; i < 6; ++i) {
    Conjunction c;
    c.add(pool.add(pool.pow(pool.var(0), 2 + i), pool.var(1)), Rel::kLe);
    queries.push_back(std::move(c));
  }
  for (const Conjunction& c : queries) cache.get_or_compile(pool, c);
  EXPECT_EQ(cache.size(), 4u);

  KeyedCacheStats s = cache.stats();
  EXPECT_EQ(s.insertions, 6u);
  EXPECT_EQ(s.evictions, 2u);
  EXPECT_EQ(s.misses, 6u);
  EXPECT_EQ(s.capacity, 4u);

  // Recent entries hit; the two oldest were evicted and recompile.
  const auto t5 = cache.get_or_compile(pool, queries[5]);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(t5.get(), cache.get_or_compile(pool, queries[5]).get());
  cache.get_or_compile(pool, queries[0]);  // evicted earlier: recompiles
  EXPECT_EQ(cache.stats().insertions, 7u);

  // LRU order: touching an entry protects it from the next eviction.
  const auto t3 = cache.get_or_compile(pool, queries[3]);  // hit: to front
  cache.get_or_compile(pool, queries[1]);  // insert: evicts LRU, not [3]
  EXPECT_EQ(t3.get(), cache.get_or_compile(pool, queries[3]).get());
}

TEST(IcpWarm, UnsatTreeCacheEvictsLeastRecentlyUsed) {
  ExprPool pool;
  UnsatTreeCache cache(/*capacity=*/2);
  const Box box = search_box();

  std::vector<Conjunction> qs;
  qs.push_back(candidate_query(pool, 1.2, kEps));
  {
    Conjunction c = candidate_query(pool, 1.2, kEps);
    c.add(pool.sub(pool.var(0), pool.constant(1.5)), Rel::kLe);
    qs.push_back(std::move(c));
  }
  {
    Conjunction c = candidate_query(pool, 1.2, kEps);
    c.add(pool.sub(pool.var(1), pool.constant(0.5)), Rel::kGe);
    qs.push_back(std::move(c));
  }

  for (const Conjunction& q : qs) {
    auto tree = std::make_shared<UnsatTree>();
    tree->root_box = box;
    cache.store(pool, q, tree);
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.find(pool, qs[0], box), nullptr);  // evicted
  EXPECT_NE(cache.find(pool, qs[2], box), nullptr);

  // Storing under an existing key replaces (newest proof wins).
  auto fresh = std::make_shared<UnsatTree>();
  fresh->root_box = box;
  fresh->nodes.resize(3);
  fresh->nodes[0] = {0, 1.0, 1, 2};
  cache.store(pool, qs[2], fresh);
  EXPECT_EQ(cache.size(), 2u);
  const auto got = cache.find(pool, qs[2], box);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->split_count(), 1u);
}

}  // namespace
}  // namespace bcert::smt
