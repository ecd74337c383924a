// Differential fuzz harness for the native x86-64 HC4 backend: the
// emitted code must be bit-identical to the tape interpreter (and hence
// to the tree walk) on randomized expression DAGs and boxes, including
// rounding, NaN payloads and signed zeros; soundness is re-checked
// against sampled satisfying points. Also unit-tests the SSA IR passes
// (constant folding, hand-built common-subexpression sharing,
// dead-projection pruning), the jit compilation cache, the `jit_compile`
// fault point's degradation to the interpreter, and the dump round-trip
// counts of the tape/IR disassemblers.
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fault.h"
#include "src/core/runtime_config.h"
#include "src/expr/expr.h"
#include "src/interval/box.h"
#include "src/smt/hc4.h"
#include "src/smt/icp_solver.h"
#include "src/smt/jit/exec_arena.h"

namespace bcert::smt {
namespace {

using expr::ExprId;
using expr::ExprPool;
using interval::Box;
using interval::Interval;
using linalg::Vector;

constexpr int kNumVars = 3;

/// Same corpus shape as the scalar tape differential fuzz harness
/// (hc4_tape_diff_test.cpp): random DAGs with real shared subterms.
ExprId random_dag(ExprPool& pool, std::mt19937& rng, int num_ops) {
  std::vector<ExprId> terms;
  for (int v = 0; v < kNumVars; ++v) terms.push_back(pool.var(v));
  std::uniform_real_distribution<double> cdist(-3.0, 3.0);
  for (int i = 0; i < 3; ++i) terms.push_back(pool.constant(cdist(rng)));

  auto pick = [&] { return terms[rng() % terms.size()]; };
  for (int i = 0; i < num_ops; ++i) {
    ExprId t = terms.front();
    switch (rng() % 17) {
      case 0: t = pool.add(pick(), pick()); break;
      case 1: t = pool.sub(pick(), pick()); break;
      case 2: t = pool.mul(pick(), pick()); break;
      case 3: t = pool.div(pick(), pick()); break;
      case 4: t = pool.neg(pick()); break;
      case 5: t = pool.sin(pick()); break;
      case 6: t = pool.cos(pick()); break;
      case 7: t = pool.tanh(pick()); break;
      case 8: t = pool.sigmoid(pick()); break;
      case 9: t = pool.sqr(pick()); break;
      case 10: t = pool.abs(pick()); break;
      case 11: t = pool.min(pick(), pick()); break;
      case 12: t = pool.max(pick(), pick()); break;
      case 13:
        t = pool.pow(pick(), static_cast<std::int32_t>(2 + rng() % 3));
        break;
      case 14: t = pool.relu(pick()); break;
      case 15: t = pool.exp(pick()); break;
      case 16: t = pool.sqrt(pick()); break;
    }
    terms.push_back(t);
  }
  return terms.back();
}

Conjunction random_conjunction(ExprPool& pool, std::mt19937& rng) {
  static constexpr Rel kRels[] = {Rel::kLe, Rel::kLt, Rel::kGe, Rel::kGt};
  Conjunction c;
  const int n = 1 + static_cast<int>(rng() % 3);
  for (int i = 0; i < n; ++i) {
    c.add(random_dag(pool, rng, 4 + static_cast<int>(rng() % 12)),
          kRels[rng() % 4]);
  }
  return c;
}

Box random_box(std::mt19937& rng) {
  std::uniform_real_distribution<double> bdist(-5.0, 5.0);
  std::vector<Interval> dims;
  for (int v = 0; v < kNumVars; ++v) {
    const int shape = static_cast<int>(rng() % 8);
    if (shape == 0) {
      dims.emplace_back(0.0, 0.0);
    } else if (shape == 1) {
      const double p = bdist(rng);
      dims.emplace_back(p, p);
    } else {
      double lo = bdist(rng), hi = bdist(rng);
      if (lo > hi) std::swap(lo, hi);
      dims.emplace_back(lo, hi);
    }
  }
  return Box(std::move(dims));
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult boxes_bit_identical(const Box& a, const Box& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "dimension mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i].lo(), b[i].lo()) ||
        !bits_equal(a[i].hi(), b[i].hi())) {
      return ::testing::AssertionFailure()
             << "dim " << i << ": tape " << a[i] << " vs jit " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult roots_bit_identical(
    const std::vector<Interval>& a, const std::vector<Interval>& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "root count mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i].lo(), b[i].lo()) ||
        !bits_equal(a[i].hi(), b[i].hi())) {
      return ::testing::AssertionFailure()
             << "root " << i << ": tape " << a[i] << " vs jit " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

/// Everything below is vacuous on hosts where native emission is
/// unavailable (non-x86-64); the degradation path is covered everywhere.
bool jit_supported() { return jit::ExecMemory::supported(); }

TEST(Hc4JitDiff, SinglePassThreeWayBitIdentical) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  std::mt19937 rng(20260809);
  for (int trial = 0; trial < 300; ++trial) {
    ExprPool pool;
    const Conjunction c = random_conjunction(pool, rng);
    const Box original = random_box(rng);

    Hc4Contractor tree(pool, c, Hc4Mode::kTree);
    Hc4Contractor tape(pool, c, Hc4Mode::kTape);
    Hc4Contractor jit(pool, c, Hc4Mode::kJit);
    ASSERT_NE(jit.jit(), nullptr) << "compilation unexpectedly degraded";

    Box tree_box = original, tape_box = original, jit_box = original;
    const ContractResult rt = tree.contract(tree_box);
    const ContractResult rp = tape.contract(tape_box);
    const ContractResult rj = jit.contract(jit_box);
    ASSERT_EQ(rt, rj) << "trial " << trial;
    ASSERT_EQ(rp, rj) << "trial " << trial;
    EXPECT_TRUE(boxes_bit_identical(tree_box, jit_box)) << "trial " << trial;
    EXPECT_TRUE(boxes_bit_identical(tape_box, jit_box)) << "trial " << trial;
  }
}

TEST(Hc4JitDiff, FixpointCertaintyAndRootsBitIdentical) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  std::mt19937 rng(1729);
  for (int trial = 0; trial < 200; ++trial) {
    ExprPool pool;
    const Conjunction c = random_conjunction(pool, rng);
    const Box original = random_box(rng);

    Hc4Contractor tape(pool, c, Hc4Mode::kTape);
    Hc4Contractor jit(pool, c, Hc4Mode::kJit);
    ASSERT_NE(jit.jit(), nullptr);

    // Forward-only enclosures (the certainty inputs) must match first.
    EXPECT_TRUE(roots_bit_identical(tape.root_values(original),
                                    jit.root_values(original)))
        << "trial " << trial;

    Box tape_box = original, jit_box = original;
    const ContractResult rp = tape.contract_fixpoint(tape_box, 8, 0.05);
    const ContractResult rj = jit.contract_fixpoint(jit_box, 8, 0.05);
    ASSERT_EQ(rp, rj) << "trial " << trial;
    EXPECT_TRUE(boxes_bit_identical(tape_box, jit_box)) << "trial " << trial;
    if (rp != ContractResult::kEmpty) {
      EXPECT_EQ(tape.certainly_satisfied(tape_box),
                jit.certainly_satisfied(jit_box));
      EXPECT_EQ(tape.certainly_violated(tape_box),
                jit.certainly_violated(jit_box));
    }
  }
}

/// Evaluates \p id at \p x, or nullopt where the real function is
/// undefined (same filter as the tape harness — see its doc comment).
std::optional<double> eval_defined(const ExprPool& pool, expr::ExprId id,
                                   const Vector& x,
                                   std::map<expr::ExprId, double>& memo) {
  if (const auto it = memo.find(id); it != memo.end()) return it->second;
  const expr::Node& n = pool.node(id);
  double v = 0.0;
  if (n.op == expr::Op::kConst) {
    v = n.value;
  } else if (n.op == expr::Op::kVar) {
    v = x[static_cast<std::size_t>(n.index)];
  } else {
    const auto a = eval_defined(pool, n.a, x, memo);
    if (!a) return std::nullopt;
    std::optional<double> b;
    if (n.b != expr::kNoExpr) {
      b = eval_defined(pool, n.b, x, memo);
      if (!b) return std::nullopt;
    }
    switch (n.op) {
      case expr::Op::kDiv:
        if (*b == 0.0) return std::nullopt;
        break;
      case expr::Op::kLog:
        if (*a <= 0.0) return std::nullopt;
        break;
      case expr::Op::kSqrt:
        if (*a < 0.0) return std::nullopt;
        break;
      default: break;
    }
    v = pool.eval(id, x);
    if (std::isnan(v)) return std::nullopt;
  }
  memo.emplace(id, v);
  return v;
}

bool satisfies(const ExprPool& pool, const Conjunction& c, const Vector& x) {
  std::map<expr::ExprId, double> memo;
  for (const Constraint& k : c.constraints) {
    const auto v = eval_defined(pool, k.lhs, x, memo);
    if (!v) return false;
    switch (k.rel) {
      case Rel::kLe: if (!(*v <= 0.0)) return false; break;
      case Rel::kLt: if (!(*v < 0.0)) return false; break;
      case Rel::kGe: if (!(*v >= 0.0)) return false; break;
      case Rel::kGt: if (!(*v > 0.0)) return false; break;
      case Rel::kEq: if (!(*v == 0.0)) return false; break;
    }
  }
  return true;
}

Vector sample_point(const Box& box, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  Vector x(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) {
    x[i] = box[i].lo() + u(rng) * (box[i].hi() - box[i].lo());
  }
  return x;
}

TEST(Hc4JitDiff, ContractionNeverDiscardsSatisfyingPoints) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  std::mt19937 rng(31337);
  int witnesses = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ExprPool pool;
    const Conjunction c = random_conjunction(pool, rng);
    const Box original = random_box(rng);

    std::vector<Vector> keep;
    for (int s = 0; s < 32; ++s) {
      Vector x = sample_point(original, rng);
      if (satisfies(pool, c, x)) keep.push_back(std::move(x));
    }
    if (keep.empty()) continue;

    Hc4Contractor jit(pool, c, Hc4Mode::kJit);
    ASSERT_NE(jit.jit(), nullptr);
    Box box = original;
    const ContractResult r = jit.contract_fixpoint(box, 8, 0.05);
    ASSERT_NE(r, ContractResult::kEmpty)
        << "trial " << trial << ": pruned a box holding a witness";
    for (const Vector& x : keep) {
      EXPECT_TRUE(box.contains(x))
          << "trial " << trial << ": witness fell out of the box";
    }
    witnesses += static_cast<int>(keep.size());
  }
  EXPECT_GT(witnesses, 200);
}

/// Shared-jit workers: contractors sharing one compilation must behave
/// identically to a contractor that compiled its own.
TEST(Hc4JitDiff, SharedJitPrivateRegisters) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  std::mt19937 rng(99);
  ExprPool pool;
  const Conjunction c = random_conjunction(pool, rng);
  const auto jit =
      Hc4Jit::compile(std::make_shared<const Hc4Tape>(pool, c));

  Hc4Contractor own(pool, c, Hc4Mode::kJit);
  Hc4Contractor shared_a(jit);
  Hc4Contractor shared_b(jit);

  for (int trial = 0; trial < 50; ++trial) {
    const Box original = random_box(rng);
    Box b0 = original, b1 = original, b2 = original;
    const ContractResult r0 = own.contract_fixpoint(b0, 8, 0.05);
    const ContractResult r1 = shared_a.contract_fixpoint(b1, 8, 0.05);
    const ContractResult r2 = shared_b.contract_fixpoint(b2, 8, 0.05);
    ASSERT_EQ(r0, r1);
    ASSERT_EQ(r0, r2);
    EXPECT_TRUE(boxes_bit_identical(b0, b1));
    EXPECT_TRUE(boxes_bit_identical(b0, b2));
  }
}

/// The multi-query cache keys native compilations by the cached tape
/// they were emitted from: repeated conjunctions share one tape, hence
/// one Hc4Jit.
TEST(Hc4JitDiff, TapeCacheReusesCompiledJits) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  ExprPool pool;
  Conjunction c;
  c.add(pool.add(pool.sqr(pool.var(0)), pool.var(1)), Rel::kLe);
  Conjunction same = c;
  Conjunction other;
  other.add(pool.add(pool.sqr(pool.var(0)), pool.var(1)), Rel::kGe);

  TapeCache cache;
  const auto jit_of = [&](const Conjunction& q) {
    return cache.get_or_compile_jit(cache.get_or_compile(pool, q));
  };
  const auto j1 = jit_of(c);
  const auto j2 = jit_of(same);
  const auto j3 = jit_of(other);
  EXPECT_EQ(j1.get(), j2.get());
  EXPECT_NE(j1.get(), j3.get());
  EXPECT_EQ(cache.jit_stats().misses, 2u);
  EXPECT_EQ(cache.jit_stats().hits, 1u);
  // The jit shares the cached tape object, not a recompilation.
  EXPECT_EQ(j1->tape_ptr().get(), cache.get_or_compile(pool, c).get());

  // Cached jits still contract correctly: x² + y ≤ 0 with y ∈ [-4, -1]
  // forces x² ≤ 4, i.e. x ∈ [-2, 2].
  Hc4Contractor hc4(j2);
  Box box = Box::from_bounds({{-3.0, 3.0}, {-4.0, -1.0}});
  EXPECT_EQ(hc4.contract(box), ContractResult::kContracted);
  EXPECT_LE(box[0].hi(), 2.0 + 1e-9);
  EXPECT_GE(box[0].lo(), -2.0 - 1e-9);
}

/// Distinct conjunctions x0² + x1 ≤ i, i = 0..n-1 (fresh constants, so
/// fresh signatures).
std::vector<Conjunction> distinct_conjunctions(ExprPool& pool, int n) {
  std::vector<Conjunction> out(n);
  for (int i = 0; i < n; ++i) {
    out[i].add(pool.sub(pool.add(pool.sqr(pool.var(0)), pool.var(1)),
                        pool.constant(static_cast<double>(i))),
               Rel::kLe);
  }
  return out;
}

/// Root of the most recently used tape in \p cache's warm-state export.
ExprId front_root(const TapeCache& cache) {
  return cache.export_entries().front().tape->conjunction().constraints[0].lhs;
}

/// A query served from the native store is still one tape-store lookup:
/// a repeated jit query counts exactly one tape-store hit and moves its
/// tape to the front of the snapshot's most-recently-used order.
TEST(Hc4JitDiff, JitHitCountsOneTapeStoreHit) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  // An armed cache_lookup fault legitimately bypasses the cache; the
  // counters this test pins would then undercount by design.
  core::RuntimeConfig::active();  // installs any BCERT_FAULT spec
  if (core::FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: cache stats not stable";
  }
  ExprPool pool;
  const std::vector<Conjunction> qs = distinct_conjunctions(pool, 2);
  auto cache = std::make_shared<TapeCache>();
  IcpConfig config;
  config.delta = 1e-2;
  config.hc4_mode = Hc4Mode::kJit;
  config.tape_cache = cache;
  const IcpSolver solver(pool, config);
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});

  const IcpResult first = solver.solve(qs[0], box);
  solver.solve(qs[1], box);  // qs[1] is now the most recent tape
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(front_root(*cache), qs[1].constraints[0].lhs);

  const IcpResult again = solver.solve(qs[0], box);
  EXPECT_EQ(cache->jit_stats().hits, 1u);
  EXPECT_EQ(cache->jit_stats().misses, 2u);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().misses, 2u);
  EXPECT_EQ(front_root(*cache), qs[0].constraints[0].lhs);
  EXPECT_EQ(first.verdict, again.verdict);
  EXPECT_EQ(first.stats.boxes_processed, again.stats.boxes_processed);
}

/// The native store holds at most kMaxJitEntries compilations while the
/// tape store (and so the warm-state export) keeps up to kMaxEntries.
TEST(Hc4JitDiff, JitStoreIsCappedBelowTapeStore) {
  if (!jit_supported()) GTEST_SKIP() << "no native backend on this host";
  static_assert(TapeCache::kMaxJitEntries < TapeCache::kMaxEntries);
  constexpr int kQueries = TapeCache::kMaxEntries + 6;
  ExprPool pool;
  const std::vector<Conjunction> qs = distinct_conjunctions(pool, kQueries);
  TapeCache cache;
  for (int i = 0; i < kQueries; ++i) {
    cache.get_or_compile_jit(cache.get_or_compile(pool, qs[i]));
    ASSERT_EQ(cache.export_entries().size(),
              std::min<std::size_t>(i + 1, TapeCache::kMaxEntries))
        << "after query " << i;
  }
  EXPECT_EQ(cache.jit_stats().entries, TapeCache::kMaxJitEntries);
  EXPECT_EQ(cache.jit_stats().capacity, TapeCache::kMaxJitEntries);
  EXPECT_EQ(cache.jit_stats().evictions,
            kQueries - TapeCache::kMaxJitEntries);
  EXPECT_EQ(cache.stats().entries, TapeCache::kMaxEntries);

  // The export is the tape store alone, most recent first.
  EXPECT_EQ(front_root(cache), qs.back().constraints[0].lhs);
}

/// Armed `jit_compile` fault: compile() throws, the contractor degrades
/// to the tape interpreter bit-identically, and the ICP setup counts the
/// rung in DegradationCounters::jit_to_tape.
TEST(Hc4JitDiff, JitCompileFaultDegradesToTape) {
  ASSERT_TRUE(core::FaultRegistry::configure("jit_compile:throw"));
  ExprPool pool;
  Conjunction c;
  c.add(pool.sub(pool.add(pool.sqr(pool.var(0)), pool.sqr(pool.var(1))),
                 pool.constant(1.0)),
        Rel::kLe);

  EXPECT_THROW(
      Hc4Jit::compile(std::make_shared<const Hc4Tape>(pool, c)),
      core::FaultInjected);

  // Direct construction: jit request lands on the tape backend.
  Hc4Contractor degraded(pool, c, Hc4Mode::kJit);
  EXPECT_EQ(degraded.jit(), nullptr);
  ASSERT_NE(degraded.tape(), nullptr);
  Hc4Contractor tape(pool, c, Hc4Mode::kTape);
  Box degraded_box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  Box tape_box = degraded_box;
  EXPECT_EQ(tape.contract(tape_box), degraded.contract(degraded_box));
  EXPECT_TRUE(boxes_bit_identical(tape_box, degraded_box));

  // Solver setup: the fallback is counted on the degradation ladder.
  core::DegradationCounters counters;
  IcpConfig config;
  config.delta = 1e-2;
  config.hc4_mode = Hc4Mode::kJit;
  config.degrade = &counters;
  const IcpSolver solver(pool, config);
  const IcpResult r =
      solver.solve(c, Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}}));
  EXPECT_TRUE(r.is_sat());
  EXPECT_GT(counters.jit_to_tape.load(), 0u);
  core::FaultRegistry::clear();

  // Disarmed, the same configuration compiles (where the host can).
  if (jit_supported()) {
    Hc4Contractor healthy(pool, c, Hc4Mode::kJit);
    EXPECT_NE(healthy.jit(), nullptr);
  }
}

// --- solver-level equivalence ---------------------------------------------

/// Random atoms with varied SAT/UNSAT status (parallel_icp_test shapes).
Constraint random_atom(ExprPool& pool, std::mt19937& rng) {
  std::uniform_real_distribution<double> coef(-2.0, 2.0);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> rel_pick(0, 1);
  const ExprId x = pool.var(0);
  const ExprId y = pool.var(1);
  ExprId e = expr::kNoExpr;
  switch (kind(rng)) {
    case 0:
      e = pool.sub(pool.add(pool.sqr(x), pool.sqr(y)),
                   pool.constant(std::abs(coef(rng)) + 0.1));
      break;
    case 1:
      e = pool.add(
          pool.add(pool.sin(pool.mul(pool.constant(coef(rng)), x)),
                   pool.cos(pool.mul(pool.constant(coef(rng)), y))),
          pool.constant(coef(rng)));
      break;
    case 2:
      e = pool.sub(pool.mul(x, y), pool.constant(coef(rng)));
      break;
    default:
      e = pool.add(pool.sub(pool.tanh(x), y), pool.constant(coef(rng)));
      break;
  }
  return {e, rel_pick(rng) == 0 ? Rel::kLe : Rel::kGe};
}

/// The native jit contractor plugged into the solver must reproduce the
/// tape solver's exact search tree — verdict, box counts, splits and
/// witness — on a SAT/UNSAT-mixed corpus. (On hosts without native
/// emission the jit rung degrades to the tape, which makes this
/// equivalence trivially true — still worth running: it pins the
/// degradation path.)
TEST(Hc4JitDiff, SolverJitVsTapeEquivalenceSweep) {
  std::mt19937 rng(4711);
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  IcpConfig tape_cfg;
  tape_cfg.delta = 1e-2;
  tape_cfg.max_boxes = 500'000;
  tape_cfg.time_limit_s = 60.0;
  tape_cfg.hc4_mode = Hc4Mode::kTape;
  IcpConfig jit_cfg = tape_cfg;
  jit_cfg.hc4_mode = Hc4Mode::kJit;
  for (int trial = 0; trial < 25; ++trial) {
    ExprPool pool;
    Conjunction c;
    const int m = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < m; ++i) {
      const Constraint atom = random_atom(pool, rng);
      c.add(atom.lhs, atom.rel);
    }

    const IcpSolver tape_solver(pool, tape_cfg);
    const IcpSolver jit_solver(pool, jit_cfg);
    const IcpResult rt = tape_solver.solve(c, box);
    const IcpResult rj = jit_solver.solve(c, box);

    ASSERT_EQ(rt.verdict, rj.verdict) << "trial " << trial;
    EXPECT_EQ(rt.stats.boxes_processed, rj.stats.boxes_processed)
        << "trial " << trial;
    EXPECT_EQ(rt.stats.splits, rj.stats.splits) << "trial " << trial;
    ASSERT_EQ(rt.witness.has_value(), rj.witness.has_value());
    if (rt.witness.has_value()) {
      EXPECT_TRUE(boxes_bit_identical(*rt.witness, *rj.witness))
          << "trial " << trial;
    }
  }
}

// --- IR pass unit tests -----------------------------------------------------

TEST(Hc4JitIr, FoldsConstantSubtreesAndKeepsProjections) {
  ExprPool pool;
  Conjunction c;
  // ExprPool's hash-consing folds constant subtrees at intern time with
  // point arithmetic — except division by a constant zero, which it
  // declines. That div (and everything const-valued downstream of it)
  // is exactly what reaches the interval-level fold: here the div folds
  // first, then the add over (folded, leaf-const) cascades.
  const ExprId dz = pool.div(pool.constant(1.0), pool.constant(0.0));
  const ExprId k = pool.add(dz, pool.constant(1.0));
  c.add(pool.sub(pool.mul(pool.var(0), pool.var(1)), k), Rel::kLe);
  const Hc4Tape tape(pool, c);

  ir::Program prog = ir::Program::from_tape(tape);
  const std::size_t before = prog.live_forward();
  prog.fold_constants(tape);
  EXPECT_GE(prog.stats.folded, 2u);
  EXPECT_EQ(prog.live_forward(), before - prog.stats.folded);
  EXPECT_EQ(prog.folded_consts.size(), prog.stats.folded);
  // Backward projections are all retained (their aborts are load-bearing).
  EXPECT_EQ(prog.backward.size(), tape.code().size());
}

TEST(Hc4JitIr, FoldsDivisionByConstantZeroToEmpty) {
  ExprPool pool;
  Conjunction c;
  // 1/0 folds to the empty interval at compile time — the forward sweep
  // must then report infeasibility exactly like the interpreter.
  c.add(pool.sub(pool.div(pool.constant(1.0), pool.constant(0.0)),
                 pool.var(0)),
        Rel::kLe);
  const Hc4Tape tape(pool, c);
  ir::Program prog = ir::Program::from_tape(tape);
  prog.fold_constants(tape);
  EXPECT_GE(prog.stats.folded, 1u);
  bool found_empty = false;
  for (const auto& [slot, value] : prog.folded_consts) {
    found_empty |= value.is_empty();
  }
  EXPECT_TRUE(found_empty);

  if (jit_supported()) {
    Hc4Contractor tape_hc4(pool, c, Hc4Mode::kTape);
    Hc4Contractor jit_hc4(pool, c, Hc4Mode::kJit);
    ASSERT_NE(jit_hc4.jit(), nullptr);
    Box a = Box::from_bounds({{-1.0, 1.0}, {-1.0, 1.0}});
    Box b = a;
    EXPECT_EQ(tape_hc4.contract(a), jit_hc4.contract(b));
    EXPECT_TRUE(boxes_bit_identical(a, b));
  }
}

TEST(Hc4JitIr, SharesHandBuiltStructuralDuplicates) {
  // ExprPool hash-consing makes duplicates unrepresentable in real
  // tapes (the pass is a verified no-op there), so drive the pass with a
  // hand-built program: %2 and %3 compute the same sum.
  ir::Program prog;
  prog.num_slots = 4;
  ir::FwdInstr i2;
  i2.dst = 2; i2.a = 0; i2.b = 1;
  i2.op = expr::Op::kAdd; i2.kind = ir::FwdKind::kAdd;
  ir::FwdInstr i3 = i2;
  i3.dst = 3;
  prog.forward = {i2, i3};
  prog.share_subexpressions();
  EXPECT_EQ(prog.stats.shared, 1u);
  ASSERT_EQ(prog.forward.size(), 2u);
  EXPECT_EQ(prog.forward[0].kind, ir::FwdKind::kAdd);
  EXPECT_EQ(prog.forward[1].kind, ir::FwdKind::kCopy);
  EXPECT_EQ(prog.forward[1].a, 2u);  // copies from the representative

  // And on a pool-built tape the pass must find nothing.
  ExprPool pool;
  Conjunction c;
  c.add(pool.add(pool.mul(pool.var(0), pool.var(1)),
                 pool.mul(pool.var(1), pool.var(0))),
        Rel::kLe);
  const Hc4Tape tape(pool, c);
  ir::Program real = ir::Program::from_tape(tape);
  real.share_subexpressions();
  EXPECT_EQ(real.stats.shared, 0u);
}

TEST(Hc4JitIr, PrunesDeadProjections) {
  ExprPool pool;
  Conjunction c;
  // x^-2 has no inverse projection (project_node declines exp ≤ 0): the
  // backward instruction must demote to the bare requirement check.
  const ExprId x = pool.var(0);
  c.add(pool.pow(x, -2), Rel::kGe);
  // x + 2.5 with the constant interned *after* x, so it lands in the
  // kAdd's second operand: a constant leaf read only by this add, whose
  // leg-2 projection store is elided (intersect + check retained). The
  // first leg is never demotable — leg 2 reads its narrowed output.
  c.add(pool.add(x, pool.constant(2.5)), Rel::kLe);
  const Hc4Tape tape(pool, c);
  ir::Program prog = ir::Program::from_tape(tape);
  prog.prune_dead_projections(tape);
  EXPECT_GE(prog.stats.dead_projections, 1u);
  EXPECT_GE(prog.stats.demoted_stores, 1u);
  bool has_check_only = false, has_demoted = false;
  for (const auto& b : prog.backward) {
    has_check_only |= b.kind == ir::BwdKind::kCheckOnly;
    has_demoted |= b.kind == ir::BwdKind::kAdd && !b.store_b;
  }
  EXPECT_TRUE(has_check_only);
  EXPECT_TRUE(has_demoted);

  if (jit_supported()) {
    Hc4Contractor tape_hc4(pool, c, Hc4Mode::kTape);
    Hc4Contractor jit_hc4(pool, c, Hc4Mode::kJit);
    ASSERT_NE(jit_hc4.jit(), nullptr);
    Box a = Box::from_bounds({{0.1, 4.0}});
    Box b = a;
    EXPECT_EQ(tape_hc4.contract_fixpoint(a, 8, 0.05),
              jit_hc4.contract_fixpoint(b, 8, 0.05));
    EXPECT_TRUE(boxes_bit_identical(a, b));
  }
}

// --- disassembler round-trips -----------------------------------------------

std::size_t count_lines_with_prefix(const std::string& text,
                                    const std::string& prefix) {
  std::size_t count = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) ++count;
  }
  return count;
}

TEST(Hc4JitDump, TapeDumpRoundTripsInstructionCount) {
  std::mt19937 rng(5150);
  for (int trial = 0; trial < 10; ++trial) {
    ExprPool pool;
    const Conjunction c = random_conjunction(pool, rng);
    const Hc4Tape tape(pool, c);
    std::ostringstream out;
    tape.dump(out);
    EXPECT_EQ(count_lines_with_prefix(out.str(), "  %"), tape.code().size())
        << "trial " << trial;
  }
}

TEST(Hc4JitDump, IrDumpRoundTripsLiveCounts) {
  std::mt19937 rng(6021);
  for (int trial = 0; trial < 10; ++trial) {
    ExprPool pool;
    const Conjunction c = random_conjunction(pool, rng);
    const Hc4Tape tape(pool, c);
    ir::Program prog = ir::Program::from_tape(tape);
    prog.optimize(tape);
    std::ostringstream out;
    prog.dump(out, "optimized");
    EXPECT_EQ(count_lines_with_prefix(out.str(), "  f "),
              prog.live_forward())
        << "trial " << trial;
    EXPECT_EQ(count_lines_with_prefix(out.str(), "  b "),
              prog.backward.size())
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace bcert::smt
