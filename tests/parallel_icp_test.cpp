// Budget sharing and determinism of the branch-and-prune ICP solver:
// a DNF query's disjuncts share one box and time budget, the aggregate
// reports the smallest surviving box width, and repeated solves of the
// same query give the same witness and statistics.
#include <chrono>

#include <gtest/gtest.h>

#include "src/expr/expr.h"
#include "src/smt/icp_solver.h"

namespace bcert::smt {
namespace {

using expr::ExprId;
using expr::ExprPool;
using interval::Box;

IcpConfig test_config() {
  IcpConfig c;
  c.delta = 1e-2;
  c.max_boxes = 500'000;
  c.time_limit_s = 60.0;
  return c;
}

/// A query the solver can never resolve: (x+y)² − x² − 2xy − y² is
/// identically zero, but the natural interval extension suffers the
/// dependency problem, so its enclosure always straddles 0 without ever
/// proving or refuting the equality. Every box survives and splits —
/// with an unreachable δ the search burns budget forever, which makes
/// the shared-budget accounting observable.
Conjunction budget_burner(ExprPool& pool) {
  const ExprId x = pool.var(0);
  const ExprId y = pool.var(1);
  const ExprId h = pool.sub(
      pool.sub(pool.sub(pool.sqr(pool.add(x, y)), pool.sqr(x)),
               pool.mul(pool.constant(2.0), pool.mul(x, y))),
      pool.sqr(y));
  Conjunction c;
  c.add(h, Rel::kEq);
  return c;
}

TEST(ParallelIcp, DnfSharesOneBoxBudget) {
  ExprPool pool;
  Dnf dnf;
  for (int j = 0; j < 4; ++j) dnf.disjuncts.push_back(budget_burner(pool));

  IcpConfig config;
  config.delta = -1.0;  // unreachable: the query can only exhaust budget
  config.max_boxes = 2000;
  config.time_limit_s = 60.0;
  const IcpSolver solver(pool, config);
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  const IcpResult r = solver.solve(dnf, box);

  EXPECT_EQ(r.verdict, SatResult::kUnknown);
  // The seed gave each disjunct a fresh budget (4 × max_boxes here); the
  // shared budget must cap the whole query at max_boxes.
  EXPECT_LE(r.stats.boxes_processed, config.max_boxes);
}

TEST(ParallelIcp, DnfSharesOneTimeBudget) {
  ExprPool pool;
  Dnf dnf;
  for (int j = 0; j < 4; ++j) dnf.disjuncts.push_back(budget_burner(pool));

  IcpConfig config;
  config.delta = -1.0;
  config.time_limit_s = 0.2;  // would be 0.8 s query-wide under the seed
  const IcpSolver solver(pool, config);
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});

  const auto start = std::chrono::steady_clock::now();
  const IcpResult r = solver.solve(dnf, box);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_EQ(r.verdict, SatResult::kUnknown);
  // Well under the seed's 4 × time_limit_s worst case.
  EXPECT_LT(wall, 2 * config.time_limit_s);
}

TEST(ParallelIcp, DnfPropagatesMaxDepthWidth) {
  ExprPool pool;
  // Two disjuncts that both force subdivision; the aggregate must report
  // the smallest surviving width (the seed silently dropped it).
  Dnf dnf;
  {
    Conjunction c;  // thin ring: 0.9 ≤ x² + y² ≤ 1.0
    const ExprId r2 = pool.add(pool.sqr(pool.var(0)), pool.sqr(pool.var(1)));
    c.add(pool.sub(r2, pool.constant(1.0)), Rel::kLe);
    c.add(pool.sub(pool.constant(0.9), r2), Rel::kLe);
    dnf.disjuncts.push_back(std::move(c));
  }
  IcpConfig config;
  config.delta = 1e-3;
  const IcpSolver solver(pool, config);
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  const IcpResult r = solver.solve(dnf, box);
  ASSERT_TRUE(r.is_sat());
  EXPECT_GT(r.stats.max_depth_width, 0.0);
  EXPECT_LT(r.stats.max_depth_width, box.max_width());
}

TEST(ParallelIcp, SequentialMatchesSeedBehaviorOnConjunction) {
  // The classic DFS exploration: same verdict, same witness box, same
  // statistics on repeated runs.
  ExprPool pool;
  Conjunction c;
  const ExprId r2 = pool.add(pool.sqr(pool.var(0)), pool.sqr(pool.var(1)));
  c.add(pool.sub(r2, pool.constant(1.0)), Rel::kLe);
  c.add(pool.sub(pool.constant(0.25), r2), Rel::kLe);

  const IcpSolver solver(pool, test_config());
  const Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  const IcpResult a = solver.solve(c, box);
  const IcpResult b = solver.solve(c, box);
  ASSERT_TRUE(a.is_sat());
  ASSERT_TRUE(b.is_sat());
  EXPECT_EQ(a.verdict, b.verdict);
  EXPECT_EQ(*a.witness, *b.witness);
  EXPECT_EQ(a.stats.boxes_processed, b.stats.boxes_processed);
  EXPECT_EQ(a.stats.splits, b.stats.splits);
}

}  // namespace
}  // namespace bcert::smt
