// Tests for the HC4 contractor and the δ-SAT ICP solver.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "src/expr/expr.h"
#include "src/smt/hc4.h"
#include "src/smt/icp_solver.h"

namespace bcert::smt {
namespace {

using expr::ExprId;
using expr::ExprPool;
using interval::Box;
using interval::Interval;
using linalg::Vector;

TEST(Constraint, ViolationAndSatisfaction) {
  Constraint le{0, Rel::kLe};
  EXPECT_TRUE(le.certainly_violated(Interval(0.5, 1.0)));
  EXPECT_FALSE(le.certainly_violated(Interval(-0.5, 1.0)));
  EXPECT_TRUE(le.certainly_satisfied(Interval(-1.0, 0.0)));

  Constraint lt{0, Rel::kLt};
  EXPECT_TRUE(lt.certainly_violated(Interval(0.0, 1.0)));
  EXPECT_FALSE(lt.certainly_satisfied(Interval(-1.0, 0.0)));
  EXPECT_TRUE(lt.certainly_satisfied(Interval(-1.0, -0.1)));

  Constraint eq{0, Rel::kEq};
  EXPECT_TRUE(eq.certainly_violated(Interval(0.1, 1.0)));
  EXPECT_FALSE(eq.certainly_violated(Interval(-0.1, 0.1)));
}

TEST(Dnf, ConjoinCrossProduct) {
  Conjunction a, b, c, d;
  a.add(1, Rel::kLe);
  b.add(2, Rel::kGe);
  c.add(3, Rel::kLt);
  d.add(4, Rel::kGt);
  Dnf left({a, b}), right({c, d});
  Dnf prod = left.conjoin(right);
  ASSERT_EQ(prod.disjuncts.size(), 4u);
  EXPECT_EQ(prod.disjuncts[0].size(), 2u);
}

TEST(Hc4, ContractsLinearConstraint) {
  ExprPool p;
  // x + y - 1 <= 0 over [0,2]x[0,2]: no single-pass narrowing of x alone
  // is possible below y's contribution, but x <= 1 - y.lo = 1... wait:
  // x in [0,2], y in [0,2], x <= 1 - y in [-1,1] -> x in [0,1].
  const ExprId e =
      p.sub(p.add(p.var(0), p.var(1)), p.one());
  Conjunction c;
  c.add(e, Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{0.0, 2.0}, {0.0, 2.0}});
  const ContractResult r = hc4.contract(box);
  EXPECT_EQ(r, ContractResult::kContracted);
  EXPECT_NEAR(box[0].hi(), 1.0, 1e-9);
  EXPECT_NEAR(box[1].hi(), 1.0, 1e-9);
}

TEST(Hc4, ProvesEmptyOnInfeasibleBox) {
  ExprPool p;
  // x² + 1 <= 0 is infeasible everywhere.
  const ExprId e = p.add(p.sqr(p.var(0)), p.one());
  Conjunction c;
  c.add(e, Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-10.0, 10.0}});
  EXPECT_EQ(hc4.contract(box), ContractResult::kEmpty);
}

TEST(Hc4, ContractsThroughTanh) {
  ExprPool p;
  // tanh(x) - 0.5 >= 0  =>  x >= atanh(0.5) ≈ 0.5493.
  const ExprId e = p.sub(p.tanh(p.var(0)), p.constant(0.5));
  Conjunction c;
  c.add(e, Rel::kGe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-5.0, 5.0}});
  hc4.contract_fixpoint(box);
  EXPECT_GT(box[0].lo(), 0.54);
  EXPECT_LT(box[0].lo(), 0.56);
}

TEST(Hc4, ContractsThroughSinPrincipalBranch) {
  ExprPool p;
  // sin(x) >= 0.5 with x in [-1.5, 1.5] (inside principal branch):
  // x >= asin(0.5) ≈ 0.5236.
  const ExprId e = p.sub(p.sin(p.var(0)), p.constant(0.5));
  Conjunction c;
  c.add(e, Rel::kGe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-1.5, 1.5}});
  hc4.contract_fixpoint(box);
  EXPECT_GT(box[0].lo(), 0.51);
  EXPECT_LT(box[0].lo(), 0.53);
}

TEST(Hc4, BackwardThroughDivision) {
  ExprPool p;
  // x / y = 2 with x in [4, 4] -> y contracts to 2.
  Conjunction c;
  c.add(p.sub(p.div(p.var(0), p.var(1)), p.constant(2.0)), Rel::kEq);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{4.0, 4.0}, {0.5, 10.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[1].lo(), 2.0, 1e-6);
  EXPECT_NEAR(box[1].hi(), 2.0, 1e-6);
}

TEST(Hc4, BackwardThroughAbs) {
  ExprPool p;
  // |x| <= 1 over [-10, 10] -> x in [-1, 1].
  Conjunction c;
  c.add(p.sub(p.abs(p.var(0)), p.one()), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-10.0, 10.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[0].lo(), -1.0, 1e-9);
  EXPECT_NEAR(box[0].hi(), 1.0, 1e-9);
}

TEST(Hc4, BackwardThroughEvenPow) {
  ExprPool p;
  // x^4 <= 16 -> x in [-2, 2].
  Conjunction c;
  c.add(p.sub(p.pow(p.var(0), 4), p.constant(16.0)), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-8.0, 8.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[0].lo(), -2.0, 1e-6);
  EXPECT_NEAR(box[0].hi(), 2.0, 1e-6);
}

TEST(Hc4, BackwardThroughOddPow) {
  ExprPool p;
  // x^3 >= 8 -> x >= 2.
  Conjunction c;
  c.add(p.sub(p.constant(8.0), p.pow(p.var(0), 3)), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-10.0, 10.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[0].lo(), 2.0, 1e-6);
}

TEST(Hc4, BackwardThroughMinMax) {
  ExprPool p;
  // min(x, y) >= 1 -> both >= 1; max(x, y) <= 3 -> both <= 3.
  Conjunction c;
  c.add(p.sub(p.one(), p.min(p.var(0), p.var(1))), Rel::kLe);
  c.add(p.sub(p.max(p.var(0), p.var(1)), p.constant(3.0)), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-10.0, 10.0}, {-10.0, 10.0}});
  hc4.contract_fixpoint(box);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(box[i].lo(), 1.0, 1e-9);
    EXPECT_NEAR(box[i].hi(), 3.0, 1e-9);
  }
}

TEST(Hc4, BackwardThroughExpLog) {
  ExprPool p;
  // exp(x) <= e^2 -> x <= 2; log(y) >= 0 -> y >= 1.
  Conjunction c;
  c.add(p.sub(p.exp(p.var(0)), p.constant(std::exp(2.0))), Rel::kLe);
  c.add(p.neg(p.log(p.var(1))), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-10.0, 10.0}, {0.1, 10.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[0].hi(), 2.0, 1e-6);
  EXPECT_NEAR(box[1].lo(), 1.0, 1e-6);
}

TEST(Hc4, SharedSubtermRefinesOnce) {
  ExprPool p;
  // t = x²; t <= 4 and t >= 1 -> |x| in [1, 2] (hull [-2, 2]).
  const ExprId t = p.sqr(p.var(0));
  Conjunction c;
  c.add(p.sub(t, p.constant(4.0)), Rel::kLe);
  c.add(p.sub(p.one(), t), Rel::kLe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{0.0, 10.0}});
  hc4.contract_fixpoint(box);
  EXPECT_NEAR(box[0].lo(), 1.0, 1e-6);
  EXPECT_NEAR(box[0].hi(), 2.0, 1e-6);
}

TEST(Hc4, NeverDiscardsSolutions) {
  // Property: contraction keeps all points that satisfy the constraints.
  ExprPool p;
  const ExprId x = p.var(0), y = p.var(1);
  const ExprId e1 = p.sub(p.add(p.sqr(x), p.sqr(y)), p.one());  // ≤ 0
  const ExprId e2 = p.sub(p.mul(x, y), p.constant(0.1));        // ≥ 0
  Conjunction c;
  c.add(e1, Rel::kLe);
  c.add(e2, Rel::kGe);
  Hc4Contractor hc4(p, c);
  Box box = Box::from_bounds({{-2.0, 2.0}, {-2.0, 2.0}});
  Box contracted = box;
  hc4.contract_fixpoint(contracted);
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (int i = 0; i < 3000; ++i) {
    const Vector pt{d(rng), d(rng)};
    const bool sat = (pt[0] * pt[0] + pt[1] * pt[1] <= 1.0) &&
                     (pt[0] * pt[1] >= 0.1);
    if (sat) {
      ASSERT_TRUE(contracted.contains(pt))
          << "lost solution (" << pt[0] << "," << pt[1] << ")";
    }
  }
}

TEST(Icp, UnsatSimplePolynomial) {
  ExprPool p;
  // x² + y² <= -1 : UNSAT.
  const ExprId e =
      p.add(p.add(p.sqr(p.var(0)), p.sqr(p.var(1))), p.one());
  Conjunction c;
  c.add(e, Rel::kLe);
  IcpSolver solver(p);
  const auto r = solver.solve(c, Box::from_bounds({{-5, 5}, {-5, 5}}));
  EXPECT_EQ(r.verdict, SatResult::kUnsat);
}

TEST(Icp, SatWithTrueWitness) {
  ExprPool p;
  // x² <= 1 over [-3, 3] : any |x| <= 1 works; expect real SAT.
  const ExprId e = p.sub(p.sqr(p.var(0)), p.one());
  Conjunction c;
  c.add(e, Rel::kLe);
  IcpSolver solver(p);
  const auto r = solver.solve(c, Box::from_bounds({{-3.0, 3.0}}));
  ASSERT_TRUE(r.is_sat());
  const Vector w = r.witness_point();
  EXPECT_LE(w[0] * w[0], 1.0 + 1e-6);
}

TEST(Icp, CircleLineIntersection) {
  ExprPool p;
  // x² + y² = 4 and y = x : solutions at ±(√2, √2).
  const ExprId x = p.var(0), y = p.var(1);
  Conjunction c;
  c.add(p.sub(p.add(p.sqr(x), p.sqr(y)), p.constant(4.0)), Rel::kEq);
  c.add(p.sub(y, x), Rel::kEq);
  IcpSolver solver(p);
  solver.config().delta = 1e-6;
  const auto r = solver.solve(c, Box::from_bounds({{0.0, 5.0}, {0.0, 5.0}}));
  ASSERT_TRUE(r.is_sat());
  const Vector w = r.witness_point();
  EXPECT_NEAR(w[0], std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(w[1], std::sqrt(2.0), 1e-3);
}

TEST(Icp, UnsatTranscendental) {
  ExprPool p;
  // sin(x) + 2 <= 0 : UNSAT (sin >= -1).
  const ExprId e = p.add(p.sin(p.var(0)), p.constant(2.0));
  Conjunction c;
  c.add(e, Rel::kLe);
  IcpSolver solver(p);
  const auto r = solver.solve(c, Box::from_bounds({{-100.0, 100.0}}));
  EXPECT_EQ(r.verdict, SatResult::kUnsat);
}

TEST(Icp, TightUnsatNearBoundary) {
  ExprPool p;
  // tanh(x) > 1 - 1e-9 over x in [-10, 10]: requires x > atanh(1-1e-9)
  // ≈ 10.7 — outside the box, so UNSAT.
  const ExprId e =
      p.sub(p.tanh(p.var(0)), p.constant(1.0 - 1e-9));
  Conjunction c;
  c.add(e, Rel::kGt);
  IcpSolver solver(p);
  const auto r = solver.solve(c, Box::from_bounds({{-10.0, 10.0}}));
  EXPECT_EQ(r.verdict, SatResult::kUnsat);
}

TEST(Icp, DeltaSatReportedNearEquality) {
  ExprPool p;
  // x² = 2 : no certain-SAT box exists (equality), expect δ-SAT near √2.
  const ExprId e = p.sub(p.sqr(p.var(0)), p.constant(2.0));
  Conjunction c;
  c.add(e, Rel::kEq);
  IcpSolver solver(p);
  solver.config().delta = 1e-9;
  const auto r = solver.solve(c, Box::from_bounds({{0.0, 10.0}}));
  ASSERT_EQ(r.verdict, SatResult::kDeltaSat);
  EXPECT_NEAR(r.witness_point()[0], std::sqrt(2.0), 1e-6);
}

TEST(Icp, EmptyConjunctionIsSat) {
  ExprPool p;
  IcpSolver solver(p);
  const auto r = solver.solve(Conjunction{}, Box::from_bounds({{0.0, 1.0}}));
  EXPECT_EQ(r.verdict, SatResult::kSat);
}

TEST(Icp, DnfShortCircuitsOnSat) {
  ExprPool p;
  Conjunction unsat_c, sat_c;
  unsat_c.add(p.add(p.sqr(p.var(0)), p.one()), Rel::kLe);   // x²+1 <= 0
  sat_c.add(p.sub(p.var(0), p.constant(0.5)), Rel::kEq);    // x = 0.5
  Dnf q({unsat_c, sat_c});
  IcpSolver solver(p);
  const auto r = solver.solve(q, Box::from_bounds({{0.0, 1.0}}));
  ASSERT_TRUE(r.is_sat());
  EXPECT_NEAR(r.witness_point()[0], 0.5, 1e-2);
}

TEST(Icp, DnfAllUnsat) {
  ExprPool p;
  Conjunction c1, c2;
  c1.add(p.add(p.sqr(p.var(0)), p.one()), Rel::kLe);
  c2.add(p.add(p.exp(p.var(0)), p.one()), Rel::kLe);  // e^x + 1 <= 0
  Dnf q({c1, c2});
  IcpSolver solver(p);
  const auto r = solver.solve(q, Box::from_bounds({{-5.0, 5.0}}));
  EXPECT_EQ(r.verdict, SatResult::kUnsat);
}

TEST(Icp, BudgetExhaustionReportsUnknown) {
  ExprPool p;
  // Hard equality with a tiny box budget.
  const ExprId x = p.var(0), y = p.var(1);
  Conjunction c;
  c.add(p.sub(p.sin(p.mul(p.constant(20.0), x)), y), Rel::kEq);
  c.add(p.sub(p.sqr(y), p.constant(0.25)), Rel::kEq);
  IcpSolver solver(p);
  solver.config().max_boxes = 3;
  solver.config().delta = 1e-12;
  const auto r =
      solver.solve(c, Box::from_bounds({{-10.0, 10.0}, {-10.0, 10.0}}));
  EXPECT_EQ(r.verdict, SatResult::kUnknown);
}

TEST(Icp, SequentialIsDeterministic) {
  // Annulus 0.25 <= x² + y² <= 1: SAT, found only after several splits.
  ExprPool p;
  Conjunction c;
  const ExprId r2 = p.add(p.sqr(p.var(0)), p.sqr(p.var(1)));
  c.add(p.sub(r2, p.constant(1.0)), Rel::kLe);
  c.add(p.sub(p.constant(0.25), r2), Rel::kLe);

  IcpSolver solver(p);
  solver.config().delta = 1e-2;
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

TEST(Icp, WidestDimTieBreaksToLowestIndex) {
  // The exploration-order contract: equal widths split the lowest index.
  const Box b = Box::from_bounds({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  EXPECT_EQ(b.widest_dim(), 0u);
  const Box c = Box::from_bounds({{0.0, 0.5}, {0.0, 1.0}, {0.0, 1.0}});
  EXPECT_EQ(c.widest_dim(), 1u);
}

// Property: for random quadratic constraints, an UNSAT verdict is never
// contradicted by dense sampling, and a SAT verdict's witness satisfies
// the constraint.
class IcpSoundness : public ::testing::TestWithParam<int> {};

TEST_P(IcpSoundness, VerdictConsistentWithSampling) {
  std::mt19937 rng(GetParam() * 131 + 7);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  ExprPool p;
  const ExprId x = p.var(0), y = p.var(1);
  const double a = coeff(rng), b = coeff(rng), cc = coeff(rng),
               d0 = coeff(rng);
  // q(x,y) = a x² + b y² + c xy + d <= 0 over [-1,1]².
  const ExprId q = p.sum({p.mul(p.constant(a), p.sqr(x)),
                          p.mul(p.constant(b), p.sqr(y)),
                          p.mul(p.constant(cc), p.mul(x, y)),
                          p.constant(d0)});
  Conjunction c;
  c.add(q, Rel::kLe);
  IcpSolver solver(p);
  const Box box = Box::from_bounds({{-1.0, 1.0}, {-1.0, 1.0}});
  const auto r = solver.solve(c, box);
  auto qv = [&](double vx, double vy) {
    return a * vx * vx + b * vy * vy + cc * vx * vy + d0;
  };
  if (r.verdict == SatResult::kUnsat) {
    std::uniform_real_distribution<double> s(-1.0, 1.0);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_GT(qv(s(rng), s(rng)), 0.0) << "UNSAT contradicted by sample";
    }
  } else if (r.verdict == SatResult::kSat) {
    const Vector w = r.witness_point();
    EXPECT_LE(qv(w[0], w[1]), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IcpSoundness, ::testing::Range(0, 20));

}  // namespace
}  // namespace bcert::smt
