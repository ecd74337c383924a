// Stress, differential and warm-start coverage for the flat vectorized
// simplex core (src/lp/simplex.cpp):
//   * LpStress      — degenerate / unbounded / infeasible / empty-bound /
//                     redundant-row programs, plus pricing-rule torture.
//   * LpDifferential— randomized programs solved by both the new core
//                     and the preserved seed implementation
//                     (lp_reference_simplex.h); status must match and
//                     optimal objectives agree to 1e-9.
//   * LpWarm        — warm-started solves must equal cold solves across
//                     append-only LP sequences, including a recorded
//                     verifier candidate-loop sequence and the full
//                     BarrierPipeline<QuadraticForm> pipeline warm vs cold.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "bench/bench_common.h"
#include "src/core/lp_synthesis.h"
#include "src/core/pipeline.h"
#include "src/dubins/training.h"
#include "src/lp/problem.h"
#include "src/lp/simplex.h"
#include "tests/lp_reference_simplex.h"

namespace bcert::lp {
namespace {

using linalg::Vector;
using QuadPipeline = core::BarrierPipeline<core::QuadraticForm>;

// --- helpers ----------------------------------------------------------------

// The verifier-shaped margin LP generator is shared with the LP
// warm-start benchmark (bench/bench_common.h), so the gated benchmark
// and this equivalence coverage can never drift apart.
using bench::append_margin_rows;
using bench::margin_lp;

void expect_same_solution(const LpSolution& a, const LpSolution& b,
                          const char* what) {
  ASSERT_EQ(a.status, b.status)
      << what << ": " << lp_status_name(a.status) << " vs "
      << lp_status_name(b.status);
  if (a.status != LpStatus::kOptimal) return;
  EXPECT_NEAR(a.objective, b.objective,
              1e-9 * (1.0 + std::fabs(a.objective)))
      << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_NEAR(a.x[i], b.x[i], 1e-6) << what << " x[" << i << "]";
  }
}

// --- LpStress ---------------------------------------------------------------

TEST(LpStress, BealeDegenerateUnderEveryPricingRule) {
  LpProblem p = LpProblem::with_free_vars(4);
  p.sense = Sense::kMinimize;
  p.objective = Vector{-0.75, 150.0, -0.02, 6.0};
  p.lower = {0.0, 0.0, 0.0, 0.0};
  p.add_row(Vector{0.25, -60.0, -0.04, 9.0}, RowRel::kLe, 0.0);
  p.add_row(Vector{0.5, -90.0, -0.02, 3.0}, RowRel::kLe, 0.0);
  p.add_row(Vector{0.0, 0.0, 1.0, 0.0}, RowRel::kLe, 1.0);

  for (const int window : {0, 1, 2, 64}) {
    SimplexOptions opts;
    opts.pricing_window = window;
    LpSolution s = solve_lp(p, opts);
    ASSERT_EQ(s.status, LpStatus::kOptimal) << "window " << window;
    EXPECT_NEAR(s.objective, -0.05, 1e-6) << "window " << window;
  }
  // Pure Bland from the first pivot must also terminate (anti-cycling).
  SimplexOptions bland;
  bland.bland_after = 0;
  LpSolution s = solve_lp(p, bland);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-6);
}

TEST(LpStress, HomogeneousDegenerateMarginLp) {
  // Fully homogeneous margin LP (no rhs perturbation): maximally
  // degenerate starting vertex; must still terminate optimal.
  std::mt19937 rng(11);
  LpProblem p = margin_lp(rng, 3, 120);
  for (LpRow& row : p.rows) row.rhs = 0.0;
  const LpSolution s = solve_lp(p);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_GT(s.x[3], 0.0);
}

TEST(LpStress, EmptyBoundThrows) {
  LpProblem p = LpProblem::with_free_vars(2);
  p.lower = {0.0, 1.0};
  p.upper = {1.0, 0.5};  // empty interval for x1
  EXPECT_THROW(solve_lp(p), std::invalid_argument);
}

TEST(LpStress, RedundantRowsKeepZeroLevelArtificials) {
  // Three copies of the same equality: two rows are redundant and keep
  // their artificials basic at level zero; the solve must still finish
  // and its exported basis must round-trip through a warm start.
  LpProblem p = LpProblem::with_free_vars(2);
  p.objective = Vector{1.0, 1.0};
  p.lower = {0.0, 0.0};
  for (int i = 0; i < 3; ++i) {
    p.add_row(Vector{1.0, 2.0}, RowRel::kEq, 3.0);
  }
  const LpSolution cold = solve_lp(p);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(cold.objective, 1.5, 1e-8);
  ASSERT_EQ(cold.basis.num_rows(), 3u);

  SimplexOptions warm_opts;
  warm_opts.warm_start = cold.basis;
  const LpSolution warm = solve_lp(p, warm_opts);
  expect_same_solution(cold, warm, "redundant-row warm round-trip");
}

TEST(LpStress, InconsistentRedundantRowsInfeasible) {
  LpProblem p = LpProblem::with_free_vars(2);
  p.objective = Vector{1.0, 1.0};
  p.lower = {0.0, 0.0};
  p.add_row(Vector{1.0, 2.0}, RowRel::kEq, 3.0);
  p.add_row(Vector{1.0, 2.0}, RowRel::kEq, 4.0);  // contradicts row 0
  EXPECT_EQ(solve_lp(p).status, LpStatus::kInfeasible);
}

// --- LpDifferential ---------------------------------------------------------

/// Random LP generator covering every variable-bound kind and row
/// relation the converter handles.
LpProblem random_lp(std::mt19937& rng) {
  std::uniform_int_distribution<int> nvars(1, 5);
  std::uniform_int_distribution<int> nrows(0, 12);
  std::uniform_int_distribution<int> kind(0, 3);
  std::uniform_int_distribution<int> rel(0, 5);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  std::uniform_real_distribution<double> rhs(-3.0, 3.0);

  const std::size_t n = static_cast<std::size_t>(nvars(rng));
  LpProblem p = LpProblem::with_free_vars(n);
  p.sense = rel(rng) % 2 == 0 ? Sense::kMinimize : Sense::kMaximize;
  for (std::size_t j = 0; j < n; ++j) {
    p.objective[j] = coeff(rng);
    switch (kind(rng)) {
      case 0:  // free
        break;
      case 1:
        p.lower[j] = rhs(rng);
        break;
      case 2:
        p.upper[j] = rhs(rng);
        break;
      default: {
        const double a = rhs(rng), b = rhs(rng);
        p.lower[j] = std::min(a, b);
        p.upper[j] = std::max(a, b);
        break;
      }
    }
  }
  const int m = nrows(rng);
  for (int i = 0; i < m; ++i) {
    Vector row(n);
    for (std::size_t j = 0; j < n; ++j) row[j] = coeff(rng);
    // Mostly inequalities; equalities sparingly (they drive phase 1).
    const int r = rel(rng);
    const RowRel rr = r <= 2 ? RowRel::kLe : (r <= 4 ? RowRel::kGe
                                                     : RowRel::kEq);
    p.add_row(std::move(row), rr, rhs(rng));
  }
  return p;
}

class LpDifferential : public ::testing::TestWithParam<int> {};

TEST_P(LpDifferential, FlatCoreMatchesSeedImplementation) {
  std::mt19937 rng(GetParam() * 7919 + 101);
  for (int trial = 0; trial < 40; ++trial) {
    const LpProblem p = random_lp(rng);
    const LpSolution seed = seed_ref::solve_lp(p);
    const LpSolution flat = solve_lp(p);
    ASSERT_EQ(flat.status, seed.status)
        << "seed " << GetParam() << " trial " << trial << ": flat "
        << lp_status_name(flat.status) << " vs seed "
        << lp_status_name(seed.status);
    if (seed.status == LpStatus::kOptimal) {
      EXPECT_NEAR(flat.objective, seed.objective,
                  1e-9 * (1.0 + std::fabs(seed.objective)))
          << "seed " << GetParam() << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpDifferential, ::testing::Range(0, 8));

// --- LpWarm -----------------------------------------------------------------

TEST(LpWarm, WarmEqualsColdAcrossAppendOnlySequence) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    std::mt19937 rng(977 * seed + 13);
    LpProblem p = margin_lp(rng, 5, 60);

    LpSolution cold = solve_lp(p);
    ASSERT_EQ(cold.status, LpStatus::kOptimal);
    LpBasis basis = cold.basis;

    for (int iter = 0; iter < 8; ++iter) {
      append_margin_rows(p, rng, 4);
      SimplexOptions warm_opts;
      warm_opts.warm_start = basis;
      const LpSolution warm = solve_lp(p, warm_opts);
      const LpSolution fresh = solve_lp(p);
      expect_same_solution(fresh, warm, "append sequence");
      EXPECT_TRUE(warm.used_warm_start)
          << "seed " << seed << " iter " << iter;
      EXPECT_LE(warm.iterations, fresh.iterations)
          << "seed " << seed << " iter " << iter
          << ": warm start did more pivots than cold";
      basis = warm.basis;
    }
  }
}

TEST(LpWarm, InfeasibleAfterWarmStart) {
  std::mt19937 rng(5);
  LpProblem p = margin_lp(rng, 3, 30);
  const LpSolution base = solve_lp(p);
  ASSERT_EQ(base.status, LpStatus::kOptimal);

  // Appended rows force the margin above 1 while a coefficient-free row
  // caps it below: infeasible after the warm start.
  Vector force_up(4);
  force_up[3] = -1.0;
  p.add_row(std::move(force_up), RowRel::kLe, -1.0);  // g >= 1
  Vector cap(4);
  cap[3] = 1.0;
  p.add_row(std::move(cap), RowRel::kLe, 0.5);  // g <= 0.5

  SimplexOptions warm_opts;
  warm_opts.warm_start = base.basis;
  const LpSolution warm = solve_lp(p, warm_opts);
  const LpSolution cold = solve_lp(p);
  EXPECT_EQ(cold.status, LpStatus::kInfeasible);
  EXPECT_EQ(warm.status, LpStatus::kInfeasible);
}

TEST(LpWarm, UnboundedReachedFromWarmBasis) {
  // Same feasible set, new objective: the warm basis realizes cleanly
  // and primal iterations must still detect unboundedness.
  LpProblem p = LpProblem::with_free_vars(2);
  p.sense = Sense::kMaximize;
  p.objective = Vector{1.0, 0.0};
  p.lower = {0.0, 0.0};
  p.add_row(Vector{1.0, 0.0}, RowRel::kLe, 3.0);
  const LpSolution base = solve_lp(p);
  ASSERT_EQ(base.status, LpStatus::kOptimal);

  p.objective = Vector{0.0, 1.0};  // y is unbounded above
  SimplexOptions warm_opts;
  warm_opts.warm_start = base.basis;
  EXPECT_EQ(solve_lp(p, warm_opts).status, LpStatus::kUnbounded);
  EXPECT_EQ(solve_lp(p).status, LpStatus::kUnbounded);
}

TEST(LpWarm, MalformedBasisFallsBackToCold) {
  std::mt19937 rng(21);
  const LpProblem p = margin_lp(rng, 4, 40);
  const LpSolution cold = solve_lp(p);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);

  const auto solve_with = [&](LpBasis basis) {
    SimplexOptions opts;
    opts.warm_start = std::move(basis);
    return solve_lp(p, opts);
  };

  LpBasis wrong_struct = cold.basis;
  wrong_struct.num_structural += 3;
  LpBasis out_of_range = cold.basis;
  out_of_range.basic[0] = 1 << 20;
  LpBasis duplicate = cold.basis;
  duplicate.basic[1] = duplicate.basic[0];
  LpBasis oversized = cold.basis;
  oversized.basic.resize(oversized.basic.size() + 50,
                         oversized.num_structural);

  for (LpBasis* basis :
       {&wrong_struct, &out_of_range, &duplicate, &oversized}) {
    const LpSolution s = solve_with(*basis);
    EXPECT_FALSE(s.used_warm_start);
    expect_same_solution(cold, s, "malformed-basis fallback");
  }
}

TEST(LpWarm, TinyIterationBudgetStaysSound) {
  // The warm attempt is capped at half the shared iteration budget and
  // abandoned on a stall; whatever the budget, the solver must never
  // report a wrong optimum — only kOptimal (matching the full-budget
  // answer) or kIterLimit.
  std::mt19937 rng(3);
  LpProblem p = margin_lp(rng, 4, 50);
  const LpSolution base = solve_lp(p);
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  append_margin_rows(p, rng, 6);
  const LpSolution full = solve_lp(p);
  ASSERT_EQ(full.status, LpStatus::kOptimal);

  for (const int budget : {0, 1, 2, 5, 20, 1000}) {
    SimplexOptions opts;
    opts.max_iterations = budget;
    opts.warm_start = base.basis;
    const LpSolution s = solve_lp(p, opts);
    EXPECT_LE(s.iterations, budget) << "budget " << budget;
    if (s.status == LpStatus::kOptimal) {
      EXPECT_NEAR(s.objective, full.objective,
                  1e-9 * (1.0 + std::fabs(full.objective)))
          << "budget " << budget;
    } else {
      EXPECT_EQ(s.status, LpStatus::kIterLimit) << "budget " << budget;
    }
  }
}

TEST(LpWarm, RecordedVerifierLpSequence) {
  // Record the actual LP sequence of the verifier's candidate loop: the
  // seed sample set of the paper's case study, extended step by step
  // with further trajectory samples (what counterexample refinement
  // does), re-synthesizing after each extension. Warm-started synthesis
  // must match cold synthesis at every step.
  expr::ExprPool pool;
  const nn::FeedforwardNet net =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  core::BarrierProblem problem = bench::make_problem(pool, net);
  QuadPipeline verifier(std::move(problem), {});

  std::vector<core::FieldSample> samples;
  const auto states = verifier.random_initial_states(10, 1);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto s = verifier.simulate_samples(states[i]);
    samples.insert(samples.end(), s.begin(), s.end());
  }

  core::SynthesisOptions cold_opts;  // warm flag irrelevant: basis unset
  core::SynthesisOptions warm_opts;
  lp::LpBasis basis;
  for (std::size_t step = 4; step < states.size(); ++step) {
    warm_opts.simplex.warm_start = basis;
    const core::SynthesisResult warm =
        core::synthesize_candidate(samples, 2, warm_opts);
    const core::SynthesisResult cold =
        core::synthesize_candidate(samples, 2, cold_opts);
    ASSERT_EQ(warm.lp_status, cold.lp_status) << "step " << step;
    ASSERT_EQ(warm.feasible, cold.feasible) << "step " << step;
    EXPECT_NEAR(warm.margin, cold.margin, 1e-9 * (1.0 + cold.margin))
        << "step " << step;
    if (!basis.empty()) {
      EXPECT_TRUE(warm.lp_warm_started) << "step " << step;
    }
    basis = warm.basis;

    const auto s = verifier.simulate_samples(states[step]);
    samples.insert(samples.end(), s.begin(), s.end());
  }
}

TEST(LpWarm, FullVerifierWarmMatchesCold) {
  expr::ExprPool pool;
  const nn::FeedforwardNet net =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);

  core::VerifierOptions warm_opts;
  warm_opts.synthesis.warm_start = true;
  core::VerifierOptions cold_opts;
  cold_opts.synthesis.warm_start = false;

  QuadPipeline warm_verifier(bench::make_problem(pool, net), warm_opts);
  core::VerifyResult warm = warm_verifier.run();
  QuadPipeline cold_verifier(bench::make_problem(pool, net), cold_opts);
  core::VerifyResult cold = cold_verifier.run();

  EXPECT_EQ(warm.status, cold.status)
      << core::verify_status_name(warm.status) << " vs "
      << core::verify_status_name(cold.status);
  EXPECT_NEAR(warm.lp_margin, cold.lp_margin,
              1e-9 * (1.0 + cold.lp_margin));
  if (warm.safe() && cold.safe()) {
    EXPECT_NEAR(warm.level, cold.level, 1e-6 * (1.0 + cold.level));
    ASSERT_TRUE(warm.generator && cold.generator);
    const linalg::Vector& wc = warm.generator->coeffs();
    const linalg::Vector& cc = cold.generator->coeffs();
    ASSERT_EQ(wc.size(), cc.size());
    for (std::size_t i = 0; i < wc.size(); ++i) {
      EXPECT_NEAR(wc[i], cc[i], 1e-7) << "W coefficient " << i;
    }
  }
}

}  // namespace
}  // namespace bcert::lp
