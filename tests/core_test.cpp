// Tests for the core barrier-synthesis machinery: regions, quadratic
// forms, LP synthesis, and the end-to-end verifier (the paper's Fig. 1).
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "src/core/lp_synthesis.h"
#include "src/core/pipeline.h"
#include "src/core/quadratic_form.h"
#include "src/core/region.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"

namespace bcert::core {
namespace {

using linalg::Vector;
constexpr double kPi = 3.14159265358979323846;

TEST(Rect, ContainsAndVertices) {
  Rect r{{-1.0, -2.0}, {1.0, 2.0}};
  r.validate();
  EXPECT_TRUE(r.contains(Vector{0.0, 0.0}));
  EXPECT_FALSE(r.contains(Vector{1.5, 0.0}));
  const auto verts = r.vertices();
  EXPECT_EQ(verts.size(), 4u);
  EXPECT_EQ(r.center().raw(), (Vector{0.0, 0.0}).raw());
}

TEST(Rect, ValidateRejectsInverted) {
  Rect r{{1.0}, {-1.0}};
  EXPECT_THROW(r.validate(), std::invalid_argument);
}

TEST(Region, InsideRectConjunction) {
  expr::ExprPool pool;
  Rect r{{-1.0, -1.0}, {1.0, 1.0}};
  const smt::Conjunction c = inside_rect(pool, r);
  EXPECT_EQ(c.size(), 4u);
  // All constraints hold at the center, some fail outside.
  for (const smt::Constraint& k : c.constraints) {
    EXPECT_LE(pool.eval(k.lhs, Vector{0.0, 0.0}), 0.0);
  }
  bool violated = false;
  for (const smt::Constraint& k : c.constraints) {
    if (pool.eval(k.lhs, Vector{2.0, 0.0}) > 0.0) violated = true;
  }
  EXPECT_TRUE(violated);
}

TEST(Region, OutsideRectDnf) {
  expr::ExprPool pool;
  Rect r{{-1.0, -1.0}, {1.0, 1.0}};
  const smt::Dnf d = outside_rect(pool, r);
  EXPECT_EQ(d.disjuncts.size(), 4u);
  // At an outside point at least one disjunct holds.
  int holds = 0;
  for (const auto& disj : d.disjuncts) {
    bool all = true;
    for (const smt::Constraint& k : disj.constraints) {
      if (pool.eval(k.lhs, Vector{0.0, 3.0}) > 0.0) all = false;
    }
    if (all) ++holds;
  }
  EXPECT_GE(holds, 1);
}

TEST(QuadraticForm, ValueGradientMatrixConsistency) {
  // W = 2x² + 3xy + 4y².
  QuadraticForm w(2, Vector{2.0, 3.0, 4.0});
  const Vector x{1.0, -2.0};
  EXPECT_DOUBLE_EQ(w.value(x), 2.0 - 6.0 + 16.0);
  const Vector g = w.gradient(x);
  EXPECT_DOUBLE_EQ(g[0], 4.0 * 1.0 + 3.0 * (-2.0));  // 4x + 3y
  EXPECT_DOUBLE_EQ(g[1], 3.0 * 1.0 + 8.0 * (-2.0));  // 3x + 8y
  const linalg::Matrix p = w.matrix();
  EXPECT_DOUBLE_EQ(p(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(p(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(quadratic_form(x, p, x), w.value(x));
}

TEST(QuadraticForm, FromMatrixRoundTrip) {
  linalg::Matrix p{{2.0, 0.5}, {0.5, 1.0}};
  const QuadraticForm w = QuadraticForm::from_matrix(p);
  const Vector x{0.7, -1.1};
  EXPECT_NEAR(w.value(x), quadratic_form(x, p, x), 1e-14);
}

TEST(QuadraticForm, PositiveDefiniteness) {
  EXPECT_TRUE(QuadraticForm(2, Vector{1.0, 0.0, 1.0}).positive_definite());
  EXPECT_FALSE(QuadraticForm(2, Vector{1.0, 3.0, 1.0}).positive_definite());
  EXPECT_FALSE(QuadraticForm(2, Vector{-1.0, 0.0, 1.0}).positive_definite());
}

TEST(QuadraticForm, SymbolicMatchesNumeric) {
  QuadraticForm w(2, Vector{0.5, 0.3, 1.0});
  expr::ExprPool pool;
  const expr::ExprId e = w.to_expr(pool);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-3.0, 3.0);
  for (int i = 0; i < 50; ++i) {
    const Vector x{d(rng), d(rng)};
    EXPECT_NEAR(pool.eval(e, x), w.value(x), 1e-12);
  }
}

TEST(QuadraticForm, LevelGeometryUnitCircle) {
  // W = x² + y²: level ℓ is the disk of radius √ℓ.
  QuadraticForm w(2, Vector{1.0, 0.0, 1.0});
  Rect x0{{-0.5, -0.5}, {0.5, 0.5}};
  EXPECT_NEAR(w.min_level_containing(x0), 0.5, 1e-12);  // corner at r²=0.5
  const Halfspace hs{0, +1, 2.0};  // x ≥ 2
  const auto cap = w.max_level_avoiding(hs);
  ASSERT_TRUE(cap.has_value());
  EXPECT_NEAR(*cap, 4.0, 1e-9);  // disk of radius 2 touches x=2
  const auto bbox = w.level_set_bounding_box(1.0);
  ASSERT_TRUE(bbox.has_value());
  EXPECT_NEAR(bbox->hi[0], 1.0, 1e-9);
  EXPECT_NEAR(bbox->hi[1], 1.0, 1e-9);
}

TEST(QuadraticForm, LevelGeometryTiltedEllipse) {
  // W = x² + xy + y² (tilted). Check bound formula against sampling.
  QuadraticForm w(2, Vector{1.0, 1.0, 1.0});
  const Halfspace hs{0, +1, 3.0};
  const auto cap = w.max_level_avoiding(hs);
  ASSERT_TRUE(cap.has_value());
  // Minimum of W on the line x=3: min_y 9 + 3y + y² at y=-1.5 → 9-2.25.
  EXPECT_NEAR(*cap, 6.75, 1e-9);
}

TEST(QuadraticForm, Boundary2dLiesOnLevelSet) {
  QuadraticForm w(2, Vector{0.8, 0.4, 1.2});
  const auto pts = w.boundary_points_2d(2.0, 64);
  ASSERT_GT(pts.size(), 32u);
  for (const auto& p : pts) EXPECT_NEAR(w.value(p), 2.0, 1e-9);
}

TEST(LpSynthesis, RecoverLyapunovForLinearSystem) {
  // ẋ = -x, ẏ = -2y: W = a x² + c y² works for any a,c > 0.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  std::vector<FieldSample> samples;
  for (int i = 0; i < 120; ++i) {
    Vector x{d(rng), d(rng)};
    samples.push_back({x, Vector{-x[0], -2.0 * x[1]}});
  }
  const SynthesisResult r = synthesize_candidate(samples, 2);
  ASSERT_TRUE(r.feasible);
  EXPECT_GT(r.margin, 0.1);
  EXPECT_TRUE(r.candidate.positive_definite());
  // Decrease along the field at fresh points.
  for (int i = 0; i < 100; ++i) {
    Vector x{d(rng), d(rng)};
    if (x.norm() < 1e-3) continue;
    const Vector f{-x[0], -2.0 * x[1]};
    EXPECT_LT(dot(r.candidate.gradient(x), f), 0.0);
  }
}

TEST(LpSynthesis, InfeasibleForExpandingSystem) {
  // ẋ = +x: no positive decreasing quadratic exists.
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(0.5, 2.0);
  std::vector<FieldSample> samples;
  for (int i = 0; i < 60; ++i) {
    Vector x{d(rng)};
    samples.push_back({x, Vector{x[0]}});
  }
  const SynthesisResult r = synthesize_candidate(samples, 1);
  EXPECT_FALSE(r.feasible);
}

TEST(LpSynthesis, SamplesFromTraceClipsToDomain) {
  ode::Trace t;
  for (int i = 0; i <= 20; ++i) {
    t.push_back(0.1 * i, Vector{static_cast<double>(i), 0.0});
  }
  const ode::VectorField f = [](const Vector& x) {
    return Vector{-x[0], -x[1]};
  };
  Rect domain{{-5.0, -5.0}, {5.0, 5.0}};
  const auto samples = samples_from_trace(t, f, domain, 100);
  for (const FieldSample& s : samples) {
    EXPECT_TRUE(domain.contains(s.x));
  }
  EXPECT_LT(samples.size(), t.size());
}

// ---- End-to-end verifier ------------------------------------------------

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

TEST(Verifier, DubinsDistilledControllerIsSafe) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10);
  BarrierPipeline<QuadraticForm> verifier(dubins_problem(pool, controller), {});
  const VerifyResult r = verifier.run();
  ASSERT_EQ(r.status, VerifyStatus::kSafe) << verify_status_name(r.status);
  ASSERT_TRUE(r.generator.has_value());
  EXPECT_TRUE(r.generator->positive_definite());
  EXPECT_GT(r.level, 0.0);

  // The certificate must separate X0 from U: every X0 vertex inside L,
  // every safe-rect boundary sample outside L.
  const Rect x0 = verifier.problem().initial_set;
  for (const Vector& v : x0.vertices()) {
    EXPECT_LE(r.generator->value(v), r.level);
  }
  const Rect s = verifier.problem().safe_rect;
  for (double th = s.lo[1]; th <= s.hi[1]; th += 0.1) {
    EXPECT_GT(r.generator->value(Vector{s.lo[0], th}), r.level);
    EXPECT_GT(r.generator->value(Vector{s.hi[0], th}), r.level);
  }
}

TEST(Verifier, CertificateDecreasesAlongTrajectories) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 20);
  const BarrierProblem problem = dubins_problem(pool, controller);
  BarrierPipeline<QuadraticForm> verifier(problem, {});
  const VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe());

  // Simulate from X0 corners: W along the trajectory never rises above ℓ
  // and the state never reaches U.
  for (const Vector& v : problem.initial_set.vertices()) {
    ode::IntegrateOptions iopts;
    iopts.step = 0.01;
    iopts.t_end = 30.0;
    const ode::Trace t = integrate_rk4(problem.sim_field, v, iopts);
    for (std::size_t i = 0; i < t.size(); ++i) {
      EXPECT_LE(r.generator->value(t.state(i)), r.level + 1e-6);
      EXPECT_TRUE(problem.safe_rect.contains(t.state(i)));
    }
  }
}

TEST(Verifier, UnsafeControllerIsNotCertified) {
  // A destabilizing controller (wrong sign) must not be declared safe.
  nn::FeedforwardNet bad = nn::FeedforwardNet::single_hidden(2, 4, 1);
  // u = tanh(-(0.5 d + 2 th)) via explicit weights: hidden = identity-ish.
  bad.layer(0).weights = linalg::Matrix{{-0.5, -2.0}, {0.0, 0.0}};
  bad.layer(0).bias = Vector{0.0, 0.0};
  bad.layer(1).weights = linalg::Matrix{{5.0, 0.0}};
  bad.layer(1).bias = Vector{0.0};
  expr::ExprPool pool;
  VerifierOptions opts;
  opts.max_candidate_iterations = 3;  // keep the test fast
  BarrierPipeline<QuadraticForm> verifier(dubins_problem(pool, bad), opts);
  const VerifyResult r = verifier.run();
  EXPECT_NE(r.status, VerifyStatus::kSafe);
}

TEST(Verifier, LinearStableSystemDirectly) {
  // Bypass the NN entirely: ẋ = -x - y, ẏ = x - y (stable focus).
  expr::ExprPool pool;
  BarrierProblem p;
  p.pool = &pool;
  p.sim_field = [](const Vector& x) {
    return Vector{-x[0] - x[1], x[0] - x[1]};
  };
  const expr::ExprId x = pool.var(0), y = pool.var(1);
  p.sym_field = {pool.sub(pool.neg(x), y), pool.sub(x, y)};
  p.initial_set = {{-0.5, -0.5}, {0.5, 0.5}};
  p.safe_rect = {{-3.0, -3.0}, {3.0, 3.0}};
  BarrierPipeline<QuadraticForm> verifier(p, {});
  const VerifyResult r = verifier.run();
  ASSERT_EQ(r.status, VerifyStatus::kSafe) << verify_status_name(r.status);
}

TEST(Verifier, ValidatesProblemShape) {
  expr::ExprPool pool;
  BarrierProblem p;
  p.pool = &pool;
  p.sim_field = [](const Vector& x) { return x; };
  p.sym_field = {pool.var(0)};
  p.initial_set = {{-2.0}, {2.0}};
  p.safe_rect = {{-1.0}, {1.0}};  // X0 not inside safe rect
  EXPECT_THROW(BarrierPipeline<QuadraticForm>(p, {}), std::invalid_argument);
}

TEST(Verifier, CheckDecreaseFindsCexForBadCandidate) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10);
  BarrierPipeline<QuadraticForm> verifier(dubins_problem(pool, controller), {});
  // W = d² alone is not a generator (ignores θ dynamics): expect SAT.
  QuadraticForm bad(2, Vector{1.0, 0.0, 0.0});
  const smt::IcpResult r = verifier.check_decrease(bad);
  EXPECT_TRUE(r.is_sat());
}

TEST(Verifier, LevelChecksBracketCorrectly) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10);
  BarrierPipeline<QuadraticForm> verifier(dubins_problem(pool, controller), {});
  // A PD form; compute its analytic window and test the SMT checks at
  // levels inside/outside the window.
  QuadraticForm w(2, Vector{0.5, 0.3, 1.0});
  const auto window = verifier.level_window(w);
  ASSERT_TRUE(window.has_value());
  const auto [lo, hi] = *window;
  EXPECT_LT(lo, hi);
  // ℓ below lo: some X0 vertex is outside L → (6) must be SAT.
  EXPECT_TRUE(verifier.check_initial_contained(w, 0.5 * lo).is_sat());
  // ℓ in the middle: both checks UNSAT.
  const double mid = std::sqrt(lo * hi);
  EXPECT_TRUE(verifier.check_initial_contained(w, mid).is_unsat());
  EXPECT_TRUE(verifier.check_level_exclusion(w, mid).is_unsat());
  // ℓ above hi: L pokes into U → (7) must be SAT.
  EXPECT_TRUE(verifier.check_level_exclusion(w, hi * 1.2).is_sat());
}

// Property sweep: verified certificates really are invariant under
// random simulation, across controller widths and seeds.
struct SweepParam {
  std::size_t hidden;
  unsigned seed;
};

class CertificateInvariance : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CertificateInvariance, NoTrajectoryEscapesLevelSet) {
  const auto [hidden, seed] = GetParam();
  expr::ExprPool pool;
  const nn::FeedforwardNet controller = dubins::distill_controller(
      dubins::proportional_teacher(), hidden, seed);
  const BarrierProblem problem = dubins_problem(pool, controller);
  BarrierPipeline<QuadraticForm> verifier(problem, {});
  const VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe()) << verify_status_name(r.status);

  std::mt19937 rng(seed);
  const Rect x0 = problem.initial_set;
  std::uniform_real_distribution<double> dd(x0.lo[0], x0.hi[0]);
  std::uniform_real_distribution<double> dt(x0.lo[1], x0.hi[1]);
  for (int k = 0; k < 5; ++k) {
    const Vector start{dd(rng), dt(rng)};
    ode::IntegrateOptions iopts;
    iopts.step = 0.02;
    iopts.t_end = 25.0;
    const ode::Trace t = integrate_rk4(problem.sim_field, start, iopts);
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_TRUE(problem.safe_rect.contains(t.state(i)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Controllers, CertificateInvariance,
    ::testing::Values(SweepParam{10, 1}, SweepParam{20, 2},
                      SweepParam{40, 3}, SweepParam{80, 4}));

}  // namespace
}  // namespace bcert::core
