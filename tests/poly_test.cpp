// Tests for polynomial templates (MonomialBasis / PolynomialForm),
// polynomial LP synthesis, and the polynomial barrier verifier.
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"
#include "src/expr/eval.h"

namespace bcert::core {
namespace {

using linalg::Vector;
constexpr double kPi = 3.14159265358979323846;

TEST(MonomialBasis, QuadraticBasisMatchesQuadraticForm) {
  const MonomialBasis basis = MonomialBasis::quadratic(2);
  EXPECT_EQ(basis.size(), 3u);  // x², xy, y²
  for (std::size_t k = 0; k < basis.size(); ++k) {
    EXPECT_EQ(basis.degree(k), 2);
  }
}

TEST(MonomialBasis, CountsForDegreeRange) {
  // Degree 2..4 in 2 vars: 3 + 4 + 5 = 12 monomials.
  const MonomialBasis basis(2, 2, 4);
  EXPECT_EQ(basis.size(), 12u);
  // 3 vars, degree exactly 3: C(3+3-1, 3) = 10.
  EXPECT_EQ(MonomialBasis(3, 3, 3).size(), 10u);
}

TEST(MonomialBasis, RejectsBadArguments) {
  EXPECT_THROW(MonomialBasis(0, 2, 2), std::invalid_argument);
  EXPECT_THROW(MonomialBasis(2, 0, 2), std::invalid_argument);
  EXPECT_THROW(MonomialBasis(2, 3, 2), std::invalid_argument);
}

TEST(MonomialBasis, ValueAndGradient) {
  const MonomialBasis basis(2, 2, 3);
  const Vector x{2.0, -1.5};
  for (std::size_t k = 0; k < basis.size(); ++k) {
    const auto& e = basis.exponents(k);
    const double expected = std::pow(x[0], e[0]) * std::pow(x[1], e[1]);
    EXPECT_NEAR(basis.value(k, x), expected, 1e-12);
    // Finite-difference gradient check.
    const Vector g = basis.gradient(k, x);
    const double h = 1e-7;
    for (std::size_t i = 0; i < 2; ++i) {
      Vector xp = x, xm = x;
      xp[i] += h;
      xm[i] -= h;
      const double fd = (basis.value(k, xp) - basis.value(k, xm)) / (2 * h);
      EXPECT_NEAR(g[i], fd, 1e-4);
    }
  }
}

TEST(PolynomialForm, EvaluationAndSymbolicAgree) {
  const MonomialBasis basis(2, 2, 4);
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  Vector coeffs(basis.size());
  for (std::size_t k = 0; k < coeffs.size(); ++k) coeffs[k] = c(rng);
  const PolynomialForm w(basis, coeffs);

  expr::ExprPool pool;
  const expr::ExprId e = w.to_expr(pool);
  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    const Vector x{d(rng), d(rng)};
    EXPECT_NEAR(pool.eval(e, x), w.value(x), 1e-10);
  }
}

TEST(PolynomialForm, GradientMatchesFiniteDifference) {
  const MonomialBasis basis(2, 2, 4);
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  Vector coeffs(basis.size());
  for (std::size_t k = 0; k < coeffs.size(); ++k) coeffs[k] = c(rng);
  const PolynomialForm w(basis, coeffs);
  const Vector x{0.7, -1.1};
  const Vector g = w.gradient(x);
  const double h = 1e-7;
  for (std::size_t i = 0; i < 2; ++i) {
    Vector xp = x, xm = x;
    xp[i] += h;
    xm[i] -= h;
    EXPECT_NEAR(g[i], (w.value(xp) - w.value(xm)) / (2 * h), 1e-4);
  }
}

TEST(PolynomialForm, ToStringReadable) {
  const MonomialBasis basis(2, 2, 2);
  PolynomialForm w(basis, Vector{1.0, 0.0, 2.0});
  const std::string s = w.to_string();
  EXPECT_NE(s.find("x0^2"), std::string::npos);
  EXPECT_NE(s.find("x1^2"), std::string::npos);
  EXPECT_EQ(s.find("x0*x1"), std::string::npos);  // zero coeff dropped
}

TEST(PolySynthesis, QuarticRecoversLyapunovForCubicSystem) {
  // ẋ = -x³: W = x² works but so does x⁴; decrease is cubic-fast.
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  std::vector<FieldSample> samples;
  for (int i = 0; i < 80; ++i) {
    Vector x{d(rng)};
    if (std::fabs(x[0]) < 0.05) continue;
    samples.push_back({x, Vector{-x[0] * x[0] * x[0]}});
  }
  const MonomialBasis basis(1, 2, 4);
  const PolySynthesisResult r =
      synthesize_polynomial_candidate(samples, basis);
  ASSERT_TRUE(r.feasible);
  // Decrease at fresh points.
  for (int i = 0; i < 50; ++i) {
    Vector x{d(rng)};
    if (std::fabs(x[0]) < 0.1) continue;
    const Vector f{-x[0] * x[0] * x[0]};
    EXPECT_LT(dot(r.candidate.gradient(x), f), 0.0);
  }
}

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

TEST(PolyVerifier, QuarticTemplateCertifiesDubins) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  BarrierPipeline<PolynomialForm> verifier(dubins_problem(pool, controller),
                                           {}, TemplateSpec::polynomial(4));
  const VerifyResult r = verifier.run();
  ASSERT_EQ(r.status, VerifyStatus::kSafe) << verify_status_name(r.status);
  ASSERT_TRUE(r.poly_generator.has_value());
  EXPECT_GT(r.level, 0.0);

  // X0 inside the level set; boundary of the safe rect outside it.
  const Rect x0 = verifier.problem().initial_set;
  for (const Vector& v : x0.vertices()) {
    EXPECT_LE(r.poly_generator->value(v), r.level + 1e-9);
  }
  const Rect s = verifier.problem().safe_rect;
  for (double th = s.lo[1]; th <= s.hi[1]; th += 0.15) {
    EXPECT_GT(r.poly_generator->value(Vector{s.lo[0], th}), r.level);
    EXPECT_GT(r.poly_generator->value(Vector{s.hi[0], th}), r.level);
  }
}

TEST(PolyVerifier, DegreeTwoAgreesWithQuadraticPipeline) {
  expr::ExprPool pool_a, pool_b;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 7);
  BarrierPipeline<PolynomialForm> pv(dubins_problem(pool_a, controller), {},
                                      TemplateSpec::polynomial(2));
  BarrierPipeline<QuadraticForm> qv(dubins_problem(pool_b, controller), {});
  const VerifyResult pr = pv.run();
  const VerifyResult qr = qv.run();
  EXPECT_EQ(pr.status, VerifyStatus::kSafe);
  EXPECT_EQ(qr.status, VerifyStatus::kSafe);
  // Identical samples + identical basis ⇒ identical LP candidate.
  ASSERT_TRUE(pr.poly_generator && qr.generator);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(pr.poly_generator->coeffs()[k], qr.generator->coeffs()[k], 1e-9);
  }
}

TEST(PolyVerifier, CertificateInvariantUnderSimulation) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 20, 2);
  const BarrierProblem problem = dubins_problem(pool, controller);
  BarrierPipeline<PolynomialForm> verifier(problem, {},
                                           TemplateSpec::polynomial(4));
  const VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe()) << verify_status_name(r.status);
  for (const Vector& v : problem.initial_set.vertices()) {
    ode::IntegrateOptions iopts;
    iopts.step = 0.02;
    iopts.t_end = 25.0;
    const ode::Trace t = integrate_rk4(problem.sim_field, v, iopts);
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_LE(r.poly_generator->value(t.state(i)), r.level + 1e-6);
      ASSERT_TRUE(problem.safe_rect.contains(t.state(i)));
    }
  }
}

}  // namespace
}  // namespace bcert::core
