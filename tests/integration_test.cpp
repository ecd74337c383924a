// Cross-module integration tests: the full train/distill → export →
// verify → validate loop, robustness of the verifier options, and the
// pendulum second-domain problem from the examples.
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"
#include "src/nn/elm.h"

namespace bcert {
namespace {

using linalg::Vector;
using QuadPipeline = core::BarrierPipeline<core::QuadraticForm>;
constexpr double kPi = 3.14159265358979323846;

core::BarrierProblem dubins_problem(expr::ExprPool& pool,
                                    const nn::FeedforwardNet& controller) {
  const dubins::ErrorModel model{1.0, 0.0};
  core::BarrierProblem p;
  p.pool = &pool;
  p.sim_field = dubins::closed_loop_field(model, controller);
  p.sym_field = dubins::closed_loop_field_expr(model, controller, pool);
  p.initial_set = {{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}};
  p.safe_rect = {{-5.0, -(kPi / 2.0 - 0.01)}, {5.0, kPi / 2.0 - 0.01}};
  return p;
}

TEST(Integration, SaveLoadVerifyRoundTrip) {
  // Serialize a verified controller; the loaded copy must verify with an
  // identical certificate (bitwise-equal weights → same LP → same W).
  const nn::FeedforwardNet original =
      dubins::distill_controller(dubins::proportional_teacher(), 15, 3);
  std::stringstream ss;
  original.save(ss);
  const nn::FeedforwardNet loaded = nn::FeedforwardNet::load(ss);

  expr::ExprPool pool_a, pool_b;
  QuadPipeline va(dubins_problem(pool_a, original), {});
  QuadPipeline vb(dubins_problem(pool_b, loaded), {});
  const core::VerifyResult ra = va.run();
  const core::VerifyResult rb = vb.run();
  ASSERT_TRUE(ra.safe());
  ASSERT_TRUE(rb.safe());
  EXPECT_EQ(ra.generator->coeffs().raw(), rb.generator->coeffs().raw());
  EXPECT_DOUBLE_EQ(ra.level, rb.level);
}

TEST(Integration, TrainedControllerVerifies) {
  // A *policy-searched* controller (short budget, rollouts across the
  // domain, rescaled angle weight — see DESIGN.md §6) verifies SAFE.
  dubins::TrainOptions topts;
  topts.hidden_neurons = 8;
  topts.iterations = 40;
  topts.population = 40;
  topts.sim.velocity = 1.0;
  topts.sim.dt = 0.1;
  topts.sim.steps = 400;
  topts.weights.angle = 1e3;
  topts.start_offsets = dubins::verification_offsets();
  topts.seed = 12;
  const dubins::PiecewiseLinearPath path(
      {{0.0, 0.0}, {12.0, 8.0}, {24.0, 10.0}, {36.0, 18.0}});
  const dubins::TrainResult tr = train_controller(path, topts);

  expr::ExprPool pool;
  QuadPipeline verifier(dubins_problem(pool, tr.controller), {});
  const core::VerifyResult r = verifier.run();
  EXPECT_EQ(r.status, core::VerifyStatus::kSafe)
      << verify_status_name(r.status);
}

TEST(Integration, OffsetStartRealizesRequestedErrors) {
  const dubins::PiecewiseLinearPath path({{0.0, 0.0}, {10.0, 5.0}});
  for (const auto& [d0, th0] : dubins::verification_offsets()) {
    const dubins::VehicleState s = offset_start(path, d0, th0);
    const dubins::PathError e = path.error(s.x, s.y, s.theta);
    EXPECT_NEAR(e.distance, d0, 1e-9) << d0 << "," << th0;
    EXPECT_NEAR(e.angle, th0, 1e-9) << d0 << "," << th0;
  }
}

TEST(Integration, PendulumSecondDomainVerifies) {
  const nn::TeacherFn teacher = [](const Vector& x) {
    return Vector{std::tanh(-2.0 * x[0] - 1.5 * x[1])};
  };
  nn::ElmOptions eopts;
  eopts.hidden = 12;
  eopts.samples = 400;
  const nn::FeedforwardNet controller = nn::elm_fit(
      teacher, 2, 1, Vector{-1.4, -1.7}, Vector{1.4, 1.7}, eopts);

  expr::ExprPool pool;
  core::BarrierProblem p;
  p.pool = &pool;
  const nn::FeedforwardNet net = controller;
  p.sim_field = [net](const Vector& x) {
    return Vector{x[1], std::sin(x[0]) + 3.0 * net.forward(x)[0]};
  };
  const expr::ExprId th = pool.var(0), om = pool.var(1);
  const expr::ExprId u = controller.to_expr(pool, {th, om})[0];
  p.sym_field = {om, pool.add(pool.sin(th),
                              pool.mul(pool.constant(3.0), u))};
  p.initial_set = {{-0.2, -0.2}, {0.2, 0.2}};
  p.safe_rect = {{-1.2, -1.5}, {1.2, 1.5}};

  core::VerifierOptions opts;
  opts.trace_duration = 20.0;
  QuadPipeline verifier(p, opts);
  const core::VerifyResult r = verifier.run();
  ASSERT_EQ(r.status, core::VerifyStatus::kSafe)
      << verify_status_name(r.status);

  // Spot-check the barrier conditions numerically on a grid of D \ X0.
  for (double a = -1.15; a <= 1.15; a += 0.1) {
    for (double b = -1.45; b <= 1.45; b += 0.1) {
      const Vector x{a, b};
      if (p.initial_set.contains(x)) continue;
      if (std::fabs(r.generator->value(x) - r.level) < 0.05) {
        // Near the barrier boundary: W must strictly decrease.
        EXPECT_LT(dot(r.generator->gradient(x), p.sim_field(x)), 0.0);
      }
    }
  }
}

TEST(Integration, AdaptiveDeltaRescuesCoarseDelta) {
  // With a deliberately coarse delta, the raw query yields a spurious
  // delta-SAT; adaptive refinement must still complete the proof.
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 30, 5);

  expr::ExprPool pool_a;
  core::VerifierOptions coarse;
  coarse.icp.delta = 5e-2;
  coarse.adaptive_delta = false;
  coarse.max_candidate_iterations = 3;
  QuadPipeline va(dubins_problem(pool_a, controller), coarse);
  const core::VerifyResult ra = va.run();
  EXPECT_NE(ra.status, core::VerifyStatus::kSafe);

  expr::ExprPool pool_b;
  core::VerifierOptions adaptive = coarse;
  adaptive.adaptive_delta = true;
  QuadPipeline vb(dubins_problem(pool_b, controller), adaptive);
  const core::VerifyResult rb = vb.run();
  EXPECT_EQ(rb.status, core::VerifyStatus::kSafe)
      << verify_status_name(rb.status);
}

TEST(Integration, SolverBudgetReportedHonestly) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 30, 5);
  expr::ExprPool pool;
  core::VerifierOptions opts;
  opts.icp.max_boxes = 10;  // absurdly small budget
  opts.adaptive_delta = false;
  QuadPipeline verifier(dubins_problem(pool, controller), opts);
  const core::VerifyResult r = verifier.run();
  EXPECT_EQ(r.status, core::VerifyStatus::kSolverBudget);
}

TEST(Integration, TimingColumnsAreConsistent) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 9);
  expr::ExprPool pool;
  QuadPipeline verifier(dubins_problem(pool, controller), {});
  const core::VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe());
  const core::VerifyTimings& t = r.timings;
  EXPECT_GT(t.lp_solves, 0);
  EXPECT_GT(t.smt5_queries, 0);
  EXPECT_GE(t.generator_time_s, t.lp_time_s);
  EXPECT_GE(t.total_time_s,
            t.generator_time_s + t.level_set_time_s - 1e-9);
  EXPECT_GE(t.other_time_s(), -1e-9);
  EXPECT_GT(t.avg_lp_time_s(), 0.0);
  EXPECT_GT(t.avg_smt5_time_s(), 0.0);
}

TEST(Integration, CheckCertificateAuditsStoredPair) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  expr::ExprPool pool;
  QuadPipeline verifier(dubins_problem(pool, controller), {});
  const core::VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe());

  // The synthesized pair re-checks clean.
  EXPECT_EQ(verifier.check_certificate(*r.generator, r.level),
            core::VerifyStatus::kSafe);
  // A level outside the window is rejected with the right diagnosis.
  EXPECT_EQ(verifier.check_certificate(*r.generator, r.level * 10.0),
            core::VerifyStatus::kLevelSetFailed);
  EXPECT_EQ(verifier.check_certificate(*r.generator, r.level * 0.05),
            core::VerifyStatus::kLevelSetFailed);
  // A non-PD form is rejected outright.
  core::QuadraticForm indefinite(2, Vector{1.0, 3.0, 1.0});
  EXPECT_EQ(verifier.check_certificate(indefinite, 1.0),
            core::VerifyStatus::kLevelSetFailed);
  // A form that is not a generator fails the decrease re-check.
  core::QuadraticForm not_generator(2, Vector{1.0, 0.0, 0.001});
  EXPECT_EQ(verifier.check_certificate(not_generator, 0.5),
            core::VerifyStatus::kMaxCandidateIterations);
}

TEST(Integration, ThetaRInvariance) {
  // The paper's ḋ expression −V sin(θr−θ)cos(θr) + V cos(θr−θ)sin(θr)
  // reduces to V sin(θ) for any constant θr; the verifier must therefore
  // produce the same verdict (and essentially the same certificate)
  // regardless of the target-path angle. This pushes the full
  // trigonometric expression — not the simplified form — through the
  // symbolic pipeline and the ICP solver.
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  std::optional<double> level0;
  for (const double theta_r : {0.0, 0.5, -1.1}) {
    expr::ExprPool pool;
    const dubins::ErrorModel model{1.0, theta_r};
    core::BarrierProblem p;
    p.pool = &pool;
    p.sim_field = dubins::closed_loop_field(model, controller);
    p.sym_field = dubins::closed_loop_field_expr(model, controller, pool);
    p.initial_set = {{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}};
    p.safe_rect = {{-5.0, -(kPi / 2.0 - 0.01)}, {5.0, kPi / 2.0 - 0.01}};
    QuadPipeline verifier(p, {});
    const core::VerifyResult r = verifier.run();
    ASSERT_TRUE(r.safe()) << "theta_r = " << theta_r << ": "
                          << verify_status_name(r.status);
    if (!level0) {
      level0 = r.level;
    } else {
      EXPECT_NEAR(r.level, *level0, 0.2) << theta_r;
    }
  }
}

TEST(Integration, SmtLibQueryExport) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  expr::ExprPool pool;
  QuadPipeline verifier(dubins_problem(pool, controller), {});
  const core::VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe());
  const std::string prefix =
      ::testing::TempDir() + "/bcert_query";
  verifier.export_queries_smtlib(*r.generator, r.level, prefix);
  for (const char* suffix : {"_decrease", "_initial", "_unsafe"}) {
    std::ifstream is(prefix + suffix + ".smt2");
    ASSERT_TRUE(is.good()) << suffix;
    std::stringstream buf;
    buf << is.rdbuf();
    const std::string content = buf.str();
    EXPECT_NE(content.find("(set-logic QF_NRA)"), std::string::npos);
    EXPECT_NE(content.find("(check-sat)"), std::string::npos);
    // The decrease query embeds the NN (tanh terms).
    if (std::string(suffix) == "_decrease") {
      EXPECT_NE(content.find("tanh"), std::string::npos);
    }
  }
}

TEST(Integration, LpInfeasibleSurfacesBindingStates) {
  // A destabilizing controller makes the synthesis LP infeasible; the
  // verifier must surface binding states as actionable counterexamples.
  nn::FeedforwardNet bad = nn::FeedforwardNet::single_hidden(2, 4, 1);
  bad.layer(0).weights = linalg::Matrix{{-0.5, -2.0}, {0.0, 0.0}};
  bad.layer(0).bias = Vector{0.0, 0.0};
  bad.layer(1).weights = linalg::Matrix{{5.0, 0.0}};
  bad.layer(1).bias = Vector{0.0};
  expr::ExprPool pool;
  core::VerifierOptions opts;
  opts.max_candidate_iterations = 2;
  QuadPipeline verifier(dubins_problem(pool, bad), opts);
  const core::VerifyResult r = verifier.run();
  if (r.status == core::VerifyStatus::kLpInfeasible) {
    EXPECT_FALSE(r.counterexamples.empty());
    for (const Vector& cex : r.counterexamples) {
      EXPECT_TRUE(verifier.problem().safe_rect.contains(cex));
    }
  } else {
    EXPECT_NE(r.status, core::VerifyStatus::kSafe);
  }
}

// The certificate is a *separating* object: scale it and the level
// together and it still separates (sanity on the geometry helpers).
TEST(Integration, CertificateScalingInvariance) {
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 21);
  expr::ExprPool pool;
  const core::BarrierProblem problem = dubins_problem(pool, controller);
  QuadPipeline verifier(problem, {});
  const core::VerifyResult r = verifier.run();
  ASSERT_TRUE(r.safe());
  core::QuadraticForm scaled(2, r.generator->coeffs() * 0.5);
  for (const Vector& v : problem.initial_set.vertices()) {
    EXPECT_LE(scaled.value(v), 0.5 * r.level + 1e-12);
  }
}

}  // namespace
}  // namespace bcert
