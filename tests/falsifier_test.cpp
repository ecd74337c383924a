// Tests for the optimization-based falsifier and its consistency with
// the verifier: a certified-safe system cannot be falsified; a broken
// controller is falsified quickly.
#include <cmath>

#include <gtest/gtest.h>

#include "src/core/falsifier.h"
#include "src/core/pipeline.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"

namespace bcert::core {
namespace {

using linalg::Vector;
constexpr double kPi = 3.14159265358979323846;

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

TEST(Falsifier, MarginGeometry) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 1);
  Falsifier f(dubins_problem(pool, controller), {});
  EXPECT_GT(f.margin(Vector{0.0, 0.0}), 1.0);     // deep inside
  EXPECT_NEAR(f.margin(Vector{5.0, 0.0}), 0.0, 1e-12);  // on the boundary
  EXPECT_LT(f.margin(Vector{6.0, 0.0}), 0.0);     // outside
}

TEST(Falsifier, SafeControllerNotFalsified) {
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  FalsifierOptions opts;
  opts.random_trials = 60;
  opts.cmaes_iterations = 10;
  Falsifier f(dubins_problem(pool, controller), opts);
  const FalsificationResult r = f.search();
  EXPECT_FALSE(r.falsified);
  EXPECT_GT(r.robustness, 0.0);
  EXPECT_GT(r.simulations, 0);
}

TEST(Falsifier, UnstableControllerFalsifiedQuickly) {
  // Wrong-sign controller drives the angle error out of the safe band.
  nn::FeedforwardNet bad = nn::FeedforwardNet::single_hidden(2, 4, 1);
  bad.layer(0).weights = linalg::Matrix{{-0.5, -2.0}, {0.0, 0.0}};
  bad.layer(0).bias = Vector{0.0, 0.0};
  bad.layer(1).weights = linalg::Matrix{{5.0, 0.0}};
  bad.layer(1).bias = Vector{0.0};
  expr::ExprPool pool;
  FalsifierOptions opts;
  opts.random_trials = 40;
  Falsifier f(dubins_problem(pool, bad), opts);
  const FalsificationResult r = f.search();
  ASSERT_TRUE(r.falsified);
  EXPECT_LT(r.robustness, 0.0);
  // The falsifying start must really be in X0, and its trace must exit.
  EXPECT_TRUE(
      (Rect{{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}}).contains(
          r.initial_state));
  bool exited = false;
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    if (f.margin(r.trace.state(i)) < 0.0) exited = true;
  }
  EXPECT_TRUE(exited);
}

TEST(Falsifier, MarginalControllerNeedsOptimization) {
  // A weak (low-gain) controller: most X0 starts are fine but extreme
  // corners may excurse far. The CMA-ES phase should find the worst
  // robustness (still positive here, but near the pure-random minimum).
  const auto weak = [](double d, double th) {
    return std::tanh(0.05 * d + 0.5 * th);
  };
  const nn::FeedforwardNet controller =
      dubins::distill_controller(weak, 10, 3);
  expr::ExprPool pool;
  FalsifierOptions coarse;
  coarse.random_trials = 20;
  coarse.cmaes_iterations = 0;  // random only
  coarse.seed = 5;
  Falsifier f1(dubins_problem(pool, controller), coarse);
  const double rob_random = f1.search().robustness;

  FalsifierOptions refined = coarse;
  refined.cmaes_iterations = 25;
  Falsifier f2(dubins_problem(pool, controller), refined);
  const double rob_refined = f2.search().robustness;
  EXPECT_LE(rob_refined, rob_random + 1e-9);
}

TEST(Falsifier, VerifierAndFalsifierAgree) {
  // End-to-end consistency: when the verifier proves safety, the
  // falsifier must not find an unsafe execution (and vice versa for a
  // broken controller, covered above).
  expr::ExprPool pool;
  const nn::FeedforwardNet controller =
      dubins::distill_controller(dubins::proportional_teacher(), 20, 8);
  const BarrierProblem problem = dubins_problem(pool, controller);
  BarrierPipeline<QuadraticForm> verifier(problem, {});
  const VerifyResult vr = verifier.run();
  ASSERT_TRUE(vr.safe());

  FalsifierOptions opts;
  opts.random_trials = 80;
  opts.cmaes_iterations = 15;
  Falsifier falsifier(problem, opts);
  const FalsificationResult fr = falsifier.search();
  EXPECT_FALSE(fr.falsified);
  // Stronger: the worst trajectory's W never exceeds the level.
  EXPECT_GT(fr.robustness, 0.0);
}

}  // namespace
}  // namespace bcert::core
