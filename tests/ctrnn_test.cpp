// Tests for the stateful (CTRNN) controller extension: network
// semantics, augmented closed-loop dynamics, and full barrier-certificate
// verification of a recurrent controller (the paper's §5 future work).
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/dubins/rnn_dynamics.h"
#include "src/expr/eval.h"

namespace bcert {
namespace {

using linalg::Vector;
constexpr double kPi = 3.14159265358979323846;

TEST(Ctrnn, ShapeAndAccessors) {
  nn::Ctrnn net(2, 3, 1, 0.25);
  EXPECT_EQ(net.num_inputs(), 2u);
  EXPECT_EQ(net.num_hidden(), 3u);
  EXPECT_EQ(net.num_outputs(), 1u);
  EXPECT_DOUBLE_EQ(net.tau(), 0.25);
  EXPECT_THROW(nn::Ctrnn(2, 3, 1, 0.0), std::invalid_argument);
}

TEST(Ctrnn, HiddenBoxIsForwardInvariant) {
  // With tanh activation, at h_i = 1 we have ḣ_i ≤ 0 and at h_i = −1,
  // ḣ_i ≥ 0: [−1, 1]^k traps the hidden state.
  std::mt19937 rng(3);
  nn::Ctrnn net(2, 4, 1, 0.2);
  net.randomize(rng, 2.0);
  std::uniform_real_distribution<double> dy(-5.0, 5.0), dh(-1.0, 1.0);
  for (int trial = 0; trial < 200; ++trial) {
    Vector y{dy(rng), dy(rng)};
    Vector h(4);
    for (int i = 0; i < 4; ++i) h[static_cast<std::size_t>(i)] = dh(rng);
    for (std::size_t i = 0; i < 4; ++i) {
      Vector h_hi = h, h_lo = h;
      h_hi[i] = 1.0;
      h_lo[i] = -1.0;
      EXPECT_LE(net.hidden_derivative(y, h_hi)[i], 0.0);
      EXPECT_GE(net.hidden_derivative(y, h_lo)[i], 0.0);
    }
  }
}

TEST(Ctrnn, LaggedPolicyConvergesToTeacher) {
  // ḣ = (−h + tanh(g·y))/τ with frozen input settles at tanh(g·y).
  const Vector gains{0.25, 2.0};
  const nn::Ctrnn net = nn::Ctrnn::lagged_policy(gains, 0.1);
  const Vector y{2.0, -0.3};
  Vector h{0.0};
  const double dt = 0.001;
  for (int i = 0; i < 5000; ++i) {
    h += dt * net.hidden_derivative(y, h);
  }
  const double target = std::tanh(0.25 * 2.0 + 2.0 * (-0.3));
  EXPECT_NEAR(net.output(h)[0], target, 1e-6);
}

TEST(Ctrnn, SymbolicMatchesNumeric) {
  std::mt19937 rng(7);
  nn::Ctrnn net(2, 3, 1, 0.3);
  net.randomize(rng, 1.5);

  expr::ExprPool pool;
  std::vector<expr::ExprId> y{pool.var(0), pool.var(1)};
  std::vector<expr::ExprId> h{pool.var(2), pool.var(3), pool.var(4)};
  const auto u_expr = net.output_expr(pool, h);
  const auto dh_expr = net.hidden_derivative_expr(pool, y, h);
  std::vector<expr::ExprId> roots = u_expr;
  roots.insert(roots.end(), dh_expr.begin(), dh_expr.end());
  expr::Evaluator ev(pool, roots);

  std::uniform_real_distribution<double> d(-2.0, 2.0);
  for (int i = 0; i < 100; ++i) {
    const Vector full{d(rng), d(rng), d(rng), d(rng), d(rng)};
    const Vector yv{full[0], full[1]};
    const Vector hv{full[2], full[3], full[4]};
    const auto out = ev.eval(full);
    EXPECT_NEAR(out[0], net.output(hv)[0], 1e-12);
    const Vector dh = net.hidden_derivative(yv, hv);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(out[1 + j], dh[j], 1e-12);
    }
  }
}

TEST(RnnDynamics, AugmentedFieldShapes) {
  const nn::Ctrnn net = nn::Ctrnn::lagged_policy(Vector{0.25, 2.0}, 0.2);
  const dubins::ErrorModel model{1.0, 0.0};
  const auto f = dubins::rnn_closed_loop_field(model, net);
  const Vector x{1.0, 0.2, 0.1};
  const Vector dx = f(x);
  ASSERT_EQ(dx.size(), 3u);
  EXPECT_NEAR(dx[0], std::sin(0.2), 1e-12);       // V sin θ
  EXPECT_NEAR(dx[1], -net.output(Vector{0.1})[0], 1e-12);
}

TEST(RnnDynamics, SymbolicMatchesNumeric) {
  std::mt19937 rng(5);
  nn::Ctrnn net(2, 2, 1, 0.25);
  net.randomize(rng, 1.0);
  const dubins::ErrorModel model{1.0, 0.4};
  const auto f_num = rnn_closed_loop_field(model, net);
  expr::ExprPool pool;
  const auto f_sym = rnn_closed_loop_field_expr(model, net, pool);
  expr::Evaluator ev(pool, f_sym);
  std::uniform_real_distribution<double> d(-1.5, 1.5);
  for (int i = 0; i < 100; ++i) {
    const Vector x{d(rng), d(rng), d(rng), d(rng)};
    const Vector num = f_num(x);
    const auto sym = ev.eval(x);
    for (std::size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(sym[j], num[j], 1e-10);
    }
  }
}

TEST(RnnDynamics, StatefulControllerTracksPath) {
  // The lagged policy still stabilizes the error dynamics.
  const nn::Ctrnn net = nn::Ctrnn::lagged_policy(Vector{0.25, 2.0}, 0.2);
  const auto f = dubins::rnn_closed_loop_field({1.0, 0.0}, net);
  ode::IntegrateOptions iopts;
  iopts.step = 0.01;
  iopts.t_end = 60.0;
  const ode::Trace t = integrate_rk4(f, Vector{3.0, 0.5, 0.0}, iopts);
  EXPECT_LT(std::fabs(t.back()[0]), 0.2);
  EXPECT_LT(std::fabs(t.back()[1]), 0.1);
}

TEST(RnnVerification, BarrierCertificateForStatefulController) {
  // The headline: the unmodified pipeline certifies a *recurrent*
  // controller — 3-dimensional augmented state, 3-D SMT queries.
  // τ = 0.1: at τ = 0.2 the controller lag makes quadratic (and even
  // quartic) certificates genuinely infeasible over the full domain —
  // the "increased query complexity" the paper predicts for stateful
  // controllers (§2).
  const nn::Ctrnn net = nn::Ctrnn::lagged_policy(Vector{0.25, 2.0}, 0.1);
  expr::ExprPool pool;
  core::BarrierProblem p;
  p.pool = &pool;
  p.sim_field = dubins::rnn_closed_loop_field({1.0, 0.0}, net);
  p.sym_field = dubins::rnn_closed_loop_field_expr({1.0, 0.0}, net, pool);
  // X0: paper's (d, θ) box × small hidden box. Safe range for h is its
  // invariant box [−1, 1] (slightly shrunk: the verifier requires
  // X0 ⊂ safe interior and h genuinely stays inside).
  p.initial_set = {{-1.0, -kPi / 16.0, -0.25}, {1.0, kPi / 16.0, 0.25}};
  p.safe_rect = {{-5.0, -(kPi / 2.0 - 0.01), -1.0},
                 {5.0, kPi / 2.0 - 0.01, 1.0}};
  // Only (d, θ) bounds are unsafe; h's range is the CTRNN's invariant
  // box, which the verifier proves flow-invariant.
  p.unsafe_dims = {true, true, false};

  core::VerifierOptions opts;
  opts.trace_duration = 25.0;
  opts.icp.time_limit_s = 120.0;
  core::BarrierPipeline<core::QuadraticForm> verifier(p, opts);
  const core::VerifyResult r = verifier.run();
  ASSERT_EQ(r.status, core::VerifyStatus::kSafe)
      << verify_status_name(r.status);

  // Certified invariant honoured by simulation from X0 corners.
  for (const Vector& v : p.initial_set.vertices()) {
    ode::IntegrateOptions iopts;
    iopts.step = 0.02;
    iopts.t_end = 30.0;
    const ode::Trace t = integrate_rk4(p.sim_field, v, iopts);
    for (std::size_t i = 0; i < t.size(); ++i) {
      ASSERT_LE(r.generator->value(t.state(i)), r.level + 1e-6);
    }
  }
}

}  // namespace
}  // namespace bcert
