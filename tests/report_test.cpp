// Tests for certificate report generation (text + JSON).
#include <sstream>

#include <gtest/gtest.h>

#include "src/core/pipeline.h"
#include "src/core/report.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"

namespace bcert::core {
namespace {

constexpr double kPi = 3.14159265358979323846;

struct Fixture {
  expr::ExprPool pool;
  BarrierProblem problem;
  VerifyResult result;

  Fixture() {
    const nn::FeedforwardNet controller =
        dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
    const dubins::ErrorModel model{1.0, 0.0};
    problem.pool = &pool;
    problem.sim_field = dubins::closed_loop_field(model, controller);
    problem.sym_field =
        dubins::closed_loop_field_expr(model, controller, pool);
    problem.initial_set = {{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}};
    problem.safe_rect = {{-5.0, -(kPi / 2.0 - 0.01)},
                         {5.0, kPi / 2.0 - 0.01}};
    BarrierPipeline<QuadraticForm> verifier(problem, {});
    result = verifier.run();
  }
};

TEST(Report, TextContainsVerdictAndCertificate) {
  Fixture fx;
  ASSERT_TRUE(fx.result.safe());
  std::ostringstream os;
  ReportContext ctx;
  ctx.system_name = "dubins-path-following";
  ctx.controller_description = "10-neuron tansig (distilled)";
  write_text_report(os, fx.result, fx.problem, ctx);
  const std::string s = os.str();
  EXPECT_NE(s.find("SAFE"), std::string::npos);
  EXPECT_NE(s.find("dubins-path-following"), std::string::npos);
  EXPECT_NE(s.find("10-neuron tansig"), std::string::npos);
  EXPECT_NE(s.find("level l ="), std::string::npos);
  EXPECT_NE(s.find("W coefficients"), std::string::npos);
  EXPECT_NE(s.find("Table-1 columns"), std::string::npos);
}

TEST(Report, JsonWellFormedAndComplete) {
  Fixture fx;
  const std::string json = json_report(fx.result, fx.problem);
  // Structural spot checks (no JSON lib on purpose — the format is
  // simple enough to assert directly).
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json[json.size() - 2], '}');  // trailing newline after '}'
  for (const char* key :
       {"\"verdict\"", "\"safe\"", "\"gamma\"", "\"delta\"",
        "\"initial_set\"", "\"safe_rect\"", "\"generator_coeffs\"",
        "\"level\"", "\"lp_margin\"", "\"timings\"",
        "\"candidate_iterations\"", "\"total_time_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"safe\": true"), std::string::npos);
  // Balanced braces and brackets.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(Report, EscapesSpecialCharacters) {
  Fixture fx;
  ReportContext ctx;
  ctx.system_name = "quote\" and \\backslash";
  const std::string json = json_report(fx.result, fx.problem, ctx);
  EXPECT_NE(json.find("quote\\\""), std::string::npos);
  EXPECT_NE(json.find("\\\\backslash"), std::string::npos);
}

TEST(Report, UnsafeResultReportsHonestly) {
  Fixture fx;
  VerifyResult failed;
  failed.status = VerifyStatus::kLpInfeasible;
  std::ostringstream os;
  write_text_report(os, failed, fx.problem);
  const std::string s = os.str();
  EXPECT_NE(s.find("no-conclusion(LP-infeasible)"), std::string::npos);
  EXPECT_EQ(s.find("SAFE for"), std::string::npos);
  const std::string json = json_report(failed, fx.problem);
  EXPECT_NE(json.find("\"safe\": false"), std::string::npos);
}

}  // namespace
}  // namespace bcert::core
