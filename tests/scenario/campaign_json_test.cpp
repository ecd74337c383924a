// Golden-file round-trip test for CampaignResult::to_json: a hand-built
// deterministic 8-scenario campaign — safe/failed/quarantined outcomes,
// degradation counters, escaped characters — serialized and compared
// byte-for-byte against tests/data/campaign_golden.json.
//
// Regenerate after an intentional schema change with
//   BCERT_UPDATE_GOLDEN=1 ./scenario_campaign_json_test
// and review the diff like any other API change.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/core/quadratic_form.h"

namespace bcert::core {
namespace {

const char* kGoldenPath =
    BCERT_SOURCE_DIR "/tests/data/campaign_golden.json";

/// Fully deterministic campaign: every field (including timings) is
/// hand-assigned — nothing is measured, so the serialization is stable
/// across machines and runs.
CampaignResult build_campaign() {
  CampaignResult campaign;

  const auto add = [&](ScenarioOutcome outcome) {
    campaign.scenarios.push_back(std::move(outcome));
  };

  {  // 0: clean safe quadratic result with generator coefficients.
    ScenarioOutcome o;
    o.name = "acc-s1-0";
    o.result.status = VerifyStatus::kSafe;
    o.result.template_kind = TemplateSpec::Kind::kQuadratic;
    o.result.generator = QuadraticForm(2, linalg::Vector{1.25, -0.5, 2.0});
    o.result.level = 0.75;
    o.result.lp_margin = 0.001953125;
    o.result.timings.candidate_iterations = 3;
    o.result.timings.lp_solves = 4;
    o.result.timings.lp_time_s = 0.125;
    o.result.timings.smt5_queries = 3;
    o.result.timings.smt5_time_s = 0.5;
    o.result.timings.simulation_time_s = 0.25;
    o.result.timings.generator_time_s = 0.875;
    o.result.timings.level_set_time_s = 0.0625;
    o.result.timings.total_time_s = 1.0;
    add(std::move(o));
  }
  {  // 1: safe polynomial-template result (no generator recorded).
    ScenarioOutcome o;
    o.name = "quadrotor-s1-1";
    o.result.status = VerifyStatus::kSafe;
    o.result.template_kind = TemplateSpec::Kind::kPolynomial;
    o.result.level = 1.5;
    o.result.timings.total_time_s = 2.0;
    add(std::move(o));
  }
  {  // 2: analytic failure (not an error, not quarantined).
    ScenarioOutcome o;
    o.name = "pendulum-elm-s1-2";
    o.result.status = VerifyStatus::kLpInfeasible;
    o.result.timings.candidate_iterations = 7;
    add(std::move(o));
  }
  {  // 3: counterexamples recorded, still failed.
    ScenarioOutcome o;
    o.name = "dubins-elm-s1-3";
    o.result.status = VerifyStatus::kMaxCandidateIterations;
    o.result.counterexamples = {linalg::Vector{0.5, -0.25},
                                linalg::Vector{-1.0, 0.125}};
    add(std::move(o));
  }
  {  // 4: quarantined after exhausting retries on injected faults.
    ScenarioOutcome o;
    o.name = "dubins-ctrnn-s1-4";
    o.result.status = VerifyStatus::kInternalError;
    o.result.error = Status(ErrorCode::kFaultInjected,
                            "injected fault at lp_solve (p=1)");
    o.result.degradation.retries = 2;
    o.attempts = 3;
    o.quarantined = true;
    add(std::move(o));
  }
  {  // 5: deadline expiry with a degraded (tape→tree) run behind it.
    ScenarioOutcome o;
    o.name = "acc-s1-5";
    o.result.status = VerifyStatus::kDeadlineExceeded;
    o.result.error =
        Status(ErrorCode::kDeadlineExceeded, "deadline of 0.5s elapsed");
    o.result.degradation.tape_to_tree = 1;
    o.result.degradation.cache_cold = 2;
    add(std::move(o));
  }
  {  // 6: resource governor tripped; JIT emission fell back to the tape.
    ScenarioOutcome o;
    o.name = "quadrotor-s1-6";
    o.result.status = VerifyStatus::kResourceExhausted;
    o.result.error = Status(ErrorCode::kResourceExhausted,
                            "memory quota of 1048576 bytes breached");
    o.result.degradation.jit_to_tape = 1;
    o.result.degradation.lp_cold = 3;
    o.attempts = 2;
    add(std::move(o));
  }
  {  // 7: escaping torture — quotes, backslash, newline, tab, control.
    ScenarioOutcome o;
    o.name = "odd \"name\"\\with\nnewline\tand\x01" "control";
    o.result.status = VerifyStatus::kInternalError;
    o.result.error =
        Status(ErrorCode::kInternal, "message with \"quotes\" and \\slash");
    add(std::move(o));
  }

  campaign.safe_count = 2;
  campaign.failed_count = 4;
  campaign.quarantined = {"dubins-ctrnn-s1-4"};
  campaign.wall_time_s = 2.0;  // => scenarios_per_sec == 4 exactly
  campaign.aggregate.candidate_iterations = 10;
  campaign.aggregate.lp_solves = 4;
  campaign.aggregate.lp_time_s = 0.125;
  campaign.aggregate.smt5_queries = 3;
  campaign.aggregate.smt5_time_s = 0.5;
  campaign.aggregate.simulation_time_s = 0.25;
  campaign.aggregate.generator_time_s = 0.875;
  campaign.aggregate.level_set_time_s = 0.0625;
  campaign.aggregate.total_time_s = 3.0;
  return campaign;
}

TEST(CampaignJson, MatchesGoldenFile) {
  const std::string json = build_campaign().to_json();

  if (std::getenv("BCERT_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(kGoldenPath, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << kGoldenPath;
    out << json;
    GTEST_SKIP() << "golden file regenerated; re-run without "
                    "BCERT_UPDATE_GOLDEN";
  }

  std::ifstream in(kGoldenPath, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing " << kGoldenPath
      << " (regenerate with BCERT_UPDATE_GOLDEN=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(json, golden.str())
      << "CampaignResult::to_json output drifted from the golden file. "
         "If the schema change is intentional, regenerate with "
         "BCERT_UPDATE_GOLDEN=1 and review the diff.";
}

TEST(CampaignJson, SerializationIsDeterministic) {
  EXPECT_EQ(build_campaign().to_json(), build_campaign().to_json());
}

TEST(CampaignJson, EscapedFieldsStayValidJson) {
  const std::string json = build_campaign().to_json();
  // The raw control byte and unescaped quote must never leak through.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("odd \\\"name\\\"\\\\with\\nnewline\\tand"),
            std::string::npos);
  // Quarantine + degradation fields present with the expected values.
  EXPECT_NE(json.find("\"quarantined\": [\"dubins-ctrnn-s1-4\"]"),
            std::string::npos);
  EXPECT_NE(json.find("\"tape_to_tree\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"retries\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"scenarios_per_sec\": 4"), std::string::npos);
}

}  // namespace
}  // namespace bcert::core
