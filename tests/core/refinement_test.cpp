// The pipeline's δ-refinement policy for condition (5): the candidate
// loop resumes each step's suspended search at δ·delta_shrink, and that
// chain must answer exactly as fresh check_decrease(w, δ_k) calls do;
// check_certificate applies the same policy, so it re-proves a
// certificate the pipeline accepted only after refinement.
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/fault.h"
#include "src/core/pipeline.h"
#include "src/core/runtime_config.h"
#include "src/scenario/generator.h"

namespace bcert::core {
namespace {

/// The 20-scenario seed-1 zoo suite of the end-to-end benchmark.
scenario::GeneratorConfig zoo_suite() {
  scenario::GeneratorConfig config;
  config.seed = 1;
  config.count = 20;
  config.jitter_templates = true;
  return config;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Everything but solve_time_s (wall clock).
void expect_identical(const smt::IcpResult& a, const smt::IcpResult& b,
                      const std::string& step) {
  SCOPED_TRACE(step);
  EXPECT_EQ(a.verdict, b.verdict);
  ASSERT_EQ(a.witness.has_value(), b.witness.has_value());
  if (a.witness) {
    ASSERT_EQ(a.witness->size(), b.witness->size());
    for (std::size_t i = 0; i < a.witness->size(); ++i) {
      EXPECT_TRUE(same_bits((*a.witness)[i].lo(), (*b.witness)[i].lo()));
      EXPECT_TRUE(same_bits((*a.witness)[i].hi(), (*b.witness)[i].hi()));
    }
  }
  EXPECT_EQ(a.stats.boxes_processed, b.stats.boxes_processed);
  EXPECT_EQ(a.stats.boxes_pruned, b.stats.boxes_pruned);
  EXPECT_EQ(a.stats.splits, b.stats.splits);
  EXPECT_EQ(a.stats.warm_starts, b.stats.warm_starts);
  EXPECT_TRUE(same_bits(a.stats.max_depth_width, b.stats.max_depth_width));
}

/// One of two identically built pipelines over a generated zoo scenario
/// (own pool, own per-run caches).
struct TwinPipeline {
  expr::ExprPool pool;
  Scenario scenario;
  BarrierPipeline<QuadraticForm> pipeline;

  explicit TwinPipeline(std::size_t index)
      : scenario(scenario::ScenarioGenerator(pool, zoo_suite())
                     .generate_one(index)),
        pipeline(scenario.problem, options()) {}

  static VerifierOptions options() {
    return scenario::zoo_job_defaults().verify;
  }
};

TEST(Refinement, ResumedChainMatchesFreshQueriesOnDubinsCtrnn) {
  RuntimeConfig::active();  // installs any BCERT_FAULT spec
  if (FaultRegistry::enabled()) {
    GTEST_SKIP() << "fault injection armed: twins trip different faults";
  }
  // dubins-ctrnn-s1-9: a quadratic-template CTRNN scenario whose first
  // LP candidate is refuted only after a δ-refinement chain.
  constexpr std::size_t kIndex = 9;
  TwinPipeline resumed(kIndex);
  TwinPipeline fresh(kIndex);
  ASSERT_EQ(resumed.scenario.name, "dubins-ctrnn-s1-9");
  ASSERT_TRUE(!resumed.scenario.certificate ||
              resumed.scenario.certificate->kind ==
                  TemplateSpec::Kind::kQuadratic);

  // The first candidate: a one-iteration run (on its own pipeline and
  // caches) stores it as the generator.
  VerifierOptions one = TwinPipeline::options();
  one.max_candidate_iterations = 1;
  const VerifyResult first =
      BarrierPipeline<QuadraticForm>(resumed.scenario.problem, one).run();
  ASSERT_TRUE(first.generator.has_value());
  const QuadraticForm& w = *first.generator;

  // The candidate loop's chain, step by step: resumed on one twin,
  // fresh check_decrease(w, δ_k) on the other.
  const VerifierOptions& options = resumed.pipeline.options();
  double delta = options.icp.delta;
  const auto refines = [&](const smt::IcpResult& r) {
    return r.verdict == smt::SatResult::kDeltaSat &&
           delta > options.min_delta &&
           fresh.pipeline.numeric_lie(w, r.witness_point()) < -options.gamma;
  };
  smt::IcpResult a = resumed.pipeline.check_decrease(w, delta);
  smt::IcpResult b = fresh.pipeline.check_decrease(w, delta);
  expect_identical(a, b, "step 0");
  std::uint32_t steps = 0;
  while (refines(b)) {
    ASSERT_NE(a.suspension, nullptr);
    ++steps;
    delta *= options.delta_shrink;
    a = resumed.pipeline.check_decrease(w, delta, std::move(a.suspension));
    b = fresh.pipeline.check_decrease(w, delta);
    expect_identical(a, b, "step " + std::to_string(steps));
    if (a.suspension != nullptr) {
      EXPECT_EQ(smt::resumed_steps(*a.suspension), steps);
    }
  }
  EXPECT_GE(steps, 3u) << "candidate refuted without a refinement chain";

  // refine_decrease runs the same policy: on the twins, whose caches
  // are still in step, it answers as the fresh chain does again.
  int queries = 0;
  const smt::IcpResult chain = resumed.pipeline.refine_decrease(w, &queries);
  delta = options.icp.delta;
  b = fresh.pipeline.check_decrease(w, delta);
  int fresh_queries = 1;
  while (refines(b)) {
    delta *= options.delta_shrink;
    b = fresh.pipeline.check_decrease(w, delta);
    ++fresh_queries;
  }
  expect_identical(chain, b, "refine_decrease");
  EXPECT_EQ(queries, fresh_queries);
  EXPECT_EQ(chain.suspension, nullptr);
}

TEST(Refinement, CheckCertificateReprovesACertificateAcceptedAfterRefinement) {
  // pendulum-elm-s1-12's certificate from the end-to-end benchmark's
  // reference verdicts: condition (5) is δ-SAT at the configured δ and
  // UNSAT after refinement.
  expr::ExprPool pool;
  const Scenario s =
      scenario::ScenarioGenerator(pool, zoo_suite()).generate_one(12);
  ASSERT_EQ(s.name, "pendulum-elm-s1-12");
  ASSERT_TRUE(s.certificate.has_value());
  ASSERT_EQ(s.certificate->kind, TemplateSpec::Kind::kPolynomial);
  constexpr double kLevel = 0.34512998769857761;
  const linalg::Vector coeffs{1.0, 0.74604838226128889, 0.70250646657998983};

  // The plain reference configuration: tree HC4, no caches, no warm
  // start.
  VerifierOptions reference = scenario::zoo_job_defaults().verify;
  reference.icp.hc4_mode = smt::Hc4Mode::kTree;
  reference.icp.warm_start = false;
  reference.icp.tape_cache = nullptr;
  reference.icp.unsat_cache = nullptr;
  const BarrierPipeline<PolynomialForm> pipeline(s.problem, reference,
                                                 *s.certificate);
  const PolynomialForm w(pipeline.context().basis, coeffs);

  EXPECT_EQ(pipeline.check_decrease(w).verdict, smt::SatResult::kDeltaSat);
  int queries = 0;
  EXPECT_EQ(pipeline.refine_decrease(w, &queries).verdict,
            smt::SatResult::kUnsat);
  EXPECT_GT(queries, 1);
  EXPECT_EQ(pipeline.check_certificate(w, kLevel), VerifyStatus::kSafe);
}

}  // namespace
}  // namespace bcert::core
