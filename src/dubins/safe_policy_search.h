#pragma once
/// \file safe_policy_search.h
/// \brief Counterexample-guided safe policy search — the paper's stated
/// future work ("algorithms to simultaneously train the neural network
/// while satisfying safety guarantees", §5), realized as a CEGIS loop:
///
///   repeat:
///     1. train a controller by CMA-ES from the current rollout set
///     2. attempt full barrier-certificate verification
///     3. SAFE → done; otherwise turn the verifier's counterexample
///        states into additional training rollout offsets and retrain
///
/// Each round makes the policy competent exactly where verification
/// found it lacking, until a certificate exists.

#include "src/core/verify_types.h"
#include "src/dubins/training.h"

namespace bcert::dubins {

/// Options for the train↔verify loop.
struct SafePolicySearchOptions {
  TrainOptions train;               ///< CMA-ES settings per round
  core::VerifierOptions verify;     ///< verification settings
  int max_rounds = 5;               ///< CEGIS iterations
  double velocity = 1.0;            ///< error-model V
  std::size_t max_new_offsets = 4;  ///< CEX offsets adopted per round
};

/// Report of one round.
struct SafePolicySearchRound {
  int round = 0;
  double train_cost = 0.0;
  core::VerifyStatus status = core::VerifyStatus::kMaxCandidateIterations;
  std::size_t counterexamples = 0;
};

/// Final result.
struct SafePolicySearchResult {
  nn::FeedforwardNet controller;
  core::VerifyResult verification;   ///< of the final round
  std::vector<SafePolicySearchRound> rounds;

  bool safe() const { return verification.safe(); }
};

/// Runs the CEGIS loop on the Dubins path-following system with the
/// §4.3 region structure (X0/U given in \p verify_problem_regions via
/// the options' verifier defaults).
SafePolicySearchResult safe_policy_search(
    const PiecewiseLinearPath& path, const core::Rect& initial_set,
    const core::Rect& safe_rect, const SafePolicySearchOptions& opts);

}  // namespace bcert::dubins
