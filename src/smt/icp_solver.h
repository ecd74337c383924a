#pragma once
/// \file icp_solver.h
/// \brief δ-complete branch-and-prune satisfiability solver.
///
/// This plays the role dReal plays in the paper: it decides existential
/// queries `∃x ∈ box : φ(x)` where φ is a conjunction (or DNF) of
/// nonlinear real constraints built from Type-2 computable functions
/// (polynomials, trig, exp, tanh, sigmoid, ...).
///
/// Answer semantics (mirroring δ-decidability, Gao et al. 2012):
///  * `kUnsat`  — *proof*: no real point in the box satisfies φ.
///  * `kSat`    — a box was found over which φ certainly holds; its
///                midpoint is a genuine witness.
///  * `kDeltaSat` — a box of width ≤ δ survived pruning; φ may hold there
///                (a δ-weakening of φ does). Treated as SAT by callers,
///                exactly as the paper treats dReal's δ-sat answers.
///  * `kUnknown` — resource budget exhausted.
///
/// Exploration order: the solver pops, contracts and settles one box at
/// a time through one HC4 contractor call (tree, tape or JIT — all three
/// bit-identical). The order is documented and stable:
///  * the frontier is a LIFO stack (depth-first search);
///  * each surviving box pushes its left child then its right child, so
///    the right child is explored first;
///  * splits bisect the widest dimension, ties breaking to the *lowest*
///    dimension index (Box::widest_dim).
/// The solver is therefore deterministic: the same query, box, config
/// and cache state give the same verdict, witness and statistics on
/// every run and with every HC4 backend, unless the wall-clock budget
/// fires.
///
/// Threading: a query runs entirely on the thread that calls `solve`,
/// so its answer cannot depend on thread count or pool load. Multi-core
/// throughput comes from running whole queries (Engine jobs) in
/// parallel, each with its own contractor.
///
/// UNSAT-tree warm-starting: when `IcpConfig::unsat_cache` is set (the
/// verifiers install one) and warm starts are enabled, every refuted
/// conjunction's terminal split tree is recorded, and a later query with
/// the same *structure* (same DAG shape — only constants such as W's
/// coefficients changed) over the same box is seeded from the replayed
/// partition leaves instead of the full initial box. Replayed leaves
/// always partition the query box, so a warm start can never produce an
/// unsound verdict: UNSAT remains a proof over the full box, and kSat
/// witnesses are independently certified. On δ-borderline queries the
/// UNSAT / δ-SAT split may differ from a cold run — exactly as it may
/// under any change of contraction granularity — which the callers'
/// adaptive-δ handling already absorbs. A stale seed (box mismatch)
/// silently cold-starts (see src/smt/unsat_tree.h).
///
/// Suspension and resume (δ-refinement): a caller that sees a spurious
/// δ-SAT witness re-asks the same query at a smaller δ. A fresh search
/// at δ' ≤ δ repeats the first search box for box up to the witness:
/// every earlier box was pruned, or split because it was wider than
/// δ ≥ δ'. So when the DNF sweep answers δ-SAT, it keeps the rest of
/// the disjunct's search in `IcpResult::suspension`: the DFS stack, the
/// contracted witness box and its split-tree node, the split-tree
/// recorder, the seed the UNSAT-tree lookup returned, and the
/// disjunct's statistics and box claims so far. Passing it to
/// `solve(dnf, box, resume)` re-solves the earlier (UNSAT) disjuncts as
/// usual, still makes the suspended disjunct's tape and UNSAT-tree
/// lookups (so every cache's contents, LRU order and counters evolve
/// exactly as under a fresh solve), and
/// then continues the kept stack — first splitting the witness box if
/// it is wider than the new δ, else reporting it again. The verdict,
/// witness, statistics (all but `solve_time_s`), recorded trees and
/// cache state are bit-identical to a fresh solve at the new δ. The
/// continuation runs only when the query (pool, disjuncts, box, HC4
/// fixpoint settings, memory budget, recording on/off) is the same,
/// the new δ is not larger, the lookup returned the same seed, and a
/// fresh search would have admitted the skipped boxes under the box
/// budget; anything else — and any query with an armed fault point or
/// a limited memory quota — solves afresh. The wall-clock budget is not
/// charged for the skipped prefix.

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/fault.h"
#include "src/interval/box.h"
#include "src/smt/constraint.h"
#include "src/smt/hc4.h"
#include "src/smt/unsat_tree.h"

namespace bcert::parallel {
class CancellationToken;
}  // namespace bcert::parallel

namespace bcert::smt {

/// Verdict of a query.
enum class SatResult : std::uint8_t { kUnsat, kSat, kDeltaSat, kUnknown };

const char* sat_result_name(SatResult r);

/// Tuning knobs for the solver.
struct IcpConfig {
  double delta = 1e-3;          ///< box-width precision (δ)
  std::uint64_t max_boxes = 10'000'000;  ///< branch budget (per query)
  double time_limit_s = 300.0;  ///< wall-clock budget (per query)
  int hc4_passes = 8;           ///< contraction passes per box
  double hc4_improvement = 0.05;  ///< fixpoint threshold (relative)
  /// Ignored: every query searches on its caller's thread (see the file
  /// comment). Deprecated; the field goes once no caller assigns it.
  int threads = 0;
  /// HC4 backend: kAuto honors BCERT_HC4_MODE (default: native jit,
  /// compiled tape where the build has no native backend). With the jit
  /// and tape backends each conjunction is compiled once per query.
  Hc4Mode hc4_mode = Hc4Mode::kAuto;
  /// Optional cross-query tape cache (multi-query ICP): when set,
  /// compiled tapes (and the native code emitted from them) are reused
  /// for repeated conjunction signatures — e.g. the verifier's
  /// adaptive-δ re-checks of the same query. Must not outlive the
  /// ExprPool it caches for.
  std::shared_ptr<TapeCache> tape_cache;
  /// UNSAT-tree warm-starting across structurally identical queries:
  /// the one switch for it, active only when `unsat_cache` is set.
  /// Sound by construction: stale seeds silently cold-start and valid
  /// seeds partition the same search box (see the file comment).
  bool warm_start = true;
  /// Cross-query store of terminal UNSAT box trees (`BarrierPipeline`
  /// installs one per run). Must not outlive the ExprPool.
  std::shared_ptr<UnsatTreeCache> unsat_cache;
  /// Optional external interrupt, polled cooperatively: once it fires
  /// the query stops admitting boxes and returns kUnknown promptly,
  /// exactly like an exhausted budget. The Engine wires its per-job
  /// cancellation token here so a cancelled job aborts a long-running
  /// query mid-flight instead of only between pipeline steps.
  const parallel::CancellationToken* interrupt = nullptr;
  /// Per-job memory budget (resource governor). When set, frontier
  /// growth and UNSAT-tree recording charge against it; once a charge
  /// fails the query winds down like an exhausted budget (kUnknown) and
  /// the caller maps the latched `exhausted()` flag to a typed
  /// kResourceExhausted verdict. Null = unaccounted.
  core::MemoryBudget* mem_budget = nullptr;
  /// Per-job degradation counters (pipeline-owned). When set, the
  /// ladder rungs taken inside the solver — JIT emission failure → tape
  /// HC4, tape compile failure → tree HC4, dropped cache entry → cold
  /// start — are tallied here. Null = not recorded.
  core::DegradationCounters* degrade = nullptr;
};

/// Solver statistics (one query).
struct IcpStats {
  std::uint64_t boxes_processed = 0;
  std::uint64_t boxes_pruned = 0;
  std::uint64_t splits = 0;
  /// Conjunction solves seeded from a cached UNSAT tree (a DNF query
  /// counts one per warm-seeded disjunct).
  std::uint32_t warm_starts = 0;
  double solve_time_s = 0.0;
  double max_depth_width = 0.0;  ///< smallest surviving box width seen
};

/// The rest of a δ-SAT disjunct's search (see the file comment). Opaque;
/// it holds its DFS stack's and split tree's memory-budget charges
/// until it is resumed or destroyed, and must not outlive the ExprPool,
/// the caches or the memory budget of the query that produced it. A
/// resume consumes it: it is not thread-safe, and a second resume of
/// the same suspension solves afresh.
struct IcpSuspension;

/// δ-refinement steps \p s has been carried across: 0 when a fresh
/// search produced it, k after k resumed queries.
std::uint32_t resumed_steps(const IcpSuspension& s);

/// Result of a query: verdict + witness (for SAT / δ-SAT) + stats.
struct IcpResult {
  SatResult verdict = SatResult::kUnknown;
  std::optional<interval::Box> witness;  ///< surviving box when (δ-)SAT
  IcpStats stats;
  /// Set on a δ-SAT answer of the DNF sweep (no armed fault, no memory
  /// quota): the suspended search to hand to
  /// the next `IcpSolver::solve(dnf, box, resume)` of the same query at
  /// a smaller δ. Null otherwise. Drop it to free the search.
  std::shared_ptr<IcpSuspension> suspension;

  bool is_sat() const {
    return verdict == SatResult::kSat || verdict == SatResult::kDeltaSat;
  }
  bool is_unsat() const { return verdict == SatResult::kUnsat; }

  /// Witness midpoint (only valid when is_sat()).
  linalg::Vector witness_point() const;
};

/// δ-complete ICP solver over a shared expression pool.
class IcpSolver {
 public:
  explicit IcpSolver(const expr::ExprPool& pool, IcpConfig config = {})
      : pool_(&pool), config_(config) {}

  const IcpConfig& config() const { return config_; }
  IcpConfig& config() { return config_; }

  /// Decides ∃x ∈ \p box : conjunction(x).
  IcpResult solve(const Conjunction& conjunction,
                  const interval::Box& box) const;

  /// Decides ∃x ∈ \p box : dnf(x) by solving each disjunct; SAT short-
  /// circuits, UNSAT requires all disjuncts refuted, any UNKNOWN
  /// downgrades an otherwise-UNSAT answer to UNKNOWN. Stats accumulate
  /// across disjuncts (max_depth_width is the minimum seen anywhere) and
  /// the whole DNF shares one time/box budget.
  ///
  /// \p resume, when set, is the `suspension` of an earlier answer to
  /// this query at a δ no smaller than this solver's: the search
  /// continues from it where that is bit-identical to a fresh solve,
  /// and solves afresh otherwise (see the file comment).
  IcpResult solve(const Dnf& dnf, const interval::Box& box,
                  std::shared_ptr<IcpSuspension> resume = nullptr) const;

 private:
  const expr::ExprPool* pool_;
  IcpConfig config_;
};

}  // namespace bcert::smt
