#pragma once
/// \file hc4.h
/// \brief HC4 forward/backward interval contractor.
///
/// The workhorse of the δ-SAT solver. Given a conjunction of constraints
/// over a shared expression DAG and a box, HC4:
///   1. forward-evaluates every DAG node over the box (natural interval
///      extension),
///   2. intersects each constraint root with its feasible value set,
///   3. sweeps the DAG in reverse topological order, projecting each
///      node's requirement onto its children through inverse operations,
///   4. reads back the narrowed variable intervals as the contracted box.
///
/// All projections are conservative (they may keep spurious points but
/// never discard a real solution), so an empty result is a proof that the
/// box contains no solution of the conjunction.
///
/// Three execution backends produce bit-identical results:
///   * kJit (default): the tape is lowered through the SSA IR
///     (src/smt/ir) and emitted as native x86-64 (src/smt/jit), with the
///     outward rounding fused into the SSE arithmetic. A build without a
///     native backend resolves the default to kTape up front; when
///     emission fails at run time (exec-mmap denied, `jit_compile` fault
///     armed) construction degrades to kTape bit-identically.
///   * kTape (BCERT_HC4_MODE=tape): the portable fallback. The
///     conjunction is compiled once into a flat interval bytecode tape
///     (src/smt/tape.h) and both sweeps are tight loops over contiguous
///     arrays — no pointer-chasing into the ExprPool. Tapes are immutable
///     and shared across ICP workers.
///   * kTree: the original per-node walk over the Evaluator schedule,
///     kept as the reference oracle for differential testing
///     (BCERT_HC4_MODE=tree).

#include <memory>
#include <vector>

#include "src/expr/eval.h"
#include "src/interval/box.h"
#include "src/smt/constraint.h"
#include "src/smt/jit/hc4_jit.h"
#include "src/smt/tape.h"

namespace bcert::smt {

/// HC4 execution backend selector. kAuto resolves through the
/// BCERT_HC4_MODE environment variable ("jit" / "tree" / "tape"),
/// default kJit (kTape where the build has no native backend).
enum class Hc4Mode : std::uint8_t { kAuto, kTape, kTree, kJit };

/// Resolves kAuto against BCERT_HC4_MODE (cached after the first call).
Hc4Mode resolve_hc4_mode(Hc4Mode mode);

/// HC4 contractor specialized to one conjunction.
class Hc4Contractor {
 public:
  /// Compiles the conjunction for the selected backend.
  Hc4Contractor(const expr::ExprPool& pool, Conjunction conjunction,
                Hc4Mode mode = Hc4Mode::kAuto);

  /// Shares an already-compiled tape (private register file only) — how
  /// the ICP solver reuses a tape-cache entry without recompiling it.
  explicit Hc4Contractor(std::shared_ptr<const Hc4Tape> tape);

  /// Shares an already-compiled native jit (private register file only).
  explicit Hc4Contractor(std::shared_ptr<const Hc4Jit> jit);

  const Conjunction& conjunction() const {
    if (jit_) return jit_->conjunction();
    return tape_ ? tape_->conjunction() : conjunction_;
  }
  /// The compiled tape (null when running the tree or jit backend).
  const std::shared_ptr<const Hc4Tape>& tape() const { return tape_; }
  /// The native compilation (null unless running the jit backend).
  const std::shared_ptr<const Hc4Jit>& jit() const { return jit_; }

  /// One forward+backward pass; narrows \p box in place.
  ContractResult contract(interval::Box& box);

  /// Repeats passes until fixpoint (relative improvement below \p ratio)
  /// or \p max_passes; returns kEmpty as soon as infeasibility is proven.
  ContractResult contract_fixpoint(interval::Box& box, int max_passes = 8,
                                   double ratio = 0.05);

  /// Forward-evaluates all constraint roots over \p box.
  std::vector<interval::Interval> root_values(const interval::Box& box);

  /// True when every constraint is certainly satisfied over \p box
  /// (then any point of the box, e.g. its midpoint, is a real witness).
  /// Reuses the most recent forward sweep when it was over this same box
  /// (e.g. a contract() pass that reached a fixpoint), so the ICP hot
  /// loop does not pay a second full evaluation per box.
  bool certainly_satisfied(const interval::Box& box);

  /// True when some constraint is certainly violated over \p box.
  bool certainly_violated(const interval::Box& box);

  /// Both verdicts from a single forward evaluation.
  struct Certainty {
    bool satisfied;
    bool violated;
  };
  Certainty certainty(const interval::Box& box);

 private:
  /// Tree backend: projects node requirements onto children.
  bool backward_sweep();
  /// Root enclosures for \p box, via the cache when it is fresh.
  const std::vector<interval::Interval>& roots_for(const interval::Box& box);

  // Jit backend state (regs_ is shared with the tape backend — the jit
  // register file is the tape's plus the forward-root tail).
  std::shared_ptr<const Hc4Jit> jit_;

  // Tape backend state.
  std::shared_ptr<const Hc4Tape> tape_;
  Hc4Tape::Registers regs_;

  // Tree backend state (unused when tape_ is set).
  Conjunction conjunction_;
  std::unique_ptr<expr::Evaluator> eval_;
  std::vector<std::size_t> root_positions_;
  std::vector<interval::Interval> req_;  // per schedule node requirement

  // Forward-root cache: enclosures from the latest forward sweep and the
  // box they were evaluated over.
  std::vector<interval::Interval> cached_roots_;
  interval::Box cached_box_;
  bool cache_valid_ = false;
};

}  // namespace bcert::smt
