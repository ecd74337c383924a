#pragma once
/// \file hc4_jit.h
/// \brief Native x86-64 backend for HC4 contraction tapes.
///
/// `Hc4Jit` lowers one `Hc4Tape` through the SSA-style IR
/// (src/smt/ir/ir.h) — interval constant folding, common-subexpression
/// sharing, dead-projection pruning — and emits two machine-code entry
/// points over the tape's flat register file:
///
///   * `forward_fn(regs)`  — the forward sweep with the outward rounding
///     fused into the SSE arithmetic, every constraint root's natural
///     enclosure written to a tail buffer (`regs[num_slots + i]`), then
///     the feasible-set intersections; returns 0 the moment a root goes
///     empty.
///   * `backward_fn(regs)` — the reverse projection sweep; hot shapes
///     (kAdd legs, requirement-emptiness checks) are inline SSE, the
///     long tail of transcendental projections calls back into the same
///     `project_node` the interpreter runs.
///
/// The contract is *bit identity*: for every box, `Hc4Jit::contract` and
/// `Hc4Tape::contract` produce the same `ContractResult`, the same
/// narrowed box, and the same forward-root enclosures, down to NaN
/// payloads and signed zeros (the jit-vs-tape differential fuzz suite
/// enforces this). The interpreter therefore remains both the fallback —
/// `compile()` throws `JitUnavailable` on non-x86-64 hosts or when
/// executable memory is refused, and the contractor setup degrades
/// jit → tape, counted in `DegradationCounters::jit_to_tape` — and the
/// differential oracle.
///
/// A compiled jit is immutable and holds no mutable scratch: concurrent
/// workers share one `const Hc4Jit` and keep private register files,
/// exactly like the tape. `TapeCache::get_or_compile_jit` keys
/// compilations by their cached tape to share them across queries.

#include <cstddef>
#include <memory>
#include <vector>

#include "src/interval/box.h"
#include "src/interval/interval.h"
#include "src/linalg/vector.h"
#include "src/smt/ir/ir.h"
#include "src/smt/jit/exec_arena.h"
#include "src/smt/tape.h"

namespace bcert::smt {

/// One tape compiled to native code. Create via `compile()`.
class Hc4Jit {
 public:
  /// Per-worker mutable state: the tape's register file plus one tail
  /// slot per constraint root for the forward enclosures, plus one
  /// (value, operand) shadow pair per transcendental projection the
  /// emitted code can prove is a no-op and skip (see hc4_jit.cpp).
  using Registers = std::vector<interval::Interval>;

  /// Runs tape → IR → optimization passes → x86-64 emission.
  /// Throws `JitUnavailable` when the host cannot execute emitted code
  /// (non-x86-64 build, exec-mmap denial) and `core::FaultInjected` when
  /// the `jit_compile` fault point is armed. Failures leave no state
  /// behind; callers fall back to \p tape bit-identically.
  static std::shared_ptr<const Hc4Jit> compile(
      std::shared_ptr<const Hc4Tape> tape);

  const Hc4Tape& tape() const { return *tape_; }
  const std::shared_ptr<const Hc4Tape>& tape_ptr() const { return tape_; }
  const Conjunction& conjunction() const { return tape_->conjunction(); }

  /// The optimized IR this code was emitted from (pass stats, dumps).
  const ir::Program& program() const { return prog_; }
  /// Emitted machine-code size in bytes (both entry points).
  std::size_t code_size() const { return code_size_; }

  /// Fresh register file sized for this jit (constants preloaded).
  Registers make_registers() const;

  /// One forward+backward HC4 pass; bit-identical to Hc4Tape::contract
  /// (including the `kHc4Backward` fault point between the sweeps).
  ContractResult contract(interval::Box& box, Registers& regs,
                          std::vector<interval::Interval>* fwd_roots) const;

  /// Forward-only evaluation of the constraint roots over \p box;
  /// bit-identical to Hc4Tape::eval_roots.
  void eval_roots(const interval::Box& box, Registers& regs,
                  std::vector<interval::Interval>& out) const;

 private:
  using JitFn = int (*)(interval::Interval*);

  Hc4Jit(std::shared_ptr<const Hc4Tape> tape, ir::Program prog,
         linalg::AlignedDoubles data, const std::vector<std::uint8_t>& code,
         std::size_t fwd_off, std::size_t bwd_off, bool needs_nonempty_leaves,
         bool reseed_consts, std::size_t shadow_pairs);

  /// Seeds constants (leaf + folded) and the box's variables into \p regs.
  void load_leaves(const interval::Box& box, Registers& regs) const;
  std::size_t register_count() const;

  std::shared_ptr<const Hc4Tape> tape_;
  ir::Program prog_;
  linalg::AlignedDoubles data_;  ///< constant table the code addresses
  jit::ExecMemory exec_;
  JitFn forward_fn_;
  JitFn backward_fn_;
  std::size_t code_size_;
  /// The emitted code elided the provably-dead emptiness checks under a
  /// nonempty-leaves precondition; boxes with an empty variable interval
  /// take the (bit-identical) interpreter path instead.
  bool needs_nonempty_leaves_;
  /// Some backward projection (or root intersection) can write a
  /// constant slot, so load_leaves must re-seed constants per call.
  bool reseed_consts_;
  /// Shadow (value, operand) pairs appended to the register file for the
  /// backward no-narrow skip.
  std::size_t shadow_pairs_;
};

}  // namespace bcert::smt
