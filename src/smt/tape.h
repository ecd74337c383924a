#pragma once
/// \file tape.h
/// \brief Compiled interval bytecode for HC4 contraction.
///
/// `Hc4Tape` lowers one `Conjunction` over an `ExprPool` into a flat
/// program executed against a dense `Interval` register file:
///
///   * one register *slot* per reachable DAG node, numbered in
///     topological order (children before parents — the same order the
///     tree-walking evaluator uses, so results are bit-identical);
///   * leaf loads are data, not code: constant slots are preloaded from
///     `const_slots_/const_values_` and variable slots are copied from
///     the box through `var_slots_/var_dims_` — the sweeps never dispatch
///     on kConst/kVar;
///   * every interior node becomes one `TapeInstr { op, exponent, dst,
///     a, b }`; the forward sweep runs the instructions in order
///     (`regs[dst] = op(regs[a], regs[b])`) and the backward sweep runs
///     them in reverse, projecting `regs[dst]`'s requirement onto
///     `regs[a]`/`regs[b]` (src/smt/projections.h).
///
/// A tape is immutable after construction and holds no mutable scratch,
/// so concurrent ICP workers share one `const Hc4Tape` and keep only a
/// private register file (`make_registers`) — compile once per query, not
/// once per worker. The same flat program is what the SSE2 interval
/// kernels (src/smt/tape_kernels.h) sweep and what the native backend
/// (src/smt/jit) compiles.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/expr/expr.h"
#include "src/interval/box.h"
#include "src/interval/interval.h"
#include "src/smt/constraint.h"
#include "src/smt/keyed_cache.h"

namespace bcert::smt {

class Hc4Jit;  // src/smt/jit/hc4_jit.h — native backend over a tape

/// Outcome of one contraction pass.
enum class ContractResult : std::uint8_t {
  kEmpty,       ///< box proven infeasible
  kContracted,  ///< box narrowed
  kNoChange,    ///< fixpoint for this pass
};

/// Register slot index inside a tape's register file.
using TapeSlot = std::uint32_t;
inline constexpr TapeSlot kNoSlot = 0xFFFFFFFFu;

/// One interior-node instruction: dst = op(a, b). Packed to 16 bytes so
/// the sweeps stream four instructions per cache line.
struct TapeInstr {
  TapeSlot dst = kNoSlot;
  TapeSlot a = kNoSlot;
  TapeSlot b = kNoSlot;  ///< kNoSlot for unary ops
  expr::Op op = expr::Op::kConst;
  std::int8_t spec = 0;       ///< specialization tag (kSpec* below)
  std::int16_t exponent = 0;  ///< kPow exponent, or spec-table index
};
static_assert(sizeof(TapeInstr) == 16);

/// TapeInstr::spec values.
inline constexpr std::int8_t kSpecNone = 0;
/// kMul with one constant operand: `exponent` indexes MulConstSpec.
inline constexpr std::int8_t kSpecMulConst = 1;

/// Compile-time data for a multiply-by-constant instruction (the bulk of
/// NN-derived conjunctions: every weight product). The forward product
/// needs only two endpoint multiplies (multiplication by a fixed-sign
/// constant is monotone, bit-for-bit equal to the 4-product general
/// path), and the backward reversal's division by [w, w] collapses to a
/// multiply with this precomputed outward-rounded reciprocal. Sound for
/// shared constant nodes: a point requirement [w, w] can only stay
/// [w, w] or go empty (which aborts the sweep), so the reciprocal can
/// never go stale mid-sweep.
struct MulConstSpec {
  double w = 0.0;                ///< the constant operand
  interval::Interval rec;        ///< outward-rounded [1/w, 1/w] enclosure
  TapeSlot var_slot = kNoSlot;   ///< the non-constant operand
  TapeSlot const_slot = kNoSlot;
  bool var_is_a = false;  ///< preserves the generic projection order
};

/// Immutable compiled HC4 program for one conjunction.
class Hc4Tape {
 public:
  /// Per-worker mutable state: the flat interval register file.
  using Registers = std::vector<interval::Interval>;

  Hc4Tape(const expr::ExprPool& pool, Conjunction conjunction);

  const Conjunction& conjunction() const { return conjunction_; }
  std::size_t num_slots() const { return num_slots_; }
  const std::vector<TapeInstr>& code() const { return code_; }

  // Read-only views of the leaf/root tables, consumed by the IR lowering
  // (src/smt/ir) and the native backend (src/smt/jit), which replay the
  // exact same load/readback protocol as the interpreter.
  const std::vector<MulConstSpec>& mul_const() const { return mul_const_; }
  const std::vector<TapeSlot>& var_slots() const { return var_slots_; }
  const std::vector<std::uint32_t>& var_dims() const { return var_dims_; }
  const std::vector<TapeSlot>& const_slots() const { return const_slots_; }
  const std::vector<interval::Interval>& const_values() const {
    return const_values_;
  }
  const std::vector<TapeSlot>& root_slots() const { return root_slots_; }
  const std::vector<interval::Interval>& root_feasible() const {
    return root_feasible_;
  }

  /// Flat, self-contained copy of a compiled tape — everything except
  /// the pool-relative `conjunction()` (whose relations are recorded so
  /// a restored tape can be validated and rebound). This is the payload
  /// the persistent warm-state store (src/smt/cache_io) serializes,
  /// keyed by the conjunction's `content_signature`.
  struct Image {
    std::vector<Rel> rels;  ///< conjunction relations, in root order
    std::vector<TapeInstr> code;
    std::vector<MulConstSpec> mul_const;
    std::vector<TapeSlot> var_slots;
    std::vector<std::uint32_t> var_dims;
    std::vector<TapeSlot> const_slots;
    std::vector<interval::Interval> const_values;
    std::vector<TapeSlot> root_slots;
    std::vector<interval::Interval> root_feasible;
    std::uint64_t num_slots = 0;
  };

  /// Snapshot of this tape's flat contents (deep copy).
  Image image() const;

  /// Validated reconstruction of a tape from a (possibly corrupt)
  /// image. Every structural invariant the compiler establishes is
  /// re-checked — slot layout ([consts | vars | interiors] in dense
  /// schedule order), slot bounds, opcode range, mul-const
  /// specialization wiring (including the recomputed outward-rounded
  /// reciprocal) and the relation-derived root feasible intervals.
  /// Returns null on any violation; the caller falls back to a cold
  /// compile. The restored tape's `conjunction()` carries the recorded
  /// relations but no live ExprIds — it is a *prototype*, only handed
  /// out after rebinding to a live conjunction (the ctor below).
  static std::shared_ptr<const Hc4Tape> restore(const Image& img);

  /// Rebinds a restored prototype to the live conjunction it is being
  /// adopted for (bit-identical flat program, live ExprIds). Checks the
  /// `tape_compile` fault point exactly like a real compile, so the
  /// degradation ladder sees warm restores and cold compiles alike.
  Hc4Tape(const Hc4Tape& proto, Conjunction conjunction);

  /// Human-readable disassembly: one header line, one line per leaf
  /// binding, one line per instruction ("%dst = op %a, %b"), one line per
  /// constraint root. Exactly `code().size()` lines start with "  %" and
  /// an instruction mnemonic, so dumps round-trip instruction counts (the
  /// disassembler unit test relies on this).
  void dump(std::ostream& os) const;

  /// Fresh register file sized for this tape (constants preloaded).
  Registers make_registers() const;

  /// One forward+backward HC4 pass over \p box using \p regs as scratch.
  /// When \p fwd_roots is non-null it receives the forward (natural
  /// extension) enclosure of every constraint root — the values
  /// `certainly_satisfied`/`certainly_violated` need — at no extra cost.
  ContractResult contract(interval::Box& box, Registers& regs,
                          std::vector<interval::Interval>* fwd_roots) const;

  /// Forward-only evaluation of the constraint roots over \p box.
  void eval_roots(const interval::Box& box, Registers& regs,
                  std::vector<interval::Interval>& out) const;

 private:
  Hc4Tape() = default;  ///< empty shell restore() fills field by field

  /// Loads constants and the box's variable dimensions into \p regs.
  void load_leaves(const interval::Box& box, Registers& regs) const;
  /// Runs the instruction stream front to back.
  void forward(Registers& regs) const;

  Conjunction conjunction_;
  std::vector<TapeInstr> code_;
  std::vector<MulConstSpec> mul_const_;
  std::vector<TapeSlot> var_slots_;   // parallel arrays: slot ↔ box dim
  std::vector<std::uint32_t> var_dims_;
  std::vector<TapeSlot> const_slots_;  // parallel arrays: slot ↔ value
  std::vector<interval::Interval> const_values_;
  std::vector<TapeSlot> root_slots_;  // aligned with conjunction_
  std::vector<interval::Interval> root_feasible_;
  std::size_t num_slots_ = 0;
};

/// Multi-query tape cache, keyed by conjunction signature (constraint
/// root ids + relations). The verifier's LP ↔ SMT refinement loop solves
/// sequences of closely related queries — notably the adaptive-δ
/// re-checks, which reuse *identical* hash-consed conjunctions — and a
/// tape is immutable and self-contained, so compiled schedules can be
/// shared across IcpSolver instances. ExprIds are only meaningful
/// relative to their pool, so the pool's address is part of the key;
/// keep a cache no longer than the pool it serves.
///
/// The store is a bounded LRU (`KeyedLruCache`): each LP ↔ SMT iteration
/// mints fresh W constants (new ExprIds, new signatures), so a long
/// synthesis run would otherwise grow the cache without limit; evicting
/// the least-recently-used tapes keeps exactly the live working set —
/// current candidate × a few check kinds — resident. `stats()` exposes
/// hit/miss/eviction counters.
///
/// Native compilations live in a second, smaller LRU keyed by the tape
/// they were emitted from. A jit's machine code is an order of magnitude
/// larger than its tape, and the working set that actually hits is
/// small, so the native store is capped at `kMaxJitEntries` while the
/// tape store keeps `kMaxEntries` for the warm-state snapshot. Every
/// jit lookup starts from a tape lookup, so the tape store's counters
/// and most-recently-used order describe every query, whichever backend
/// then runs it.
class TapeCache {
 public:
  /// Default LRU capacity of the tape store (entries, not bytes).
  static constexpr std::size_t kMaxEntries = 64;
  /// Capacity cap of the native-code store.
  static constexpr std::size_t kMaxJitEntries = 16;

  explicit TapeCache(std::size_t capacity = kMaxEntries)
      : tapes_(capacity), jits_(std::min(capacity, kMaxJitEntries)) {}

  /// Returns the cached tape for \p c over \p pool, compiling on miss.
  std::shared_ptr<const Hc4Tape> get_or_compile(const expr::ExprPool& pool,
                                                const Conjunction& c);

  /// Returns the cached native compilation of \p tape (normally one
  /// `get_or_compile` just returned, which counted the lookup and
  /// refreshed the tape's LRU entry), running tape → IR → x86-64
  /// emission on miss. Throws (JitUnavailable, FaultInjected, ...) when
  /// emission is impossible; failures are never cached, so a transient
  /// armed `jit_compile` fault does not poison later lookups. A cached
  /// jit holds its tape, so a key can never name a dead tape.
  std::shared_ptr<const Hc4Jit> get_or_compile_jit(
      const std::shared_ptr<const Hc4Tape>& tape);

  std::size_t size() const { return tapes_.size(); }

  /// Hit/miss/eviction counters and current occupancy (tape store).
  KeyedCacheStats stats() const { return tapes_.stats(); }
  /// Same counters for the native-code store.
  KeyedCacheStats jit_stats() const { return jits_.stats(); }

  // --- persistent warm state (src/smt/cache_io, bcertd) ---------------------

  /// One exportable entry: the conjunction's pool-independent content
  /// signature plus the shared immutable tape.
  struct WarmEntry {
    Sig128 content;
    std::shared_ptr<const Hc4Tape> tape;
  };

  /// Everything worth persisting: the live LRU contents (MRU first)
  /// plus imported warm prototypes not yet re-adopted this run (so an
  /// idle daemon does not bleed state across restart cycles). One entry
  /// per content signature; live entries win.
  std::vector<WarmEntry> export_entries() const;

  /// Installs restored prototypes into the warm side table. A later
  /// `get_or_compile` miss whose conjunction hashes to an imported
  /// signature adopts the prototype (rebound to the live conjunction)
  /// instead of compiling — bit-identical by the content-signature
  /// contract — and counts it in `warm_restores()`.
  void import_entries(std::vector<WarmEntry> entries);

  /// Compiles avoided by adopting an imported prototype — the counter
  /// proving a snapshot-warmed process actually took the warm path.
  std::uint64_t warm_restores() const {
    return warm_restores_.load(std::memory_order_relaxed);
  }

 private:
  using Signature =
      std::pair<const void*, std::vector<std::pair<expr::ExprId, Rel>>>;
  static Signature signature_of(const expr::ExprPool& pool,
                                const Conjunction& c);

  /// LRU value: the tape plus its content signature (computed once on
  /// the miss path, kept so export never needs the — possibly dead —
  /// pool the key points at).
  struct CachedTape {
    std::shared_ptr<const Hc4Tape> tape;
    Sig128 content;
  };

  KeyedLruCache<Signature, const CachedTape> tapes_;
  KeyedLruCache<const Hc4Tape*, const Hc4Jit> jits_;
  mutable std::mutex warm_mutex_;
  std::map<Sig128, std::shared_ptr<const Hc4Tape>> warm_;
  std::atomic<std::uint64_t> warm_restores_{0};
};

}  // namespace bcert::smt
