#include "src/smt/jit/hc4_jit.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iostream>
#include <limits>

#include "src/core/fault.h"
#include "src/core/runtime_config.h"
#include "src/expr/eval.h"
#include "src/smt/projections.h"
#include "src/smt/tape_kernels.h"
#include "src/smt/jit/x64_asm.h"

namespace bcert::smt {

using interval::Interval;

static_assert(sizeof(Interval) == 16,
              "jit addresses register slots as [lo, hi] double pairs");

namespace {

// --- out-of-line callbacks --------------------------------------------------
// The emitted code inlines the hot shapes (kAdd/kSub/kNeg/kMul/kMulConst
// forward, kAdd and kMulConst projections, every emptiness check) and
// calls back here for the long tail, running the interpreter's own
// kernels — which is what makes the bit-identity contract cheap to keep.

const Interval kNoOperand;  // unary filler, mirrors the sweeps' static

void fwd_generic(Interval* dst, const Interval* a, const Interval* b, int op,
                 int exp) {
  *dst = expr::apply_interval_op(static_cast<expr::Op>(op), exp, *a,
                                 b != nullptr ? *b : kNoOperand);
}

int bwd_generic(const Interval* r, Interval* a, Interval* b, int op,
                int exp) {
  return detail::project_node(static_cast<expr::Op>(op), exp, *r, *a, b) ? 1
                                                                         : 0;
}

/// Constant-leg feasibility of the kMulConst projection: w ∈ r / x. The
/// two dominant shapes (sign-definite divisor, numerator spanning zero)
/// are emitted inline; this branchy extended-division membership test is
/// the residual that stays out of line.
int bwd_cqf(const Interval* r, const Interval* x, const MulConstSpec* sp) {
  return tkern::const_quotient_feasible(sp->w, *r, *x) ? 1 : 0;
}

// Direct per-op callbacks: the generic entries above re-dispatch through
// apply_interval_op / project_node's switch on every call. Both are
// header-inline, so instantiating them with a compile-time op folds the
// switch away and the emitted call lands straight in the kernel. The
// emitter resolves these at compile (= emit) time; kPow keeps the
// generic path (it needs the exponent operand).

template <expr::Op OP>
void fwd_unary(Interval* dst, const Interval* a) {
  *dst = expr::apply_interval_op(OP, 0, *a, kNoOperand);
}
template <expr::Op OP>
void fwd_binary(Interval* dst, const Interval* a, const Interval* b) {
  *dst = expr::apply_interval_op(OP, 0, *a, *b);
}
template <expr::Op OP>
int bwd_unary(const Interval* r, Interval* a) {
  return detail::project_node(OP, 0, *r, *a, nullptr) ? 1 : 0;
}
template <expr::Op OP>
int bwd_binary(const Interval* r, Interval* a, Interval* b) {
  return detail::project_node(OP, 0, *r, *a, b) ? 1 : 0;
}

using FwdUnaryFn = void (*)(Interval*, const Interval*);
using FwdBinaryFn = void (*)(Interval*, const Interval*, const Interval*);
using BwdUnaryFn = int (*)(const Interval*, Interval*);
using BwdBinaryFn = int (*)(const Interval*, Interval*, Interval*);

FwdUnaryFn fwd_unary_fn(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kSin: return &fwd_unary<Op::kSin>;
    case Op::kCos: return &fwd_unary<Op::kCos>;
    case Op::kTan: return &fwd_unary<Op::kTan>;
    case Op::kAtan: return &fwd_unary<Op::kAtan>;
    case Op::kExp: return &fwd_unary<Op::kExp>;
    case Op::kLog: return &fwd_unary<Op::kLog>;
    case Op::kSqrt: return &fwd_unary<Op::kSqrt>;
    case Op::kSqr: return &fwd_unary<Op::kSqr>;
    case Op::kTanh: return &fwd_unary<Op::kTanh>;
    case Op::kSigmoid: return &fwd_unary<Op::kSigmoid>;
    case Op::kRelu: return &fwd_unary<Op::kRelu>;
    case Op::kAbs: return &fwd_unary<Op::kAbs>;
    default: return nullptr;
  }
}

FwdBinaryFn fwd_binary_fn(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kAdd: return &fwd_binary<Op::kAdd>;  // non-SSE2 tape builds
    case Op::kDiv: return &fwd_binary<Op::kDiv>;
    case Op::kMin: return &fwd_binary<Op::kMin>;
    case Op::kMax: return &fwd_binary<Op::kMax>;
    default: return nullptr;
  }
}

BwdUnaryFn bwd_unary_fn(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kSin: return &bwd_unary<Op::kSin>;
    case Op::kCos: return &bwd_unary<Op::kCos>;
    case Op::kTan: return &bwd_unary<Op::kTan>;
    case Op::kAtan: return &bwd_unary<Op::kAtan>;
    case Op::kExp: return &bwd_unary<Op::kExp>;
    case Op::kLog: return &bwd_unary<Op::kLog>;
    case Op::kSqrt: return &bwd_unary<Op::kSqrt>;
    case Op::kSqr: return &bwd_unary<Op::kSqr>;
    case Op::kTanh: return &bwd_unary<Op::kTanh>;
    case Op::kSigmoid: return &bwd_unary<Op::kSigmoid>;
    case Op::kRelu: return &bwd_unary<Op::kRelu>;
    case Op::kAbs: return &bwd_unary<Op::kAbs>;
    default: return nullptr;
  }
}

BwdBinaryFn bwd_binary_fn(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kAdd: return &bwd_binary<Op::kAdd>;  // non-SSE2 tape builds
    case Op::kSub: return &bwd_binary<Op::kSub>;
    case Op::kMul: return &bwd_binary<Op::kMul>;
    case Op::kDiv: return &bwd_binary<Op::kDiv>;
    case Op::kMin: return &bwd_binary<Op::kMin>;
    case Op::kMax: return &bwd_binary<Op::kMax>;
    default: return nullptr;
  }
}

/// Unary ops eligible for the backward no-narrow skip: total-domain ops
/// whose projection is a conservative `a ∩= g(r)` (or a conditional
/// no-op). For these, when the requirement r still equals the node's own
/// forward value F and the operand a is untouched since the sweep,
/// every x ∈ a has op(x) ∈ F = r, so a sound projection cannot prune
/// anything and `project_node` provably returns a unchanged. Domain-
/// clipping ops (kLog, kSqrt — the projection may prune points outside
/// the op's domain even when r == F) and the piecewise hull projections
/// (kSqr, kAbs, kRelu, kPow) stay out.
bool skip_eligible_unary(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kSin:
    case Op::kCos:
    case Op::kTan:
    case Op::kAtan:
    case Op::kExp:
    case Op::kTanh:
    case Op::kSigmoid:
      return true;
    default:
      return false;
  }
}

// --- constant-table layout --------------------------------------------------
// 16-byte entries addressed [rbp + disp32]; the base is 64-byte aligned
// (linalg::aligned_doubles) so aligned movapd/integer-SSE memory operands
// are legal on every entry.

constexpr std::int32_t kOffEmpty = 0;      ///< {+inf, -inf} canonical empty
constexpr std::int32_t kOffOnesQw = 16;    ///< int64 {1, 1}
constexpr std::int32_t kOffHiLane = 32;    ///< int64 {0, ~0}
constexpr std::int32_t kOffZeroStep = 48;  ///< {0x8000000000000001, 1}
constexpr std::int32_t kOffInfPair = 64;   ///< {-inf, +inf}
constexpr std::int32_t kOffSignMask = 80;  ///< {-0.0, -0.0}
constexpr std::int32_t kOffOnePair = 96;   ///< {1.0, 1.0}
constexpr std::int32_t kOffTables = 112;   ///< {w,w} pairs, feasibles, recs

// --- emitter ----------------------------------------------------------------

class Emitter {
 public:
  /// \p elide_checks: the caller proved every op in the tape maps
  /// nonempty intervals to nonempty intervals and every preloaded
  /// constant is nonempty. Under that invariant (plus nonempty leaves,
  /// which the wrapper guards) no slot can be empty during the forward
  /// sweep, and the backward sweep aborts the instant an intersection
  /// empties a slot — so the per-operand forward emptiness checks and
  /// the per-instruction backward requirement checks are provably dead
  /// and are not emitted. The genuinely observable checks (root
  /// feasibility, every backward intersection) always remain.
  /// \p shadow_of maps a tape slot to the register-file index of its
  /// shadow pair (forward value, operand) for the backward no-narrow
  /// skip, or -1. Nonempty only under check elision.
  Emitter(const Hc4Tape& tape, const ir::Program& prog, const double* table,
          bool elide_checks, const std::vector<std::int32_t>& shadow_of)
      : tape_(tape),
        prog_(prog),
        table_addr_(reinterpret_cast<std::uint64_t>(table)),
        nmc_(tape.mul_const().size()),
        nroots_(tape.root_slots().size()),
        elide_(elide_checks),
        shadow_of_(shadow_of) {}

  /// Emits the forward sweep + root handling; returns its entry offset.
  std::size_t emit_forward() {
    const std::size_t entry = a_.size();
    prologue();
    fwd_cache_ = kNoCache;
    const std::size_t l_empty = a_.new_label();
    for (const ir::FwdInstr& f : prog_.forward) emit_fwd(f);

    // Every root's natural enclosure goes to the tail buffer *before*
    // the feasibility intersections can abort — the wrapper's fwd_roots
    // and eval_roots read the tail unconditionally, exactly like the
    // interpreter fills fwd_roots ahead of its intersect loop. With a
    // single root the two loops fuse (there is no later tail store an
    // abort could skip), reusing the enclosure already in a register.
    const std::size_t tail = tape_.num_slots();
    const std::vector<TapeSlot>& roots = tape_.root_slots();
    if (roots.size() == 1) {
      fwd_load(0, roots[0]);
      a_.movupd_store(jit::kRbx, slot_off(tail), 0);
      root_intersect(roots[0], 0, l_empty);
    } else {
      for (std::size_t i = 0; i < roots.size(); ++i) {
        fwd_load(0, roots[i]);
        a_.movupd_store(jit::kRbx, slot_off(tail + i), 0);
        fwd_cache_ = roots[i];  // xmm0 holds this root's enclosure now
      }
      for (std::size_t i = 0; i < roots.size(); ++i) {
        a_.movupd_load(0, jit::kRbx, slot_off(roots[i]));
        root_intersect(roots[i], i, l_empty);
      }
    }
    epilogue(l_empty);
    return entry;
  }

  /// Emits the backward sweep; returns its entry offset.
  std::size_t emit_backward() {
    const std::size_t entry = a_.size();
    prologue();
    // Every kMulConst site calls the feasibility helper; r12 is callee-
    // saved (and already preserved by the prologue), so load it once.
    a_.mov_ri64(jit::kR12, reinterpret_cast<std::uint64_t>(&bwd_cqf));
    bwd_cache2_ = bwd_cache4_ = kNoCache;
    const std::size_t l_empty = a_.new_label();
    for (const ir::BwdInstr& b : prog_.backward) emit_bwd(b, l_empty);
    epilogue(l_empty);
    return entry;
  }

  const std::vector<std::uint8_t>& code() const { return a_.buffer(); }

 private:
  static constexpr std::size_t kNoCache = static_cast<std::size_t>(-1);

  static std::int32_t slot_off(std::size_t slot) {
    return static_cast<std::int32_t>(slot * sizeof(Interval));
  }

  /// Register-file index of \p slot's shadow pair, or -1.
  std::int32_t shadow_base(std::size_t slot) const {
    return slot < shadow_of_.size() ? shadow_of_[slot] : -1;
  }

  /// Snapshots an eligible node's forward result and operand into its
  /// shadow pair, arming the backward no-narrow skip.
  void emit_fwd_shadow(const ir::FwdInstr& f) {
    const std::int32_t sh = shadow_base(f.dst);
    if (sh < 0) return;
    a_.movupd_load(0, jit::kRbx, slot_off(f.dst));
    a_.movupd_store(jit::kRbx, slot_off(static_cast<std::size_t>(sh)), 0);
    a_.movupd_load(1, jit::kRbx, slot_off(f.a));
    a_.movupd_store(jit::kRbx, slot_off(static_cast<std::size_t>(sh) + 1), 1);
    fwd_cache_ = f.dst;  // xmm0 holds the node's fresh value
  }

  /// Loads forward-sweep operand \p slot into xmm\p x, reusing xmm0 when
  /// the previous instruction's result (always left in xmm0) is that
  /// slot — the dependent-chain case, where dodging the store→load
  /// round trip shortens the critical path.
  void fwd_load(int x, std::size_t slot) {
    if (slot == fwd_cache_) {
      if (x != 0) a_.movapd_rr(x, 0);
    } else {
      a_.movupd_load(x, jit::kRbx, slot_off(slot));
    }
  }

  /// root ∩= feasible, with the root enclosure already in xmm0. maxpd /
  /// minpd with the root value in dst replicate the scalar intersect
  /// ternaries (NaN endpoints select the feasible operand on both
  /// paths); an already-empty or emptied root aborts, making the stored
  /// bits unobservable — same as the interpreter.
  void root_intersect(TapeSlot root, std::size_t i, std::size_t l_empty) {
    a_.movapd_load(2, jit::kRbp, feas_off(i));
    a_.movapd_rr(1, 0);
    a_.maxpd(0, 2);  // lane0: lo = v.lo > f.lo ? v.lo : f.lo
    a_.minpd(1, 2);  // lane1: hi = v.hi < f.hi ? v.hi : f.hi
    a_.movsd_rr(1, 0);
    a_.movupd_store(jit::kRbx, slot_off(root), 1);
    empty_check(1, l_empty);
    fwd_cache_ = kNoCache;
  }
  std::int32_t mc_off(std::size_t k) const {
    return kOffTables + static_cast<std::int32_t>(16 * k);
  }
  std::int32_t feas_off(std::size_t i) const {
    return kOffTables + static_cast<std::int32_t>(16 * (nmc_ + i));
  }
  std::int32_t rec_off(std::size_t k) const {
    return kOffTables + static_cast<std::int32_t>(16 * (nmc_ + nroots_ + k));
  }

  /// Entry: rdi = register file. rbx keeps the file base, rbp the
  /// constant table; three pushes leave rsp ≡ 0 (mod 16) so the callback
  /// call sites are ABI-aligned.
  void prologue() {
    a_.push(jit::kRbx);
    a_.push(jit::kRbp);
    a_.push(jit::kR12);
    a_.mov_rr64(jit::kRbx, jit::kRdi);
    a_.mov_ri64(jit::kRbp, table_addr_);
  }

  /// Shared exit: fallthrough returns 1, the empty label returns 0.
  void epilogue(std::size_t l_empty) {
    const std::size_t l_exit = a_.new_label();
    a_.mov_r32_imm(jit::kRax, 1);
    a_.jmp(l_exit);
    a_.bind(l_empty);
    a_.xor_eax_eax();
    a_.bind(l_exit);
    a_.pop(jit::kR12);
    a_.pop(jit::kRbp);
    a_.pop(jit::kRbx);
    a_.ret();
  }

  /// Branches to \p target iff xmm\p x holds an empty interval. The
  /// ja is false on NaN — matching the scalar `lo > hi` exactly.
  void empty_check(int x, std::size_t target) {
    a_.movapd_rr(7, x);
    a_.unpckhpd(7, 7);    // lane0 = hi
    a_.ucomisd(x, 7);     // lo ? hi
    a_.jcc(jit::kCcAbove, target);
  }

  /// In-place outward rounding of xmm0 = [lo, hi] — instruction-for-
  /// instruction translation of tkern::outward_pd. Clobbers xmm1-xmm3.
  void outward() {
    a_.movapd_rr(1, 0);
    a_.psrlq_imm(1, 63);                       // sign
    a_.psllq_imm(1, 1);
    a_.psubq_mem(1, jit::kRbp, kOffOnesQw);    // t = 2·sign − 1
    a_.pxor(2, 2);
    a_.psubq(2, 1);                            // −t
    a_.movsd_rr(2, 1);                         // delta = {t, −t} per lane
    a_.movapd_rr(1, 0);
    a_.paddq(1, 2);                            // stepped
    a_.xorpd(2, 2);
    a_.movapd_rr(3, 0);
    a_.cmppd(3, 2, 0);                         // zero mask
    a_.movapd_rr(2, 3);
    a_.andpd_mem(2, jit::kRbp, kOffZeroStep);  // ±0 → first subnormal
    a_.andnpd(3, 1);
    a_.orpd(2, 3);                             // stepped'
    a_.movapd_rr(1, 0);
    a_.cmppd_mem(1, jit::kRbp, kOffInfPair, 0);  // saturating ∓inf
    a_.movapd_rr(3, 0);
    a_.cmppd(3, 3, 3);                         // NaN lanes
    a_.orpd(1, 3);                             // keep mask
    a_.movapd_rr(3, 1);
    a_.andpd(3, 0);
    a_.andnpd(1, 2);
    a_.orpd(3, 1);
    a_.movapd_rr(0, 3);
  }

  void emit_fwd(const ir::FwdInstr& f) {
    switch (f.kind) {
      case ir::FwdKind::kFolded:
        return;  // preloaded by load_leaves; xmm0 untouched
      case ir::FwdKind::kCopy:
        fwd_load(0, f.a);
        a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        fwd_cache_ = f.dst;
        return;
      case ir::FwdKind::kAdd:
      case ir::FwdKind::kSub: {
        // add_iv / operator- twins: empty operand → canonical empty,
        // else one packed op with fused outward rounding.
        const std::size_t l_emp = elide_ ? 0 : a_.new_label();
        const std::size_t l_done = elide_ ? 0 : a_.new_label();
        if (f.b == fwd_cache_ && f.a != fwd_cache_) {
          a_.movapd_rr(5, 0);  // cached b before xmm0 is overwritten
          a_.movupd_load(0, jit::kRbx, slot_off(f.a));
        } else {
          fwd_load(0, f.a);
          fwd_load(5, f.b);
        }
        if (!elide_) {
          empty_check(0, l_emp);
          empty_check(5, l_emp);
        }
        if (f.kind == ir::FwdKind::kSub) {
          a_.shufpd(5, 5, 1);  // [b.hi, b.lo]: lo−hi / hi−lo lanes
          a_.subpd(0, 5);
        } else {
          a_.addpd(0, 5);
        }
        outward();
        a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        if (!elide_) {
          a_.jmp(l_done);
          a_.bind(l_emp);
          a_.movapd_load(0, jit::kRbp, kOffEmpty);
          a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
          a_.bind(l_done);
        }
        fwd_cache_ = f.dst;
        return;
      }
      case ir::FwdKind::kNeg: {
        // Unary minus passes an empty operand through with its original
        // bits (no canonicalization) — jump straight to the store.
        const std::size_t l_store = elide_ ? 0 : a_.new_label();
        fwd_load(0, f.a);
        if (!elide_) empty_check(0, l_store);
        a_.shufpd(0, 0, 1);
        a_.movapd_load(1, jit::kRbp, kOffSignMask);
        a_.xorpd(0, 1);
        if (!elide_) a_.bind(l_store);
        a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        fwd_cache_ = f.dst;
        return;
      }
      case ir::FwdKind::kMulConst: {
        // tkern::mul_const: empty → empty, exact [0,0] → exact [0,0]
        // (unwidened), else two-endpoint product with outward rounding;
        // w < 0 swaps the lanes before rounding.
        const std::size_t k = static_cast<std::size_t>(f.exponent);
        const MulConstSpec& sp = tape_.mul_const()[k];
        const std::size_t l_emp = elide_ ? 0 : a_.new_label();
        const std::size_t l_zero = a_.new_label();
        const std::size_t l_done = a_.new_label();
        fwd_load(0, sp.var_slot);
        if (!elide_) empty_check(0, l_emp);
        a_.movapd_rr(1, 0);
        a_.xorpd(2, 2);
        a_.cmppd(1, 2, 0);
        a_.movmskpd(jit::kRax, 1);
        a_.cmp_eax_imm8(3);
        a_.jcc(jit::kCcEq, l_zero);
        a_.mulpd_mem(0, jit::kRbp, mc_off(k));  // × {w, w}
        if (sp.w < 0.0) a_.shufpd(0, 0, 1);
        outward();
        a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        a_.jmp(l_done);
        a_.bind(l_zero);
        a_.xorpd(0, 0);
        a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        if (!elide_) {
          a_.jmp(l_done);
          a_.bind(l_emp);
          a_.movapd_load(0, jit::kRbp, kOffEmpty);
          a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
        }
        a_.bind(l_done);
        fwd_cache_ = f.dst;
        return;
      }
      case ir::FwdKind::kGeneric: {
        if (f.op == expr::Op::kMul && f.b != kNoSlot) {
          emit_fwd_mul(f);
          return;
        }
        fwd_cache_ = kNoCache;  // the callback clobbers every register
        a_.lea(jit::kRdi, jit::kRbx, slot_off(f.dst));
        a_.lea(jit::kRsi, jit::kRbx, slot_off(f.a));
        if (f.b == kNoSlot) {
          if (const FwdUnaryFn fn = fwd_unary_fn(f.op)) {
            a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(fn));
            a_.call_reg(jit::kRax);
            emit_fwd_shadow(f);
            return;
          }
          a_.xor_edx_edx();
        } else {
          a_.lea(jit::kRdx, jit::kRbx, slot_off(f.b));
          if (const FwdBinaryFn fn = fwd_binary_fn(f.op)) {
            a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(fn));
            a_.call_reg(jit::kRax);
            return;
          }
        }
        a_.mov_r32_imm(jit::kRcx, static_cast<std::uint32_t>(f.op));
        a_.mov_r32_imm(jit::kR8,
                       static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(f.exponent)));
        a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(&fwd_generic));
        a_.call_reg(jit::kRax);
        if (f.b == kNoSlot) emit_fwd_shadow(f);
        return;
      }
    }
  }

  /// Forward general multiply, bit-identical to interval::operator*:
  /// empty operand → canonical empty, exact [0,0] operand → exact [0,0]
  /// unwidened, else the four-product core with mul_ep's 0·∞ = 0 zero
  /// masking and fused outward rounding.
  void emit_fwd_mul(const ir::FwdInstr& f) {
    const std::size_t l_emp = elide_ ? 0 : a_.new_label();
    const std::size_t l_zero = a_.new_label();
    const std::size_t l_done = a_.new_label();
    fwd_load(6, f.a);  // va
    fwd_load(4, f.b);  // vb
    if (!elide_) {
      empty_check(6, l_emp);
      empty_check(4, l_emp);
    }
    a_.xorpd(1, 1);
    a_.movapd_rr(0, 6);
    a_.cmppd(0, 1, 0);
    a_.movmskpd(jit::kRax, 0);
    a_.cmp_eax_imm8(3);
    a_.jcc(jit::kCcEq, l_zero);  // a == [0,0]
    a_.movapd_rr(0, 4);
    a_.cmppd(0, 1, 0);
    a_.movmskpd(jit::kRax, 0);
    a_.cmp_eax_imm8(3);
    a_.jcc(jit::kCcEq, l_zero);  // b == [0,0]
    mul4_core();
    a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
    a_.jmp(l_done);
    a_.bind(l_zero);
    a_.xorpd(0, 0);
    a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
    if (!elide_) {
      a_.jmp(l_done);
      a_.bind(l_emp);
      a_.movapd_load(0, jit::kRbp, kOffEmpty);
      a_.movupd_store(jit::kRbx, slot_off(f.dst), 0);
    }
    a_.bind(l_done);
    fwd_cache_ = f.dst;
  }

  /// The four-product heart of interval::operator*: operands va = xmm6,
  /// vb = xmm4 (both nonempty, neither [0,0]); result [lo, hi] outward-
  /// rounded in xmm0. Products p14 = va·vb and p23 = va·swap(vb), each
  /// lane zeroed when either factor lane is ±0 (the mul_ep convention),
  /// then the min/max reduction. Clobbers xmm0-xmm5, preserves xmm6.
  void mul4_core() {
    a_.movapd_rr(5, 4);
    a_.shufpd(5, 5, 1);  // vbs
    a_.xorpd(0, 0);
    a_.movapd_rr(1, 6);
    a_.cmppd(1, 0, 0);  // za
    a_.movapd_rr(2, 4);
    a_.cmppd(2, 0, 0);
    a_.orpd(2, 1);  // za | zb
    a_.movapd_rr(3, 5);
    a_.cmppd(3, 0, 0);
    a_.orpd(3, 1);   // za | zbs
    a_.mulpd(4, 6);  // va·vb
    a_.andnpd(2, 4);  // p14
    a_.mulpd(5, 6);  // va·vbs
    a_.andnpd(3, 5);  // p23
    a_.movapd_rr(0, 2);
    a_.minpd(0, 3);  // mn
    a_.maxpd(2, 3);  // mx
    a_.movapd_rr(1, 0);
    a_.shufpd(1, 1, 1);
    a_.minpd(0, 1);  // lane0 = lo
    a_.movapd_rr(3, 2);
    a_.shufpd(3, 3, 1);
    a_.maxpd(2, 3);     // lane1 = hi (same _mm_max_pd operand order)
    a_.movsd_rr(2, 0);  // _mm_move_sd(hi, lo) = [lo, hi]
    a_.movapd_rr(0, 2);
    outward();
  }

  /// Register holding \p slot's current value, or -1. The backward
  /// emitter tracks the last narrowed slots (xmm2 always, xmm4 inside
  /// kAdd pairs) so chained projections — the add-ladder common case —
  /// skip the store→load round trip on the requirement reload.
  int bwd_cached_reg(std::size_t slot) const {
    if (slot == bwd_cache2_) return 2;
    if (slot == bwd_cache4_) return 4;
    return -1;
  }

  /// One refine_sub leg: target ∩= outward(r − swap(sib)), with r held
  /// in xmm6 across the whole instruction. \p sib_reg ≥ 0 takes the
  /// sibling from that register (same bits as its slot) instead of
  /// reloading it. The store is elided for demoted legs; the emptiness
  /// check — the observable part — never is. Narrowed target stays in
  /// xmm2.
  void refine_leg(TapeSlot target, TapeSlot sib, int sib_reg, bool store,
                  std::size_t l_empty) {
    if (sib_reg >= 0) {
      a_.movapd_rr(5, sib_reg);
    } else {
      a_.movupd_load(5, jit::kRbx, slot_off(sib));
    }
    a_.shufpd(5, 5, 1);
    a_.movapd_rr(0, 6);
    a_.subpd(0, 5);
    outward();
    a_.movupd_load(1, jit::kRbx, slot_off(target));  // tv
    a_.movapd_rr(2, 1);
    a_.minpd(2, 0);    // min(tv, diff)
    a_.maxpd(1, 0);    // max(tv, diff)
    a_.movsd_rr(2, 1);  // [max.lo, min.hi]
    if (store) a_.movupd_store(jit::kRbx, slot_off(target), 2);
    empty_check(2, l_empty);
  }

  /// The kMulConst variable leg: x ∩= mul_rec(r, rec, w > 0), with r in
  /// xmm6. The reciprocal multiply is an instruction-for-instruction
  /// translation of tkern::mul_rec — exact [0,0] requirement short-
  /// circuits to [0,0], else one endpoint-pair product per reciprocal
  /// bound with mul_ep zero masking, min/max selection by the sign of w,
  /// and outward rounding. The intersect replicates the scalar ternaries
  /// like the root feasibility intersections above.
  void mulconst_refine(std::size_t k, const MulConstSpec& sp,
                       std::size_t l_empty) {
    const std::size_t l_zero = a_.new_label();
    const std::size_t l_isect = a_.new_label();
    a_.movapd_rr(0, 6);
    a_.xorpd(1, 1);
    a_.cmppd(0, 1, 0);
    a_.movmskpd(jit::kRax, 0);
    a_.cmp_eax_imm8(3);
    a_.jcc(jit::kCcEq, l_zero);  // r == [0,0] → exact [0,0]
    a_.movapd_load(4, jit::kRbp, rec_off(k));
    a_.movapd_rr(5, 4);
    a_.shufpd(5, 5, 0);  // [rec.lo, rec.lo]
    a_.shufpd(4, 4, 3);  // [rec.hi, rec.hi]
    a_.xorpd(0, 0);
    a_.movapd_rr(1, 6);
    a_.cmppd(1, 0, 0);  // zr
    a_.movapd_rr(2, 5);
    a_.cmppd(2, 0, 0);
    a_.orpd(2, 1);  // zr | z(rec.lo)
    a_.movapd_rr(3, 4);
    a_.cmppd(3, 0, 0);
    a_.orpd(3, 1);   // zr | z(rec.hi)
    a_.mulpd(5, 6);  // r·rec.lo per lane
    a_.andnpd(2, 5);  // mul_ep-masked p1
    a_.mulpd(4, 6);  // r·rec.hi per lane
    a_.andnpd(3, 4);  // mul_ep-masked p2
    a_.movapd_rr(0, 2);
    a_.minpd(0, 3);  // per-lane min of the two products
    a_.maxpd(2, 3);  // per-lane max
    // w > 0: lo = min over r.lo products (lane0), hi = max over r.hi
    // products (lane1); w < 0 takes the opposite lanes.
    a_.shufpd(0, 2, sp.w > 0.0 ? 0b10 : 0b01);
    outward();
    a_.jmp(l_isect);
    a_.bind(l_zero);
    a_.xorpd(0, 0);
    a_.bind(l_isect);
    // x ∩= xmm0; an emptied (or already-empty) slot aborts, making the
    // non-canonical stored bits unobservable — same as the interpreter.
    a_.movupd_load(1, jit::kRbx, slot_off(sp.var_slot));
    a_.movapd_rr(2, 1);
    a_.maxpd(1, 0);  // lane0: x.lo > m.lo ? x.lo : m.lo
    a_.minpd(2, 0);  // lane1: x.hi < m.hi ? x.hi : m.hi
    a_.movsd_rr(2, 1);
    a_.movupd_store(jit::kRbx, slot_off(sp.var_slot), 2);
    empty_check(2, l_empty);
  }

  /// Out-of-line w ∈ r / x feasibility check (r12 holds &bwd_cqf). The
  /// spec lives in the tape's immutable mul_const_ vector; the jit holds
  /// the tape alive, so the address is stable.
  void cqf_call(TapeSlot dst, const MulConstSpec& sp, std::size_t l_empty) {
    a_.lea(jit::kRdi, jit::kRbx, slot_off(dst));
    a_.lea(jit::kRsi, jit::kRbx, slot_off(sp.var_slot));
    a_.mov_ri64(jit::kRdx, reinterpret_cast<std::uint64_t>(&sp));
    a_.call_reg(jit::kR12);
    a_.test_eax_eax();
    a_.jcc(jit::kCcEq, l_empty);
  }

  /// w ∈ r / x feasibility with the two dominant extended_div branches
  /// inline and the residual shapes routed to bwd_cqf. r is in xmm6
  /// (nonempty — the loop head checked it); x is nonempty too, because
  /// r is this node's narrowed forward value: an empty x would have made
  /// the forward value empty, and every backward narrowing that empties
  /// a slot aborts before reaching this instruction.
  ///
  /// Fast path 1 (x sign-definite): extended_div takes q1 = r / x =
  /// r · [prev(1/x.hi), next(1/x.lo)] — emitted as divpd + the shared
  /// outward and four-product cores, then a packed lo ≤ w ≤ hi test.
  /// r == [0,0] (operator*'s exact-zero special case) goes out of line.
  /// Fast path 2 (0 ∈ x and 0 ∈ r): q1 is entire, so any finite w is
  /// feasible — four ucomisd tests and no arithmetic. The sign tests
  /// route NaN to the slow path, keeping them conservative.
  /// Residual (x touches zero with r sign-definite): ray/two-piece
  /// branches — out of line. Preserves xmm6 on both fast paths.
  /// \p x_reg ≥ 0 takes x from that register (same bits as its slot —
  /// the slow-path callback still reads the slot) instead of loading it.
  void cqf_inline(std::size_t k, TapeSlot dst, const MulConstSpec& sp,
                  int x_reg, std::size_t l_empty) {
    const std::size_t l_fast = a_.new_label();
    const std::size_t l_slow = a_.new_label();
    const std::size_t l_after = a_.new_label();
    if (x_reg >= 0) {
      if (x_reg != 4) a_.movapd_rr(4, x_reg);
    } else {
      a_.movupd_load(4, jit::kRbx, slot_off(sp.var_slot));
    }
    a_.xorpd(1, 1);
    a_.ucomisd(4, 1);  // x.lo ? 0
    a_.jcc(jit::kCcAbove, l_fast);  // x.lo > 0
    a_.movapd_rr(0, 4);
    a_.unpckhpd(0, 0);
    a_.ucomisd(1, 0);  // 0 ? x.hi
    a_.jcc(jit::kCcAbove, l_fast);  // x.hi < 0
    // 0 ∈ x (x nonempty). Feasible iff 0 ∈ r, else residual.
    a_.ucomisd(1, 6);  // 0 ? r.lo
    a_.jcc(jit::kCcBelow, l_slow);  // 0 < r.lo (or NaN)
    a_.movapd_rr(0, 6);
    a_.unpckhpd(0, 0);
    a_.ucomisd(0, 1);  // r.hi ? 0
    a_.jcc(jit::kCcBelow, l_slow);  // r.hi < 0 (or NaN)
    a_.jmp(l_after);  // 0 ∈ r → q1 entire → feasible

    a_.bind(l_fast);
    a_.movapd_rr(0, 6);
    a_.cmppd(0, 1, 0);
    a_.movmskpd(jit::kRax, 0);
    a_.cmp_eax_imm8(3);
    a_.jcc(jit::kCcEq, l_slow);  // r == [0,0] → exact-zero q1
    a_.movapd_load(0, jit::kRbp, kOffOnePair);
    a_.movapd_rr(1, 4);
    a_.shufpd(1, 1, 1);  // [x.hi, x.lo]
    a_.divpd(0, 1);      // [1/x.hi, 1/x.lo]
    outward();           // rec = [prev(1/x.hi), next(1/x.lo)]
    a_.movapd_rr(4, 0);
    mul4_core();  // q1 = r · rec, outward-rounded, in xmm0
    a_.movapd_load(4, jit::kRbp, mc_off(k));  // {w, w}
    a_.movapd_rr(1, 0);
    a_.cmppd(1, 4, 2);       // lane0: q1.lo ≤ w
    a_.cmppd(4, 0, 2);       // lane1: w ≤ q1.hi
    a_.shufpd(1, 4, 0b10);
    a_.movmskpd(jit::kRax, 1);
    a_.cmp_eax_imm8(3);
    a_.jcc(jit::kCcNe, l_empty);  // w ∉ q1 → infeasible
    a_.jmp(l_after);

    a_.bind(l_slow);
    cqf_call(dst, sp, l_empty);
    a_.bind(l_after);
  }

  void emit_bwd(const ir::BwdInstr& b, std::size_t l_empty) {
    // Requirement handling. Without check elision every kind loads r and
    // emptiness-aborts, exactly like the interpreter's reverse loop
    // head. With elision the check is provably dead (any narrowing that
    // emptied a slot already aborted), so r is materialized only for the
    // kinds whose inline body consumes it — from a tracked register when
    // a previous projection just narrowed this slot, dodging the
    // store→load round trip on chained projections.
    const bool inline_neg = b.kind == ir::BwdKind::kGeneric &&
                            b.op == expr::Op::kNeg && b.b == kNoSlot;
    const bool needs_r = b.kind == ir::BwdKind::kAdd ||
                         b.kind == ir::BwdKind::kMulConst || inline_neg;
    if (!elide_ || needs_r) {
      const int rr = bwd_cached_reg(b.dst);
      if (rr >= 0) {
        a_.movapd_rr(6, rr);
      } else {
        a_.movupd_load(6, jit::kRbx, slot_off(b.dst));
      }
      if (!elide_) empty_check(6, l_empty);
    }
    switch (b.kind) {
      case ir::BwdKind::kCheckOnly:
        return;
      case ir::BwdKind::kAdd:
        refine_leg(b.a, b.b, bwd_cached_reg(b.b), /*store=*/true, l_empty);
        a_.movapd_rr(4, 2);  // narrowed a — the second leg's sibling
        refine_leg(b.b, b.a, /*sib_reg=*/4, b.store_b, l_empty);
        bwd_cache4_ = b.a;
        bwd_cache2_ = b.store_b ? b.b : kNoCache;
        return;
      case ir::BwdKind::kMulConst: {
        // The interpreter's kSpecMulConst case, with the reciprocal-
        // multiply leg inline and only the extended-division membership
        // test out of line; the var_is_a leg order is preserved exactly
        // (it decides which emptiness proof fires first).
        const std::size_t k = static_cast<std::size_t>(b.exponent);
        const MulConstSpec& sp = tape_.mul_const()[k];
        if (sp.var_is_a) {
          mulconst_refine(k, sp, l_empty);
          // mulconst_refine leaves the narrowed (and stored) x in xmm2.
          cqf_inline(k, b.dst, sp, /*x_reg=*/2, l_empty);
          bwd_cache2_ = bwd_cache4_ = kNoCache;
        } else {
          cqf_inline(k, b.dst, sp, bwd_cached_reg(sp.var_slot), l_empty);
          // The slow path clobbers every xmm register — reload r.
          a_.movupd_load(6, jit::kRbx, slot_off(b.dst));
          mulconst_refine(k, sp, l_empty);
          bwd_cache2_ = sp.var_slot;  // narrowed x, stored, in xmm2
          bwd_cache4_ = kNoCache;
        }
        return;
      }
      case ir::BwdKind::kGeneric: {
        if (inline_neg) {
          // project_node kNeg: a ∩= [-r.hi, -r.lo]. The negation is an
          // exact lane swap + sign flip (no rounding); the intersect
          // replicates the scalar ternaries, and an emptied (or already-
          // empty) operand aborts before its bits become observable.
          a_.movapd_rr(0, 6);
          a_.shufpd(0, 0, 1);
          a_.movapd_load(1, jit::kRbp, kOffSignMask);
          a_.xorpd(0, 1);
          a_.movupd_load(1, jit::kRbx, slot_off(b.a));
          a_.movapd_rr(2, 1);
          a_.maxpd(1, 0);  // lane0: a.lo > n.lo ? a.lo : n.lo
          a_.minpd(2, 0);  // lane1: a.hi < n.hi ? a.hi : n.hi
          a_.movsd_rr(2, 1);
          a_.movupd_store(jit::kRbx, slot_off(b.a), 2);
          empty_check(2, l_empty);
          bwd_cache2_ = b.a;  // xmm4 untouched — cache4 stays valid
          return;
        }
        bwd_cache2_ = bwd_cache4_ = kNoCache;  // callbacks clobber xmm
        const std::int32_t sh = b.b == kNoSlot ? shadow_base(b.dst) : -1;
        if (sh >= 0) {
          // No-narrow skip. When the requirement r is still bitwise the
          // node's forward value F and the operand a is bitwise what the
          // forward sweep read, every x ∈ a has op(x) ∈ F = r, so the
          // projection cannot prune a — the callback is provably a no-op
          // and is skipped. That makes the whole projection free on
          // no-change passes, which dominate fixpoint loops. Bitwise
          // (integer) compares keep the trigger exact; the residual bit
          // hazards go to the real projection: an a bound of ±0 (whose
          // value-equal intersect could rewrite the sign bit) and NaN
          // bounds in a or r (which defeat the containment argument).
          const std::size_t l_call = a_.new_label();
          const std::size_t l_after = a_.new_label();
          a_.movupd_load(0, jit::kRbx, slot_off(b.dst));
          a_.movupd_load(1, jit::kRbx,
                         slot_off(static_cast<std::size_t>(sh)));
          a_.pcmpeqd(1, 0);
          a_.pmovmskb(jit::kRax, 1);
          a_.cmp_eax_imm32(0xFFFF);
          a_.jcc(jit::kCcNe, l_call);  // r narrowed since the sweep
          a_.movupd_load(2, jit::kRbx, slot_off(b.a));
          a_.movupd_load(3, jit::kRbx,
                         slot_off(static_cast<std::size_t>(sh) + 1));
          a_.pcmpeqd(3, 2);
          a_.pmovmskb(jit::kRax, 3);
          a_.cmp_eax_imm32(0xFFFF);
          a_.jcc(jit::kCcNe, l_call);  // a narrowed since the sweep
          a_.xorpd(4, 4);
          a_.movapd_rr(5, 2);
          a_.cmppd(5, 4, 0);  // a == ±0 lanes
          a_.movapd_rr(3, 2);
          a_.cmppd(3, 2, 3);  // NaN lanes of a
          a_.orpd(5, 3);
          a_.movapd_rr(1, 0);
          a_.cmppd(1, 0, 3);  // NaN lanes of r
          a_.orpd(5, 1);
          a_.movmskpd(jit::kRax, 5);
          a_.test_eax_eax();
          a_.jcc(jit::kCcNe, l_call);
          a_.jmp(l_after);
          a_.bind(l_call);
          a_.lea(jit::kRdi, jit::kRbx, slot_off(b.dst));
          a_.lea(jit::kRsi, jit::kRbx, slot_off(b.a));
          // Eligible ops all have direct callbacks (skip_eligible_unary
          // is a subset of bwd_unary_fn's table).
          const BwdUnaryFn fn = bwd_unary_fn(b.op);
          a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(fn));
          a_.call_reg(jit::kRax);
          a_.test_eax_eax();
          a_.jcc(jit::kCcEq, l_empty);
          a_.bind(l_after);
          return;
        }
        a_.lea(jit::kRdi, jit::kRbx, slot_off(b.dst));
        a_.lea(jit::kRsi, jit::kRbx, slot_off(b.a));
        if (b.b == kNoSlot) {
          if (const BwdUnaryFn fn = bwd_unary_fn(b.op)) {
            a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(fn));
            a_.call_reg(jit::kRax);
            a_.test_eax_eax();
            a_.jcc(jit::kCcEq, l_empty);
            return;
          }
          a_.xor_edx_edx();
        } else {
          a_.lea(jit::kRdx, jit::kRbx, slot_off(b.b));
          if (const BwdBinaryFn fn = bwd_binary_fn(b.op)) {
            a_.mov_ri64(jit::kRax, reinterpret_cast<std::uint64_t>(fn));
            a_.call_reg(jit::kRax);
            a_.test_eax_eax();
            a_.jcc(jit::kCcEq, l_empty);
            return;
          }
        }
        a_.mov_r32_imm(jit::kRcx, static_cast<std::uint32_t>(b.op));
        a_.mov_r32_imm(jit::kR8,
                       static_cast<std::uint32_t>(
                           static_cast<std::int32_t>(b.exponent)));
        a_.mov_ri64(jit::kRax,
                    reinterpret_cast<std::uint64_t>(&bwd_generic));
        a_.call_reg(jit::kRax);
        a_.test_eax_eax();
        a_.jcc(jit::kCcEq, l_empty);
        return;
      }
    }
  }

  jit::X64Assembler a_;
  const Hc4Tape& tape_;
  const ir::Program& prog_;
  std::uint64_t table_addr_;
  std::size_t nmc_;
  std::size_t nroots_;
  bool elide_;
  const std::vector<std::int32_t>& shadow_of_;  ///< slot → shadow index
  std::size_t fwd_cache_ = kNoCache;   ///< slot whose value sits in xmm0
  std::size_t bwd_cache2_ = kNoCache;  ///< slot whose value sits in xmm2
  std::size_t bwd_cache4_ = kNoCache;  ///< slot whose value sits in xmm4
};

/// Ops whose interval semantics map nonempty inputs to nonempty outputs
/// (the check-elision closure). kDiv/kLog/kSqrt/kTan/kAtan/kPow can
/// produce empty results from nonempty operands (domain clipping or
/// division blow-ups) and keep the checked emission.
bool op_preserves_nonempty(expr::Op op) {
  using expr::Op;
  switch (op) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kNeg:
    case Op::kSin:
    case Op::kCos:
    case Op::kExp:
    case Op::kSqr:
    case Op::kTanh:
    case Op::kSigmoid:
    case Op::kRelu:
    case Op::kAbs:
    case Op::kMin:
    case Op::kMax:
      return true;
    default:
      return false;
  }
}

}  // namespace

// --- Hc4Jit -----------------------------------------------------------------

std::shared_ptr<const Hc4Jit> Hc4Jit::compile(
    std::shared_ptr<const Hc4Tape> tape) {
  // Degradation-ladder rung: a throw here (injected or real) is caught
  // by the contractor setup, which falls back to the tape interpreter.
  core::FaultRegistry::check(core::FaultPoint::kJitCompile);
  if (!jit::ExecMemory::supported()) {
    throw jit::JitUnavailable("jit: unsupported host (x86-64 Linux/macOS only)");
  }
  const std::size_t nroots = tape->root_slots().size();
  if ((tape->num_slots() + nroots) * sizeof(Interval) >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw jit::JitUnavailable("jit: register file exceeds disp32 range");
  }

  const bool dump = core::RuntimeConfig::active().jit_dump;
  if (dump) tape->dump(std::cerr);
  ir::Program prog = ir::Program::from_tape(*tape);
  prog.optimize(*tape);

  // Constant table: fixed masks, then {w, w} per mul-const spec, then
  // the per-root feasible intervals, then the precompiled reciprocal
  // interval per mul-const spec (the backward sweep's multiply operand).
  const std::size_t nmc = tape->mul_const().size();
  linalg::AlignedDoubles table =
      linalg::aligned_doubles(14 + 2 * (2 * nmc + nroots));
  double* d = table.get();
  const double inf = std::numeric_limits<double>::infinity();
  d[0] = inf;
  d[1] = -inf;
  d[2] = d[3] = std::bit_cast<double>(std::uint64_t{1});
  d[4] = 0.0;
  d[5] = std::bit_cast<double>(~std::uint64_t{0});
  d[6] = std::bit_cast<double>(std::uint64_t{0x8000000000000001ULL});
  d[7] = std::bit_cast<double>(std::uint64_t{1});
  d[8] = -inf;
  d[9] = inf;
  d[10] = d[11] = -0.0;
  d[12] = d[13] = 1.0;
  for (std::size_t k = 0; k < nmc; ++k) {
    d[14 + 2 * k] = d[15 + 2 * k] = tape->mul_const()[k].w;
  }
  for (std::size_t i = 0; i < nroots; ++i) {
    d[14 + 2 * nmc + 2 * i] = tape->root_feasible()[i].lo();
    d[15 + 2 * nmc + 2 * i] = tape->root_feasible()[i].hi();
  }
  for (std::size_t k = 0; k < nmc; ++k) {
    d[14 + 2 * (nmc + nroots) + 2 * k] = tape->mul_const()[k].rec.lo();
    d[15 + 2 * (nmc + nroots) + 2 * k] = tape->mul_const()[k].rec.hi();
  }

  // Check-elision closure: when every forward op maps nonempty operands
  // to nonempty results and every preloaded constant is nonempty, no
  // slot can go empty mid-sweep (the wrapper guards the one remaining
  // input — empty leaves — by routing those boxes to the interpreter),
  // so the emitter drops the provably-dead emptiness checks.
  bool closed = true;
  for (const Interval& c : tape->const_values()) {
    if (c.is_empty()) closed = false;
  }
  for (const auto& [slot, v] : prog.folded_consts) {
    if (v.is_empty()) closed = false;
  }
  for (const ir::FwdInstr& f : prog.forward) {
    if (f.kind == ir::FwdKind::kGeneric && !op_preserves_nonempty(f.op)) {
      closed = false;
    }
  }

  // Between calls only the slots some store can touch go stale: the
  // backward projection targets and the root-feasibility intersections
  // (the forward sweep rewrites every compute slot from scratch). When
  // none of those is a constant (leaf or folded) slot, the per-call
  // constant re-seed in load_leaves is dead and only the variable
  // leaves need copying — a measurable win on contraction-heavy loops.
  const std::size_t nconst = tape->const_values().size();
  auto is_const_slot = [&](TapeSlot s) {
    if (static_cast<std::size_t>(s) < nconst) return true;
    for (const auto& [slot, v] : prog.folded_consts) {
      if (slot == s) return true;
    }
    return false;
  };
  bool reseed = false;
  for (const ir::BwdInstr& b : prog.backward) {
    switch (b.kind) {
      case ir::BwdKind::kCheckOnly:
        break;
      case ir::BwdKind::kAdd:
        if (is_const_slot(b.a) || (b.store_b && is_const_slot(b.b))) {
          reseed = true;
        }
        break;
      case ir::BwdKind::kMulConst:
        if (is_const_slot(
                tape->mul_const()[static_cast<std::size_t>(b.exponent)]
                    .var_slot)) {
          reseed = true;
        }
        break;
      case ir::BwdKind::kGeneric:
        if (is_const_slot(b.a) || (b.b != kNoSlot && is_const_slot(b.b))) {
          reseed = true;
        }
        break;
    }
  }
  for (const TapeSlot r : tape->root_slots()) {
    if (is_const_slot(r)) reseed = true;
  }

  // Shadow pairs for the backward no-narrow skip (see emit_bwd): one
  // (forward value, operand) snapshot per eligible transcendental
  // projection, appended after the root tail. Armed only under check
  // elision — the skip's containment argument needs nonempty proper
  // operands, which the closure (plus the wrapper's empty-leaf guard)
  // guarantees.
  std::vector<std::int32_t> shadow_of(tape->num_slots(), -1);
  std::size_t nshadow = 0;
  if (closed) {
    for (const ir::BwdInstr& b : prog.backward) {
      if (b.kind == ir::BwdKind::kGeneric && b.b == kNoSlot &&
          skip_eligible_unary(b.op)) {
        shadow_of[b.dst] = static_cast<std::int32_t>(
            tape->num_slots() + nroots + 2 * nshadow);
        ++nshadow;
      }
    }
  }
  if ((tape->num_slots() + nroots + 2 * nshadow) * sizeof(Interval) >
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw jit::JitUnavailable("jit: register file exceeds disp32 range");
  }

  Emitter em(*tape, prog, d, closed, shadow_of);
  const std::size_t fwd_off = em.emit_forward();
  const std::size_t bwd_off = em.emit_backward();

  std::shared_ptr<const Hc4Jit> jit(
      new Hc4Jit(std::move(tape), std::move(prog), std::move(table), em.code(),
                 fwd_off, bwd_off, closed, reseed, nshadow));
  if (dump) {
    std::cerr << "jit: " << jit->code_size() << " bytes (forward @" << fwd_off
              << ", backward @" << bwd_off
              << (closed ? ", checks elided" : ", checks emitted") << ")\n";
  }
  return jit;
}

Hc4Jit::Hc4Jit(std::shared_ptr<const Hc4Tape> tape, ir::Program prog,
               linalg::AlignedDoubles data,
               const std::vector<std::uint8_t>& code, std::size_t fwd_off,
               std::size_t bwd_off, bool needs_nonempty_leaves,
               bool reseed_consts, std::size_t shadow_pairs)
    : tape_(std::move(tape)),
      prog_(std::move(prog)),
      data_(std::move(data)),
      exec_(code.data(), code.size()),
      forward_fn_(reinterpret_cast<JitFn>(
          reinterpret_cast<std::uintptr_t>(exec_.entry(fwd_off)))),
      backward_fn_(reinterpret_cast<JitFn>(
          reinterpret_cast<std::uintptr_t>(exec_.entry(bwd_off)))),
      code_size_(code.size()),
      needs_nonempty_leaves_(needs_nonempty_leaves),
      reseed_consts_(reseed_consts),
      shadow_pairs_(shadow_pairs) {}

/// True iff some variable leaf of \p box is empty — the one input shape
/// the check-elided code must not see.
static bool has_empty_leaf(const interval::Box& box,
                           const std::vector<std::uint32_t>& dims) {
  for (const std::uint32_t dim : dims) {
    if (box[dim].is_empty()) return true;
  }
  return false;
}

std::size_t Hc4Jit::register_count() const {
  return tape_->num_slots() + tape_->root_slots().size() + 2 * shadow_pairs_;
}

Hc4Jit::Registers Hc4Jit::make_registers() const {
  Registers regs(register_count());
  std::copy(tape_->const_values().begin(), tape_->const_values().end(),
            regs.begin());
  for (const auto& [slot, v] : prog_.folded_consts) regs[slot] = v;
  return regs;
}

void Hc4Jit::load_leaves(const interval::Box& box, Registers& regs) const {
  // Same re-seed protocol as the interpreter — one contiguous copy for
  // the leaf constants — plus the slots the fold pass turned constant
  // (their backward projections narrow them like any leaf). Skipped
  // entirely when compile() proved no store can touch a constant slot;
  // the values seeded by make_registers then persist across calls.
  if (reseed_consts_) {
    std::copy(tape_->const_values().begin(), tape_->const_values().end(),
              regs.begin());
    for (const auto& [slot, v] : prog_.folded_consts) regs[slot] = v;
  }
  Interval* const var_regs = regs.data() + tape_->const_values().size();
  const std::vector<std::uint32_t>& dims = tape_->var_dims();
  for (std::size_t i = 0; i < dims.size(); ++i) {
    var_regs[i] = box[dims[i]];
  }
}

ContractResult Hc4Jit::contract(interval::Box& box, Registers& regs,
                                std::vector<Interval>* fwd_roots) const {
  if (needs_nonempty_leaves_ && has_empty_leaf(box, tape_->var_dims())) {
    // Cold path: delegate to the interpreter, bit-identical by contract.
    Hc4Tape::Registers tregs = tape_->make_registers();
    return tape_->contract(box, tregs, fwd_roots);
  }
  if (regs.size() != register_count()) regs = make_registers();
  load_leaves(box, regs);
  const int fwd_ok = forward_fn_(regs.data());

  // The tail buffer holds every root's pre-intersection enclosure even
  // when a feasibility intersect aborted — mirror the interpreter, which
  // fills fwd_roots before its intersect loop.
  if (fwd_roots != nullptr) {
    const std::size_t n = tape_->root_slots().size();
    fwd_roots->resize(n);
    const Interval* const tail = regs.data() + tape_->num_slots();
    for (std::size_t i = 0; i < n; ++i) (*fwd_roots)[i] = tail[i];
  }
  if (fwd_ok == 0) return ContractResult::kEmpty;

  core::FaultRegistry::check(core::FaultPoint::kHc4Backward);
  if (backward_fn_(regs.data()) == 0) return ContractResult::kEmpty;

  // Read back the narrowed variable slots.
  bool changed = false;
  const std::vector<TapeSlot>& vslots = tape_->var_slots();
  const std::vector<std::uint32_t>& dims = tape_->var_dims();
  for (std::size_t i = 0; i < vslots.size(); ++i) {
    const std::uint32_t dim = dims[i];
    const Interval narrowed = intersect(box[dim], regs[vslots[i]]);
    if (narrowed.is_empty()) return ContractResult::kEmpty;
    if (!(narrowed == box[dim])) {
      box[dim] = narrowed;
      changed = true;
    }
  }
  return changed ? ContractResult::kContracted : ContractResult::kNoChange;
}

void Hc4Jit::eval_roots(const interval::Box& box, Registers& regs,
                        std::vector<Interval>& out) const {
  if (needs_nonempty_leaves_ && has_empty_leaf(box, tape_->var_dims())) {
    Hc4Tape::Registers tregs = tape_->make_registers();
    tape_->eval_roots(box, tregs, out);
    return;
  }
  if (regs.size() != register_count()) regs = make_registers();
  load_leaves(box, regs);
  (void)forward_fn_(regs.data());  // tail is complete even on abort
  const std::size_t n = tape_->root_slots().size();
  out.resize(n);
  const Interval* const tail = regs.data() + tape_->num_slots();
  for (std::size_t i = 0; i < n; ++i) out[i] = tail[i];
}

}  // namespace bcert::smt
