#include "src/smt/tape.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <stdexcept>

#include "src/core/fault.h"
#include "src/expr/eval.h"
#include "src/smt/jit/hc4_jit.h"
#include "src/smt/projections.h"
#include "src/smt/tape_kernels.h"

namespace bcert::smt {

using expr::ExprId;
using expr::kNoExpr;
using expr::Node;
using expr::Op;
using interval::Interval;
using tkern::const_quotient_feasible;
using tkern::mul_rec;
#if BCERT_TAPE_SSE2
using tkern::add_iv;
using tkern::load_iv;
using tkern::refine_sub;
#endif

Hc4Tape::Hc4Tape(const expr::ExprPool& pool, Conjunction conjunction)
    : conjunction_(std::move(conjunction)) {
  // Degradation-ladder rung: a throw here is caught by the ICP
  // contractor setup, which falls back to the tree backend.
  core::FaultRegistry::check(core::FaultPoint::kTapeCompile);
  std::vector<ExprId> roots;
  roots.reserve(conjunction_.size());
  for (const Constraint& k : conjunction_.constraints) roots.push_back(k.lhs);

  // Borrow the evaluator's topological schedule so the *instruction
  // order* — and therefore every arithmetic step — matches the
  // tree-walking path exactly (the differential fuzz suite relies on
  // this). Register numbering is free to differ: slots are laid out as
  // [constants | variables | interior nodes], each group in schedule
  // order, so the leaf loads are contiguous (one memcpy re-seeds every
  // constant) and the forward sweep writes a dense ascending range.
  const expr::Evaluator ev(pool, std::move(roots));
  const std::vector<ExprId>& schedule = ev.schedule();
  num_slots_ = schedule.size();

  std::vector<TapeSlot> slot_of(schedule.size());
  std::size_t num_consts = 0, num_vars = 0;
  for (const ExprId id : schedule) {
    const Op op = pool.node(id).op;
    num_consts += op == Op::kConst;
    num_vars += op == Op::kVar;
  }
  std::size_t next_const = 0;
  std::size_t next_var = num_consts;
  std::size_t next_interior = num_consts + num_vars;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Op op = pool.node(schedule[i]).op;
    std::size_t& counter = op == Op::kConst  ? next_const
                           : op == Op::kVar ? next_var
                                            : next_interior;
    slot_of[i] = static_cast<TapeSlot>(counter++);
  }

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Node& n = pool.node(schedule[i]);
    const TapeSlot slot = slot_of[i];
    if (n.op == Op::kVar) {
      var_slots_.push_back(slot);
      var_dims_.push_back(static_cast<std::uint32_t>(n.index));
      continue;
    }
    if (n.op == Op::kConst) {
      const_slots_.push_back(slot);
      const_values_.push_back(Interval(n.value));
      continue;
    }
    if (n.op == Op::kPow && (n.index > INT16_MAX || n.index < INT16_MIN)) {
      throw std::invalid_argument("Hc4Tape: kPow exponent out of range");
    }
    TapeInstr ins;
    ins.op = n.op;
    ins.exponent = static_cast<std::int16_t>(n.index);
    ins.dst = slot;
    ins.a = slot_of[ev.position_of(n.a)];
    ins.b = n.b != kNoExpr ? slot_of[ev.position_of(n.b)] : kNoSlot;

    // Strength-reduce multiplies with one constant operand (weight
    // products dominate NN-derived conjunctions).
    if (n.op == Op::kMul && mul_const_.size() <= INT16_MAX) {
      const Node& ca = pool.node(n.a);
      const Node& cb = pool.node(n.b);
      const bool a_const = ca.op == Op::kConst;
      const bool b_const = cb.op == Op::kConst;
      if (a_const != b_const) {
        const double w = a_const ? ca.value : cb.value;
        if (w != 0.0 && std::isfinite(w)) {
          MulConstSpec sp;
          sp.w = w;
          sp.rec = Interval(interval::prev_float(1.0 / w),
                            interval::next_float(1.0 / w));
          sp.var_slot = a_const ? ins.b : ins.a;
          sp.const_slot = a_const ? ins.a : ins.b;
          sp.var_is_a = !a_const;
          ins.spec = kSpecMulConst;
          ins.exponent = static_cast<std::int16_t>(mul_const_.size());
          mul_const_.push_back(sp);
        }
      }
    }
    code_.push_back(ins);
  }

  root_slots_.reserve(conjunction_.size());
  root_feasible_.reserve(conjunction_.size());
  for (const Constraint& k : conjunction_.constraints) {
    root_slots_.push_back(slot_of[ev.position_of(k.lhs)]);
    root_feasible_.push_back(k.feasible_values());
  }
}

Hc4Tape::Image Hc4Tape::image() const {
  Image img;
  img.rels.reserve(conjunction_.size());
  for (const Constraint& k : conjunction_.constraints) {
    img.rels.push_back(k.rel);
  }
  img.code = code_;
  img.mul_const = mul_const_;
  img.var_slots = var_slots_;
  img.var_dims = var_dims_;
  img.const_slots = const_slots_;
  img.const_values = const_values_;
  img.root_slots = root_slots_;
  img.root_feasible = root_feasible_;
  img.num_slots = num_slots_;
  return img;
}

namespace {
/// Bitwise interval equality — the restore validator's notion of "the
/// compiler would have produced exactly this" (operator== treats two
/// empty intervals as equal regardless of representation; bit equality
/// is stricter).
bool same_bits(const Interval& x, const Interval& y) {
  return std::bit_cast<std::uint64_t>(x.lo()) ==
             std::bit_cast<std::uint64_t>(y.lo()) &&
         std::bit_cast<std::uint64_t>(x.hi()) ==
             std::bit_cast<std::uint64_t>(y.hi());
}

/// Ceiling on persisted variable dimensions — wildly above any real
/// scenario, low enough that a forged tape cannot index far outside a
/// live box.
constexpr std::uint32_t kMaxRestoredVarDim = 1u << 20;
}  // namespace

std::shared_ptr<const Hc4Tape> Hc4Tape::restore(const Image& img) {
  const std::size_t nc = img.const_slots.size();
  const std::size_t nv = img.var_slots.size();
  const std::size_t ni = img.code.size();
  const std::size_t nr = img.root_slots.size();
  if (img.const_values.size() != nc || img.var_dims.size() != nv ||
      img.root_feasible.size() != nr || img.rels.size() != nr) {
    return nullptr;
  }
  if (img.num_slots != nc + nv + ni) return nullptr;
  const std::size_t slots = static_cast<std::size_t>(img.num_slots);

  // Dense [constants | variables | interiors] layout in schedule order —
  // exactly what the compiling constructor lays down.
  for (std::size_t i = 0; i < nc; ++i) {
    if (img.const_slots[i] != static_cast<TapeSlot>(i)) return nullptr;
  }
  for (std::size_t i = 0; i < nv; ++i) {
    if (img.var_slots[i] != static_cast<TapeSlot>(nc + i)) return nullptr;
    if (img.var_dims[i] > kMaxRestoredVarDim) return nullptr;
  }
  for (std::size_t i = 0; i < ni; ++i) {
    const TapeInstr& ins = img.code[i];
    if (ins.dst != static_cast<TapeSlot>(nc + nv + i)) return nullptr;
    if (ins.op <= expr::Op::kVar || ins.op > expr::Op::kMax) return nullptr;
    // Topological order: operands strictly precede their consumer.
    if (ins.a >= ins.dst) return nullptr;
    if (expr::is_binary(ins.op)) {
      if (ins.b == kNoSlot || ins.b >= ins.dst) return nullptr;
    } else if (ins.b != kNoSlot) {
      return nullptr;
    }
    if (ins.spec == kSpecMulConst) {
      if (ins.op != Op::kMul) return nullptr;
      if (ins.exponent < 0 ||
          static_cast<std::size_t>(ins.exponent) >= img.mul_const.size()) {
        return nullptr;
      }
      const MulConstSpec& sp = img.mul_const[ins.exponent];
      const TapeSlot want_var = sp.var_is_a ? ins.a : ins.b;
      const TapeSlot want_const = sp.var_is_a ? ins.b : ins.a;
      if (sp.var_slot != want_var || sp.const_slot != want_const) {
        return nullptr;
      }
      if (sp.w == 0.0 || !std::isfinite(sp.w)) return nullptr;
      if (sp.const_slot >= nc ||
          !same_bits(img.const_values[sp.const_slot], Interval(sp.w))) {
        return nullptr;
      }
      const Interval rec(interval::prev_float(1.0 / sp.w),
                         interval::next_float(1.0 / sp.w));
      if (!same_bits(sp.rec, rec)) return nullptr;
    } else if (ins.spec != kSpecNone) {
      return nullptr;
    }
  }
  for (std::size_t i = 0; i < nr; ++i) {
    if (img.root_slots[i] >= slots) return nullptr;
    if (img.rels[i] > Rel::kEq) return nullptr;
    const Constraint proto{kNoExpr, img.rels[i]};
    if (!same_bits(img.root_feasible[i], proto.feasible_values())) {
      return nullptr;
    }
  }

  std::shared_ptr<Hc4Tape> tape(new Hc4Tape());
  for (const Rel rel : img.rels) tape->conjunction_.add(kNoExpr, rel);
  tape->code_ = img.code;
  tape->mul_const_ = img.mul_const;
  tape->var_slots_ = img.var_slots;
  tape->var_dims_ = img.var_dims;
  tape->const_slots_ = img.const_slots;
  tape->const_values_ = img.const_values;
  tape->root_slots_ = img.root_slots;
  tape->root_feasible_ = img.root_feasible;
  tape->num_slots_ = slots;
  return tape;
}

Hc4Tape::Hc4Tape(const Hc4Tape& proto, Conjunction conjunction)
    : conjunction_(std::move(conjunction)),
      code_(proto.code_),
      mul_const_(proto.mul_const_),
      var_slots_(proto.var_slots_),
      var_dims_(proto.var_dims_),
      const_slots_(proto.const_slots_),
      const_values_(proto.const_values_),
      root_slots_(proto.root_slots_),
      root_feasible_(proto.root_feasible_),
      num_slots_(proto.num_slots_) {
  // Same degradation-ladder rung as a cold compile: adopting a warm
  // prototype must not dodge an armed tape_compile fault.
  core::FaultRegistry::check(core::FaultPoint::kTapeCompile);
  if (conjunction_.size() != proto.conjunction_.size()) {
    throw std::invalid_argument("Hc4Tape rebind: constraint count mismatch");
  }
  for (std::size_t i = 0; i < conjunction_.size(); ++i) {
    if (conjunction_.constraints[i].rel != proto.conjunction_.constraints[i].rel) {
      throw std::invalid_argument("Hc4Tape rebind: relation mismatch");
    }
  }
}

Hc4Tape::Registers Hc4Tape::make_registers() const {
  Registers regs(num_slots_);
  std::copy(const_values_.begin(), const_values_.end(), regs.begin());
  return regs;
}

void Hc4Tape::load_leaves(const interval::Box& box, Registers& regs) const {
  // Constants are re-seeded every pass: the backward sweep projects
  // requirements into *all* child slots, including constant leaves, and
  // those narrowed points must not leak into the next query's forward
  // values. The layout makes this one contiguous block copy.
  std::copy(const_values_.begin(), const_values_.end(), regs.begin());
  Interval* const var_regs = regs.data() + const_values_.size();
  for (std::size_t i = 0; i < var_slots_.size(); ++i) {
    var_regs[i] = box[var_dims_[i]];
  }
}

void Hc4Tape::forward(Registers& regs) const {
  static const Interval kNoOperand;  // matches the tree path's empty filler
  Interval* const r = regs.data();
  const TapeInstr* const code = code_.data();
  const MulConstSpec* const mc = mul_const_.data();
  const std::size_t n = code_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const TapeInstr ins = code[i];
    if (ins.spec == kSpecMulConst) {
      const MulConstSpec& sp = mc[ins.exponent];
      r[ins.dst] = tkern::mul_const(r[sp.var_slot], sp.w);
      continue;
    }
#if BCERT_TAPE_SSE2
    if (ins.op == Op::kAdd) {
      r[ins.dst] = add_iv(r[ins.a], r[ins.b]);
      continue;
    }
#endif
    const Interval& a = r[ins.a];
    const Interval& b = ins.b != kNoSlot ? r[ins.b] : kNoOperand;
    r[ins.dst] = expr::apply_interval_op(ins.op, ins.exponent, a, b);
  }
}

void Hc4Tape::eval_roots(const interval::Box& box, Registers& regs,
                         std::vector<Interval>& out) const {
  if (regs.size() != num_slots_) regs = make_registers();
  load_leaves(box, regs);
  forward(regs);
  out.resize(root_slots_.size());
  for (std::size_t i = 0; i < root_slots_.size(); ++i) {
    out[i] = regs[root_slots_[i]];
  }
}

ContractResult Hc4Tape::contract(interval::Box& box, Registers& regs,
                                 std::vector<Interval>* fwd_roots) const {
  if (regs.size() != num_slots_) regs = make_registers();
  load_leaves(box, regs);
  forward(regs);

  if (fwd_roots != nullptr) {
    fwd_roots->resize(root_slots_.size());
    for (std::size_t i = 0; i < root_slots_.size(); ++i) {
      (*fwd_roots)[i] = regs[root_slots_[i]];
    }
  }

  // Intersect each constraint root with its feasible value set.
  for (std::size_t i = 0; i < root_slots_.size(); ++i) {
    Interval& root = regs[root_slots_[i]];
    root = intersect(root, root_feasible_[i]);
    if (root.is_empty()) return ContractResult::kEmpty;
  }

  // Reverse sweep: instructions are in topological order, so walking the
  // code backwards processes parents before children and each dst's
  // requirement is final when projected downward.
  core::FaultRegistry::check(core::FaultPoint::kHc4Backward);
  Interval* const reg = regs.data();
  const TapeInstr* const code = code_.data();
  const MulConstSpec* const mc = mul_const_.data();
  for (std::size_t i = code_.size(); i-- > 0;) {
    const TapeInstr ins = code[i];
    const Interval r = reg[ins.dst];
    if (r.is_empty()) return ContractResult::kEmpty;
    if (ins.spec == kSpecMulConst) {
      // Same two projection legs as the generic kMul, in the generic
      // order, but the division by the pristine [w, w] sibling is the
      // precompiled reciprocal multiply.
      const MulConstSpec& sp = mc[ins.exponent];
      Interval& x = reg[sp.var_slot];
      if (sp.var_is_a) {
        x = intersect(x, mul_rec(r, sp.rec, sp.w > 0.0));
        if (x.is_empty()) return ContractResult::kEmpty;
        if (!const_quotient_feasible(sp.w, r, x)) {
          return ContractResult::kEmpty;
        }
      } else {
        if (!const_quotient_feasible(sp.w, r, x)) {
          return ContractResult::kEmpty;
        }
        x = intersect(x, mul_rec(r, sp.rec, sp.w > 0.0));
        if (x.is_empty()) return ContractResult::kEmpty;
      }
      continue;
    }
#if BCERT_TAPE_SSE2
    if (ins.op == Op::kAdd) {
      // Generic kAdd projections, two-lane vectorized.
      const __m128d rv = load_iv(r);
      if (!refine_sub(reg[ins.a], rv, reg[ins.b])) {
        return ContractResult::kEmpty;
      }
      if (!refine_sub(reg[ins.b], rv, reg[ins.a])) {
        return ContractResult::kEmpty;
      }
      continue;
    }
#endif
    Interval* b = ins.b != kNoSlot ? &reg[ins.b] : nullptr;
    if (!detail::project_node(ins.op, ins.exponent, r, reg[ins.a], b)) {
      return ContractResult::kEmpty;
    }
  }

  // Read back the narrowed variable slots.
  bool changed = false;
  for (std::size_t i = 0; i < var_slots_.size(); ++i) {
    const std::uint32_t dim = var_dims_[i];
    const Interval narrowed = intersect(box[dim], regs[var_slots_[i]]);
    if (narrowed.is_empty()) return ContractResult::kEmpty;
    if (!(narrowed == box[dim])) {
      box[dim] = narrowed;
      changed = true;
    }
  }
  return changed ? ContractResult::kContracted : ContractResult::kNoChange;
}

void Hc4Tape::dump(std::ostream& os) const {
  os << "tape: " << code_.size() << " instrs, " << num_slots_ << " slots ("
     << const_slots_.size() << " const, " << var_slots_.size() << " var), "
     << root_slots_.size() << " roots\n";
  for (std::size_t i = 0; i < const_slots_.size(); ++i) {
    os << "  const %" << const_slots_[i] << " = [" << const_values_[i].lo()
       << ", " << const_values_[i].hi() << "]\n";
  }
  for (std::size_t i = 0; i < var_slots_.size(); ++i) {
    os << "  var   %" << var_slots_[i] << " = x" << var_dims_[i] << "\n";
  }
  for (const TapeInstr& ins : code_) {
    os << "  %" << ins.dst << " = ";
    if (ins.spec == kSpecMulConst) {
      const MulConstSpec& sp = mul_const_[ins.exponent];
      os << "mulconst %" << sp.var_slot << ", " << sp.w
         << (sp.var_is_a ? "  (var_is_a)" : "");
    } else {
      os << expr::op_name(ins.op) << " %" << ins.a;
      if (ins.b != kNoSlot) os << ", %" << ins.b;
      if (ins.op == Op::kPow) os << " ^" << ins.exponent;
    }
    os << "\n";
  }
  for (std::size_t i = 0; i < root_slots_.size(); ++i) {
    os << "  root  %" << root_slots_[i] << " in [" << root_feasible_[i].lo()
       << ", " << root_feasible_[i].hi() << "]\n";
  }
}

TapeCache::Signature TapeCache::signature_of(const expr::ExprPool& pool,
                                             const Conjunction& c) {
  Signature sig;
  sig.first = &pool;
  sig.second.reserve(c.size());
  for (const Constraint& k : c.constraints) {
    sig.second.emplace_back(k.lhs, k.rel);
  }
  return sig;
}

std::shared_ptr<const Hc4Tape> TapeCache::get_or_compile(
    const expr::ExprPool& pool, const Conjunction& c) {
  Signature sig = signature_of(pool, c);
  if (auto entry = tapes_.get(sig)) return entry->tape;

  // Miss: before compiling, probe the persisted warm prototypes under
  // the pool-independent content signature. A hit is adopted (rebound to
  // the live conjunction — bit-identical program, see content_signature)
  // instead of compiled, and promoted into the LRU like any compile.
  const Sig128 content = content_signature(pool, c);
  std::shared_ptr<const Hc4Tape> proto;
  {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    const auto it = warm_.find(content);
    if (it != warm_.end()) {
      proto = it->second;
      warm_.erase(it);  // now owned by the LRU under the live key
    }
  }
  std::shared_ptr<const Hc4Tape> tape;
  if (proto != nullptr) {
    tape = std::make_shared<const Hc4Tape>(*proto, c);
    warm_restores_.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Compile outside the lock; a racing duplicate compile is harmless
    // (put(replace=false) keeps the first, both tapes are equivalent).
    tape = std::make_shared<const Hc4Tape>(pool, c);
  }
  auto entry =
      std::make_shared<const CachedTape>(CachedTape{std::move(tape), content});
  return tapes_.put(std::move(sig), std::move(entry), /*replace=*/false)->tape;
}

std::vector<TapeCache::WarmEntry> TapeCache::export_entries() const {
  std::vector<WarmEntry> out;
  std::set<Sig128> seen;
  for (const auto& [key, entry] : tapes_.snapshot()) {
    if (entry != nullptr && seen.insert(entry->content).second) {
      out.push_back({entry->content, entry->tape});
    }
  }
  std::lock_guard<std::mutex> lock(warm_mutex_);
  for (const auto& [content, tape] : warm_) {
    if (seen.insert(content).second) out.push_back({content, tape});
  }
  return out;
}

void TapeCache::import_entries(std::vector<WarmEntry> entries) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  for (WarmEntry& e : entries) {
    if (e.tape != nullptr) warm_[e.content] = std::move(e.tape);
  }
}

std::shared_ptr<const Hc4Jit> TapeCache::get_or_compile_jit(
    const std::shared_ptr<const Hc4Tape>& tape) {
  if (auto jit = jits_.get(tape.get())) return jit;
  // Emit outside the lock; failures propagate and cache nothing.
  auto jit = Hc4Jit::compile(tape);
  return jits_.put(tape.get(), std::move(jit), /*replace=*/false);
}

}  // namespace bcert::smt
