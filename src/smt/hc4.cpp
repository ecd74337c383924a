#include "src/smt/hc4.h"

#include <cstdio>
#include <cstring>
#include <limits>

#include "src/core/runtime_config.h"
#include "src/smt/projections.h"

namespace bcert::smt {

using expr::ExprId;
using expr::kNoExpr;
using expr::Node;
using expr::Op;
using interval::Interval;

namespace {

std::vector<ExprId> roots_of(const Conjunction& c) {
  std::vector<ExprId> roots;
  roots.reserve(c.constraints.size());
  for (const Constraint& k : c.constraints) roots.push_back(k.lhs);
  return roots;
}

}  // namespace

Hc4Mode resolve_hc4_mode(Hc4Mode mode) {
  if (mode != Hc4Mode::kAuto) return mode;
  // Typed knob (BCERT_HC4_MODE): RuntimeConfig validated the token and
  // warned on typos; here we only map it onto the smt-layer enum.
  switch (core::RuntimeConfig::active().hc4_mode) {
    case core::ConfigHc4Mode::kTree:
      return Hc4Mode::kTree;
    case core::ConfigHc4Mode::kJit:
      // Without a native backend every emission would fail; resolve to
      // the tape up front instead of degrading (and counting jit_to_tape)
      // on every query.
      return jit::ExecMemory::supported() ? Hc4Mode::kJit : Hc4Mode::kTape;
    case core::ConfigHc4Mode::kTape:
      break;
  }
  return Hc4Mode::kTape;
}

Hc4Contractor::Hc4Contractor(const expr::ExprPool& pool,
                             Conjunction conjunction, Hc4Mode mode) {
  const Hc4Mode resolved = resolve_hc4_mode(mode);
  if (resolved == Hc4Mode::kJit) {
    auto tape = std::make_shared<const Hc4Tape>(pool, std::move(conjunction));
    try {
      jit_ = Hc4Jit::compile(tape);
      regs_ = jit_->make_registers();
    } catch (const std::exception&) {
      // Degradation ladder: emission refused (host, W^X, injected
      // fault) → run the tape interpreter, bit-identically. Callers that
      // track degradation (the ICP contractor setup) count their own
      // fallback; this direct path just stays correct.
      tape_ = std::move(tape);
      regs_ = tape_->make_registers();
    }
    return;
  }
  if (resolved == Hc4Mode::kTape) {
    tape_ = std::make_shared<const Hc4Tape>(pool, std::move(conjunction));
    regs_ = tape_->make_registers();
    return;
  }
  conjunction_ = std::move(conjunction);
  eval_ = std::make_unique<expr::Evaluator>(pool, roots_of(conjunction_));
  root_positions_.reserve(conjunction_.size());
  for (const Constraint& k : conjunction_.constraints) {
    root_positions_.push_back(eval_->position_of(k.lhs));
  }
}

Hc4Contractor::Hc4Contractor(std::shared_ptr<const Hc4Tape> tape)
    : tape_(std::move(tape)), regs_(tape_->make_registers()) {}

Hc4Contractor::Hc4Contractor(std::shared_ptr<const Hc4Jit> jit)
    : jit_(std::move(jit)), regs_(jit_->make_registers()) {}

const std::vector<Interval>& Hc4Contractor::roots_for(
    const interval::Box& box) {
  if (cache_valid_ && cached_box_ == box) return cached_roots_;
  if (jit_) {
    jit_->eval_roots(box, regs_, cached_roots_);
  } else if (tape_) {
    tape_->eval_roots(box, regs_, cached_roots_);
  } else {
    cached_roots_ = eval_->eval(box);
  }
  cached_box_ = box;
  cache_valid_ = true;
  return cached_roots_;
}

std::vector<Interval> Hc4Contractor::root_values(const interval::Box& box) {
  return roots_for(box);
}

bool Hc4Contractor::certainly_satisfied(const interval::Box& box) {
  const auto& vals = roots_for(box);
  const Conjunction& c = conjunction();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c.constraints[i].certainly_satisfied(vals[i])) return false;
  }
  return true;
}

bool Hc4Contractor::certainly_violated(const interval::Box& box) {
  const auto& vals = roots_for(box);
  const Conjunction& c = conjunction();
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (c.constraints[i].certainly_violated(vals[i])) return true;
  }
  return false;
}

Hc4Contractor::Certainty Hc4Contractor::certainty(const interval::Box& box) {
  const auto& vals = roots_for(box);
  const Conjunction& c = conjunction();
  Certainty result{true, false};
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (!c.constraints[i].certainly_satisfied(vals[i])) {
      result.satisfied = false;
    }
    if (c.constraints[i].certainly_violated(vals[i])) result.violated = true;
  }
  return result;
}

ContractResult Hc4Contractor::contract(interval::Box& box) {
  // Cache the forward-root enclosures for the box being contracted: when
  // this pass ends at a fixpoint (kNoChange) the box is unchanged and a
  // following certainly_satisfied/certainly_violated is free.
  cached_box_ = box;

  if (jit_) {
    const ContractResult r = jit_->contract(box, regs_, &cached_roots_);
    cache_valid_ = true;
    return r;
  }
  if (tape_) {
    const ContractResult r = tape_->contract(box, regs_, &cached_roots_);
    cache_valid_ = true;
    return r;
  }

  // Forward pass: natural interval extension for every DAG node.
  eval_->eval_forward(box, req_);
  cached_roots_.resize(root_positions_.size());
  for (std::size_t i = 0; i < root_positions_.size(); ++i) {
    cached_roots_[i] = req_[root_positions_[i]];
  }
  cache_valid_ = true;

  // Intersect each constraint root with its feasible value set.
  for (std::size_t i = 0; i < conjunction_.size(); ++i) {
    const std::size_t pos = root_positions_[i];
    req_[pos] =
        intersect(req_[pos], conjunction_.constraints[i].feasible_values());
    if (req_[pos].is_empty()) return ContractResult::kEmpty;
  }

  if (!backward_sweep()) return ContractResult::kEmpty;

  // Read back variable intervals.
  bool changed = false;
  const auto& schedule = eval_->schedule();
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Node& n = eval_->pool().node(schedule[i]);
    if (n.op != Op::kVar) continue;
    const auto dim = static_cast<std::size_t>(n.index);
    const Interval narrowed = intersect(box[dim], req_[i]);
    if (narrowed.is_empty()) return ContractResult::kEmpty;
    if (!(narrowed == box[dim])) {
      box[dim] = narrowed;
      changed = true;
    }
  }
  return changed ? ContractResult::kContracted : ContractResult::kNoChange;
}

bool Hc4Contractor::backward_sweep() {
  const auto& schedule = eval_->schedule();
  const expr::ExprPool& pool = eval_->pool();

  // Reverse topological order: parents are processed before children, so
  // each node's requirement is final before it is projected downward.
  for (std::size_t idx = schedule.size(); idx-- > 0;) {
    const Node& n = pool.node(schedule[idx]);
    const Interval r = req_[idx];
    if (r.is_empty()) return false;
    if (n.a == kNoExpr) continue;  // leaf

    Interval& a = req_[eval_->position_of(n.a)];
    Interval* b =
        n.b != kNoExpr ? &req_[eval_->position_of(n.b)] : nullptr;
    if (!detail::project_node(n.op, n.index, r, a, b)) return false;
  }
  return true;
}

ContractResult Hc4Contractor::contract_fixpoint(interval::Box& box,
                                                int max_passes,
                                                double ratio) {
  bool any_change = false;
  for (int pass = 0; pass < max_passes; ++pass) {
    const double before = box.perimeter();
    const ContractResult r = contract(box);
    if (r == ContractResult::kEmpty) return ContractResult::kEmpty;
    if (r == ContractResult::kNoChange) break;
    any_change = true;
    const double after = box.perimeter();
    if (before <= 0.0 || (before - after) / before < ratio) break;
  }
  return any_change ? ContractResult::kContracted : ContractResult::kNoChange;
}

}  // namespace bcert::smt
