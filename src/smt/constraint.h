#pragma once
/// \file constraint.h
/// \brief Atomic real constraints `expr ⋈ 0` for the δ-SAT solver.
///
/// Every constraint is normalized to compare an expression against zero.
/// Strictness matters for the soundness of UNSAT answers (pruning a box
/// against `e < 0` may use `e ≥ 0`, against `e ≤ 0` only `e > 0`).

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "src/expr/expr.h"
#include "src/interval/interval.h"

namespace bcert::smt {

/// Comparison relation against zero.
enum class Rel : std::uint8_t {
  kLe,  ///< expr ≤ 0
  kLt,  ///< expr < 0
  kGe,  ///< expr ≥ 0
  kGt,  ///< expr > 0
  kEq,  ///< expr = 0
};

const char* rel_name(Rel r);

/// One atomic constraint over a shared ExprPool.
struct Constraint {
  expr::ExprId lhs = expr::kNoExpr;
  Rel rel = Rel::kLe;

  /// The set of values of `lhs` consistent with the relation. Strict
  /// relations use the closed hull (sound for contraction; strictness is
  /// applied at pruning time).
  interval::Interval feasible_values() const;

  /// True when an enclosure \p v of lhs over a box proves that *no* point
  /// of the box satisfies the constraint (box can be pruned).
  bool certainly_violated(const interval::Interval& v) const;

  /// True when an enclosure \p v proves that *every* point of the box
  /// satisfies the constraint.
  bool certainly_satisfied(const interval::Interval& v) const;

  friend bool operator==(const Constraint&, const Constraint&) = default;
};

/// Conjunction of atomic constraints (one ICP query).
struct Conjunction {
  std::vector<Constraint> constraints;

  Conjunction() = default;
  explicit Conjunction(std::vector<Constraint> cs)
      : constraints(std::move(cs)) {}

  void add(expr::ExprId lhs, Rel rel) { constraints.push_back({lhs, rel}); }
  std::size_t size() const { return constraints.size(); }
  bool empty() const { return constraints.empty(); }

  friend bool operator==(const Conjunction&, const Conjunction&) = default;
};

/// Pool-independent 128-bit conjunction identity, the key of the
/// persistent warm-state stores (src/smt/cache_io). Unlike
/// `structural_signature` (unsat_tree.h), which deliberately ignores
/// constant values so consecutive candidates collide, this hash covers
/// the *complete* compiler input of an HC4 tape: every operation, child
/// wiring in order, variable index, pow exponent, constant IEEE-754 bit
/// pattern and constraint relation. Two conjunctions with equal content
/// signatures therefore compile to bit-identical tapes (the tape slot
/// schedule is a pure structural DFS — see Hc4Tape), which is what lets
/// a restarted process adopt a persisted tape without re-deriving it.
/// Collisions would need two different compiler inputs meeting in 128
/// bits — negligible against cache populations of ≤ thousands.
struct Sig128 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Sig128&, const Sig128&) = default;
  friend auto operator<=>(const Sig128&, const Sig128&) = default;
};

Sig128 content_signature(const expr::ExprPool& pool, const Conjunction& c);

/// Disjunction of conjunctions (DNF). The solver answers SAT if any
/// disjunct is satisfiable; UNSAT requires refuting all of them.
struct Dnf {
  std::vector<Conjunction> disjuncts;

  Dnf() = default;
  explicit Dnf(std::vector<Conjunction> ds) : disjuncts(std::move(ds)) {}

  /// Cross product: (this) ∧ (other), both in DNF.
  Dnf conjoin(const Dnf& other) const;

  static Dnf single(Conjunction c) { return Dnf({std::move(c)}); }

  friend bool operator==(const Dnf&, const Dnf&) = default;
};

}  // namespace bcert::smt
