#include "src/scenario/differential.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/expr/derivative.h"
#include "src/expr/eval.h"
#include "src/scenario/prng.h"
#include "src/smt/smtlib_export.h"

namespace bcert::scenario {

namespace {

/// Random quadratic-plus-linear form Σ c_ii·x_i² + Σ_{i<j} c_ij·x_i·x_j
/// + Σ c_i·x_i, diagonal-dominant like the certificates the LP actually
/// synthesizes.
expr::ExprId random_quadratic(expr::ExprPool& pool, std::size_t dims,
                              SplitMix64& rng) {
  expr::ExprId w = expr::kNoExpr;
  const auto accumulate = [&](expr::ExprId term) {
    w = (w == expr::kNoExpr) ? term : pool.add(w, term);
  };
  for (std::size_t i = 0; i < dims; ++i) {
    const expr::ExprId xi = pool.var(static_cast<std::int32_t>(i));
    accumulate(
        pool.mul(pool.constant(rng.uniform(0.2, 1.5)), pool.sqr(xi)));
    for (std::size_t j = i + 1; j < dims; ++j) {
      const expr::ExprId xj = pool.var(static_cast<std::int32_t>(j));
      accumulate(pool.mul(pool.constant(rng.uniform(-0.5, 0.5)),
                          pool.mul(xi, xj)));
    }
    accumulate(pool.mul(pool.constant(rng.uniform(-0.5, 0.5)), xi));
  }
  return w;
}

/// Random sub-box of \p rect: per-dimension window of 5–30% of the
/// extent around a uniform center, clamped to the rectangle.
interval::Box random_subbox(const core::Rect& rect, SplitMix64& rng) {
  interval::Box box(rect.dims());
  for (std::size_t i = 0; i < rect.dims(); ++i) {
    const double lo = rect.lo[i];
    const double hi = rect.hi[i];
    const double half = 0.5 * (hi - lo) * rng.uniform(0.05, 0.3);
    const double center = rng.uniform(lo, hi);
    box[i] = interval::Interval(std::max(lo, center - half),
                                std::min(hi, center + half));
  }
  return box;
}

/// W evaluated at the box midpoint (to place level thresholds so the
/// SAT/UNSAT mix straddles the border).
double value_at_midpoint(const expr::ExprPool& pool, expr::ExprId id,
                         const interval::Box& box) {
  const expr::Evaluator eval(pool, {id});
  return eval.eval(box.midpoint())[0];
}

/// True when \p value satisfies the relation with \p margin to spare
/// (strict enough that double-rounding cannot flip a real-arithmetic
/// witness). kEq is never claimed — equality needs exactness.
bool satisfied_with_margin(double value, smt::Rel rel, double margin) {
  switch (rel) {
    case smt::Rel::kGe:
    case smt::Rel::kGt:
      return value >= margin;
    case smt::Rel::kLe:
    case smt::Rel::kLt:
      return value <= -margin;
    case smt::Rel::kEq:
      return false;
  }
  return false;
}

/// True when \p value violates the relation by more than \p margin (for
/// cross-checking certain-SAT witnesses).
bool violated_beyond_margin(double value, smt::Rel rel, double margin) {
  switch (rel) {
    case smt::Rel::kGe:
    case smt::Rel::kGt:
      return value < -margin;
    case smt::Rel::kLe:
    case smt::Rel::kLt:
      return value > margin;
    case smt::Rel::kEq:
      return std::abs(value) > margin;
  }
  return false;
}

/// Minimal structural well-formedness of an exported benchmark:
/// non-empty, balanced parentheses, a (check-sat) command, and no
/// non-finite literals (dReal would reject all of these).
bool well_formed_smtlib(const std::string& text) {
  if (text.empty()) return false;
  long depth = 0;
  for (const char c : text) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth < 0) return false;
  }
  if (depth != 0) return false;
  if (text.find("(check-sat)") == std::string::npos) return false;
  if (text.find("nan") != std::string::npos) return false;
  if (text.find("inf") != std::string::npos) return false;
  return true;
}

}  // namespace

std::vector<DifferentialQuery> sample_queries(const core::Scenario& scenario,
                                              std::size_t count,
                                              std::uint64_t seed,
                                              expr::ExprPool& pool) {
  const core::BarrierProblem& problem = scenario.problem;
  const std::size_t n = problem.dims();
  std::vector<DifferentialQuery> queries;
  queries.reserve(count);

  for (std::size_t q = 0; q < count; ++q) {
    SplitMix64 rng(SplitMix64::derive(seed, q));
    const expr::ExprId w = random_quadratic(pool, n, rng);

    DifferentialQuery query;
    switch (q % 4) {
      case 0: {
        // Decrease-violation shape (condition (5)): ∇W·f + γ ≥ 0. The
        // sign and size of γ straddle the SAT/UNSAT border.
        const expr::ExprId lie =
            expr::lie_derivative(pool, w, problem.sym_field);
        const double gamma = rng.uniform(-0.5, 0.5);
        query.box = random_subbox(problem.safe_rect, rng);
        query.conjunction.add(pool.add(lie, pool.constant(gamma)),
                              smt::Rel::kGe);
        query.label = "decrease";
        break;
      }
      case 1: {
        // Initial-containment shape (condition (6)): W − ℓ > 0 over X0.
        query.box = problem.initial_set.as_box();
        const double wmid = value_at_midpoint(pool, w, query.box);
        const double level =
            wmid * rng.uniform(0.3, 3.0) + rng.jitter(0.1);
        query.conjunction.add(pool.sub(w, pool.constant(level)),
                              smt::Rel::kGt);
        query.label = "initial";
        break;
      }
      case 2: {
        // Level-set ∩ halfspace shape (condition (7)): W ≤ ℓ on an
        // unsafe face — a genuinely multi-constraint conjunction.
        query.box = random_subbox(problem.safe_rect, rng);
        const double wmid = value_at_midpoint(pool, w, query.box);
        const double level = wmid * rng.uniform(0.5, 2.0);
        const std::size_t dim = rng.below(n);
        const double bound =
            rng.uniform(query.box[dim].lo(), query.box[dim].hi());
        query.conjunction.add(pool.sub(w, pool.constant(level)),
                              smt::Rel::kLe);
        query.conjunction.add(
            pool.sub(pool.var(static_cast<std::int32_t>(dim)),
                     pool.constant(bound)),
            smt::Rel::kGe);
        query.label = "level-face";
        break;
      }
      default: {
        // Raw field-range query: f_j(x) − c ≥ 0 — the plant's own
        // operator mix (tanh layers, trig, |·|) with no template on top.
        const std::size_t j = rng.below(n);
        query.box = random_subbox(problem.safe_rect, rng);
        const double fmid =
            value_at_midpoint(pool, problem.sym_field[j], query.box);
        const double c = fmid + rng.jitter(0.5);
        query.conjunction.add(
            pool.sub(problem.sym_field[j], pool.constant(c)), smt::Rel::kGe);
        query.label = "field-range";
        break;
      }
    }
    query.label =
        scenario.name + ":q" + std::to_string(q) + ":" + query.label;
    queries.push_back(std::move(query));
  }
  return queries;
}

DifferentialReport run_differential(const expr::ExprPool& pool,
                                    std::span<const DifferentialQuery> queries,
                                    const HarnessOptions& options) {
  DifferentialReport report;

  smt::IcpConfig base;
  base.delta = options.delta;
  base.max_boxes = options.max_boxes;
  // Box-budget-bound, never wall-clock-bound: both backends must explore
  // the identical search tree regardless of machine load.
  base.time_limit_s = 1e9;
  base.warm_start = false;

  smt::IcpConfig tape_config = base;
  tape_config.hc4_mode = smt::Hc4Mode::kTape;
  smt::IcpConfig tree_config = base;
  tree_config.hc4_mode = smt::Hc4Mode::kTree;
  smt::IcpConfig jit_config = base;
  jit_config.hc4_mode = smt::Hc4Mode::kJit;
  const smt::IcpSolver tape_solver(pool, tape_config);
  const smt::IcpSolver tree_solver(pool, tree_config);
  const smt::IcpSolver jit_solver(pool, jit_config);

  // Exact-agreement comparator for a pair of contractually bit-identical
  // backends: same verdict, same explored search tree, same witness box.
  const auto compare_exact = [](const smt::IcpResult& a, const char* a_name,
                                const smt::IcpResult& b,
                                const char* b_name) -> std::string {
    if (a.verdict != b.verdict) {
      return std::string(a_name) + "=" + smt::sat_result_name(a.verdict) +
             " vs " + b_name + "=" + smt::sat_result_name(b.verdict);
    }
    if (a.stats.boxes_processed != b.stats.boxes_processed) {
      return "backend search trees diverged: " + std::string(a_name) +
             " processed " + std::to_string(a.stats.boxes_processed) +
             " boxes, " + b_name + " " +
             std::to_string(b.stats.boxes_processed);
    }
    if (a.witness.has_value() != b.witness.has_value()) {
      return std::string(a_name) + "/" + b_name + " witness presence mismatch";
    }
    if (a.witness.has_value()) {
      for (std::size_t d = 0; d < a.witness->size(); ++d) {
        if ((*a.witness)[d].lo() != (*b.witness)[d].lo() ||
            (*a.witness)[d].hi() != (*b.witness)[d].hi()) {
          return std::string(a_name) + "/" + b_name +
                 " witness boxes differ in dimension " + std::to_string(d);
        }
      }
    }
    return {};
  };

  for (std::size_t i = 0; i < queries.size(); ++i) {
    const DifferentialQuery& q = queries[i];
    ++report.queries;

    const smt::IcpResult tape = tape_solver.solve(q.conjunction, q.box);
    const smt::IcpResult tree = tree_solver.solve(q.conjunction, q.box);
    const smt::IcpResult jit = jit_solver.solve(q.conjunction, q.box);
    if (tape.is_sat()) ++report.sat_queries;
    if (tape.is_unsat()) ++report.unsat_queries;

    VerdictRecord record;
    record.label = q.label;
    record.tape = tape.verdict;
    record.tree = tree.verdict;
    record.jit = jit.verdict;

    std::string detail = compare_exact(tape, "tape", tree, "tree");
    if (detail.empty()) detail = compare_exact(tape, "tape", jit, "jit");

    // Sampled-point falsification: a double-arithmetic witness with
    // margin refutes an UNSAT proof outright.
    std::vector<expr::ExprId> roots;
    roots.reserve(q.conjunction.size());
    for (const smt::Constraint& c : q.conjunction.constraints) {
      roots.push_back(c.lhs);
    }
    const expr::Evaluator eval(pool, roots);
    SplitMix64 rng(SplitMix64::derive(0x5CE9A810F00DULL, i));
    linalg::Vector x(q.box.size());
    for (std::size_t s = 0; s < options.sample_points; ++s) {
      for (std::size_t d = 0; d < q.box.size(); ++d) {
        x[d] = rng.uniform(q.box[d].lo(), q.box[d].hi());
      }
      const std::vector<double> values = eval.eval(x);
      bool all = true;
      for (std::size_t c = 0; c < values.size(); ++c) {
        if (!satisfied_with_margin(values[c],
                                   q.conjunction.constraints[c].rel,
                                   options.point_margin)) {
          all = false;
          break;
        }
      }
      if (all) {
        record.point_witness = true;
        break;
      }
    }
    if (detail.empty() && record.point_witness && tape.is_unsat()) {
      detail = "sampled point satisfies the query but the solver proved "
               "UNSAT";
    }

    // Certain-SAT cross-check: the reported witness midpoint may not
    // violate any constraint beyond the rounding margin.
    if (detail.empty() && tape.verdict == smt::SatResult::kSat) {
      const std::vector<double> values =
          eval.eval(tape.witness->midpoint());
      for (std::size_t c = 0; c < values.size(); ++c) {
        if (violated_beyond_margin(values[c],
                                   q.conjunction.constraints[c].rel,
                                   options.point_margin)) {
          detail = "kSat witness midpoint violates constraint " +
                   std::to_string(c);
          break;
        }
      }
    }

    if (!detail.empty()) {
      ++report.disagreements;
      record.detail = std::move(detail);
      report.failures.push_back(record);
    }

    if (options.export_smtlib) {
      std::ostringstream os;
      smt::SmtLibOptions smt_options;
      smt_options.precision = options.delta;
      smt::write_smtlib(os, pool, q.conjunction, q.box, smt_options);
      const std::string text = os.str();
      report.smt2_bytes += text.size();
      if (!well_formed_smtlib(text)) {
        ++report.export_failures;
        VerdictRecord bad;
        bad.label = q.label;
        bad.detail = "malformed SMT-LIB export";
        report.failures.push_back(std::move(bad));
      }
    }
  }
  return report;
}

}  // namespace bcert::scenario
