#pragma once
/// \file bench_common.h
/// \brief Shared setup for the paper-reproduction benches: the case-study
/// regions, controller factories, and small env-var helpers.

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/core/engine.h"
#include "src/dubins/error_dynamics.h"
#include "src/dubins/training.h"
#include "src/parallel/thread_pool.h"

namespace bcert::bench {

inline constexpr double kPi = 3.14159265358979323846;
inline constexpr double kEps = 0.01;  ///< the ε of U's definition (§4.3)

/// Paper §4.3 regions: X0 = [-1,1]×[-π/16,π/16],
/// U = complement of [-5,5]×[-(π/2-ε),(π/2-ε)].
inline core::Rect paper_initial_set() {
  return {{-1.0, -kPi / 16.0}, {1.0, kPi / 16.0}};
}
inline core::Rect paper_safe_rect() {
  return {{-5.0, -(kPi / 2.0 - kEps)}, {5.0, kPi / 2.0 - kEps}};
}

/// Builds the closed-loop verification problem for a given controller.
inline core::BarrierProblem make_problem(expr::ExprPool& pool,
                                         const nn::FeedforwardNet& net) {
  const dubins::ErrorModel model{/*velocity=*/1.0, /*theta_r=*/0.0};
  core::BarrierProblem p;
  p.pool = &pool;
  p.sim_field = dubins::closed_loop_field(model, net);
  p.sim_field_factory = [model, net] {
    return dubins::closed_loop_field_inplace(model, net);
  };
  p.sym_field = dubins::closed_loop_field_expr(model, net, pool);
  p.initial_set = paper_initial_set();
  p.safe_rect = paper_safe_rect();
  return p;
}

/// Appends \p count synthesis-shaped decrease rows (-a·c + g ≤ tiny,
/// with the anti-degeneracy rhs perturbation lp_synthesis uses) to a
/// margin LP built by margin_lp().
inline void append_margin_rows(lp::LpProblem& p, std::mt19937& rng,
                               int count) {
  std::uniform_real_distribution<double> d(0.1, 2.0);
  const std::size_t k = p.num_vars() - 1;
  for (int i = 0; i < count; ++i) {
    linalg::Vector row(k + 1);
    for (std::size_t j = 0; j < k; ++j) row[j] = -d(rng);
    row[k] = 1.0;
    p.add_row(std::move(row), lp::RowRel::kLe,
              1e-10 * static_cast<double>(p.num_rows() + 1));
  }
}

/// Verifier-shaped margin-maximization LP: \p coeffs template
/// coefficients in [-1, 1] plus one maximized margin variable g ≥ 0,
/// with \p rows random decrease rows. The shape synthesize_candidate
/// produces — shared by the LP warm-start benchmark and its tests.
inline lp::LpProblem margin_lp(std::mt19937& rng, std::size_t coeffs,
                               int rows) {
  lp::LpProblem p = lp::LpProblem::with_free_vars(coeffs + 1);
  p.sense = lp::Sense::kMaximize;
  p.objective[coeffs] = 1.0;
  for (std::size_t i = 0; i < coeffs; ++i) {
    p.lower[i] = -1.0;
    p.upper[i] = 1.0;
  }
  p.lower[coeffs] = 0.0;
  append_margin_rows(p, rng, rows);
  return p;
}

/// Reports a malformed bench knob on stderr and exits with status 2.
[[noreturn]] inline void bad_env(const char* name, const std::string& value) {
  std::fprintf(stderr, "bench: bad %s=\"%s\"\n", name, value.c_str());
  std::exit(2);
}

/// Strict integer parse: the whole token must be a decimal integer that
/// fits an int. Returns false on empty input, trailing junk or overflow.
inline bool parse_int(const std::string& text, int& value) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  if (v < INT_MIN || v > INT_MAX) return false;
  value = static_cast<int>(v);
  return true;
}

/// Integer environment variable with default; a malformed value exits
/// through bad_env().
inline int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int value = 0;
  if (!parse_int(v, value)) bad_env(name, v);
  return value;
}

/// String environment variable with default.
inline std::string env_str(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return v ? std::string(v) : fallback;
}

/// The scaled-down Figure-4 training path (full-size geometry divided by
/// 2.5 to match V = 1 rollouts; shape preserved).
inline dubins::PiecewiseLinearPath training_path() {
  return dubins::PiecewiseLinearPath({{0.0, 0.0},
                                      {12.0, 8.0},
                                      {24.0, 10.0},
                                      {36.0, 18.0},
                                      {40.0, 30.0},
                                      {48.0, 36.0}});
}

/// Paper-default training options (§4.2) scaled to V = 1.
inline dubins::TrainOptions paper_train_options() {
  dubins::TrainOptions opts;
  opts.hidden_neurons = 10;
  opts.iterations = 50;
  opts.population = 152;
  opts.sim.velocity = 1.0;
  opts.sim.dt = 0.1;
  opts.sim.steps = 700;
  return opts;
}

/// Training recipe that produces *verifiable* controllers: rollouts from
/// offsets spanning the verification domain, and the angle-cost weight
/// rescaled to our path/velocity scale (at the paper's scale the d² term
/// dominates the cost the same way; see DESIGN.md).
inline dubins::TrainOptions verification_train_options() {
  dubins::TrainOptions opts = paper_train_options();
  opts.start_offsets = dubins::verification_offsets();
  opts.weights.angle = 1e3;
  opts.iterations = 80;
  return opts;
}

// --- JSON perf reporting ----------------------------------------------------
// Every bench executable can drop a `BENCH_<name>.json` next to itself so
// successive PRs have a machine-readable perf trajectory to diff against.

/// One measured result. Metrics that stay negative are omitted from the
/// JSON (not every bench has a boxes/sec or simulations/sec notion).
struct BenchRecord {
  std::string name;
  double wall_time_s = 0.0;
  double boxes_per_sec = -1.0;
  double simulations_per_sec = -1.0;
  double items_per_sec = -1.0;
  double speedup = -1.0;  ///< vs the named baseline record, when relevant
  /// Warm-started vs cold-started solve time on the same LP sequence
  /// (the `lp_solve:warm_speedup` CI regression gate reads this).
  double warm_speedup = -1.0;
};

/// Collects records and writes `BENCH_<bench_name>.json` in the current
/// working directory.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void add(BenchRecord record) { records_.push_back(std::move(record)); }

  /// Writes the report; returns the file name ("" on I/O failure).
  std::string write() const {
    const std::string path = "BENCH_" + bench_name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return "";
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f, "  \"threads\": %zu,\n",
                 parallel::default_thread_count());
    std::fprintf(f, "  \"results\": [");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\", \"wall_time_s\": %.6g",
                   i ? "," : "", r.name.c_str(), r.wall_time_s);
      if (r.boxes_per_sec >= 0.0) {
        std::fprintf(f, ", \"boxes_per_sec\": %.6g", r.boxes_per_sec);
      }
      if (r.simulations_per_sec >= 0.0) {
        std::fprintf(f, ", \"simulations_per_sec\": %.6g",
                     r.simulations_per_sec);
      }
      if (r.items_per_sec >= 0.0) {
        std::fprintf(f, ", \"items_per_sec\": %.6g", r.items_per_sec);
      }
      if (r.speedup >= 0.0) {
        std::fprintf(f, ", \"speedup\": %.4g", r.speedup);
      }
      if (r.warm_speedup >= 0.0) {
        std::fprintf(f, ", \"warm_speedup\": %.4g", r.warm_speedup);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    return path;
  }

 private:
  std::string bench_name_;
  std::vector<BenchRecord> records_;
};

}  // namespace bcert::bench
