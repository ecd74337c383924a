// Reproduces Table 1: timing of the safety-verification procedure for
// NN controllers of increasing hidden-layer width.
//
// Columns match the paper: hidden neurons; average number of candidate
// iterations; average time per LP solve; average time per SMT-(5) query;
// total generator-computation time; time in other steps; total time.
// Values are averages over several seeds (paper: 30; default here: 3,
// override with BCERT_SEEDS).
//
// Environment knobs:
//   BCERT_SIZES=small|full|comma,list   widths to run (default small:
//                                       10..100; full adds 300..1000)
//   BCERT_SEEDS=N                       seeds to average over (default 3)
//   BCERT_TRAIN=1                       train the ≤100-neuron controllers
//                                       with CMA-ES policy search (paper
//                                       §4.2) instead of distillation
#include <cstdio>
#include <sstream>
#include <vector>

#include "bench/bench_common.h"

namespace {

using namespace bcert;

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  if (spec == "small") return {10, 20, 40, 50, 70, 80, 90, 100};
  if (spec == "full") {
    return {10, 20, 40, 50, 70, 80, 90, 100, 300, 500, 700, 1000};
  }
  std::vector<std::size_t> out;
  std::stringstream ss(spec);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    int width = 0;
    if (!bench::parse_int(tok, width) || width <= 0) {
      bench::bad_env("BCERT_SIZES", spec);
    }
    out.push_back(static_cast<std::size_t>(width));
  }
  return out;
}

nn::FeedforwardNet make_controller(std::size_t hidden, unsigned seed,
                                   bool train) {
  if (train && hidden <= 100) {
    dubins::TrainOptions opts = bench::paper_train_options();
    opts.hidden_neurons = hidden;
    opts.seed = seed;
    return train_controller(bench::training_path(), opts).controller;
  }
  return dubins::distill_controller(dubins::proportional_teacher(), hidden,
                                    seed * 7919 + 13);
}

}  // namespace

int main() {
  const std::vector<std::size_t> sizes =
      parse_sizes(bench::env_str("BCERT_SIZES", "small"));
  const int seeds = bench::env_int("BCERT_SEEDS", 3);
  const bool train = bench::env_int("BCERT_TRAIN", 0) != 0;
  bench::JsonReport report("table1");

  std::printf("# Table 1 reproduction: safety-verification timing vs NN "
              "size\n");
  std::printf("# controllers: %s; seeds averaged: %d (paper: 30)\n",
              train ? "CMA-ES policy search (<=100), distilled (>100)"
                    : "distilled from proportional teacher",
              seeds);
  std::printf("#\n");
  std::printf("# %7s %8s | %9s %9s %9s | %8s | %8s | %6s\n", "neurons",
              "safe", "avg.iter", "LP(s)", "Query(s)", "GenTot(s)",
              "Other(s)", "Tot(s)");

  for (const std::size_t hidden : sizes) {
    double sum_iters = 0, sum_lp = 0, sum_q = 0, sum_gen = 0, sum_other = 0,
           sum_total = 0;
    int safe_count = 0;
    for (int s = 0; s < seeds; ++s) {
      expr::ExprPool pool;
      const nn::FeedforwardNet net =
          make_controller(hidden, static_cast<unsigned>(s + 1), train);
      core::VerifierOptions opts;
      opts.seed = static_cast<unsigned>(1000 + s);
      core::Engine engine;
      core::JobOptions job;
      job.verify = opts;
      const core::VerifyResult r =
          engine.verify(bench::make_problem(pool, net), job);
      if (r.safe()) ++safe_count;
      sum_iters += r.timings.candidate_iterations;
      sum_lp += r.timings.avg_lp_time_s();
      sum_q += r.timings.avg_smt5_time_s();
      sum_gen += r.timings.generator_time_s;
      sum_other += r.timings.total_time_s - r.timings.generator_time_s;
      sum_total += r.timings.total_time_s;
    }
    const double n = seeds;
    std::printf("  %7zu %5d/%-2d | %9.1f %9.3f %9.3f | %8.2f | %8.2f | "
                "%6.2f\n",
                hidden, safe_count, seeds, sum_iters / n, sum_lp / n,
                sum_q / n, sum_gen / n, sum_other / n, sum_total / n);
    std::fflush(stdout);
    bench::BenchRecord rec;
    rec.name = "verify_nn" + std::to_string(hidden);
    rec.wall_time_s = sum_total / n;
    rec.items_per_sec = sum_total > 0.0 ? seeds / sum_total : -1.0;
    report.add(rec);
  }
  std::printf("#\n# paper trend: near-flat iteration count; query time "
              "grows with NN size\n");
  const std::string path = report.write();
  if (!path.empty()) std::printf("# wrote %s\n", path.c_str());
  return 0;
}
