// Micro-benchmarks (google-benchmark) for the substrate layers: interval
// arithmetic, expression evaluation (scalar & interval), HC4 contraction,
// NN forward passes, the LP solver, RK4 integration, and the
// eigendecomposition used by CMA-ES — plus headline measurements
// (budget-bound ICP throughput, allocating vs zero-alloc RK4, ...) that
// are written to BENCH_micro.json.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <random>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/expr/derivative.h"
#include "src/scenario/generator.h"
#include "src/smt/cache_io.h"
#include "src/expr/eval.h"
#include "src/linalg/decompositions.h"
#include "src/smt/hc4.h"
#include "src/smt/icp_solver.h"

namespace {

using namespace bcert;
using interval::Box;
using interval::Interval;
using linalg::Vector;

void BM_IntervalArithmetic(benchmark::State& state) {
  Interval a(0.3, 1.7), b(-2.0, 0.4);
  for (auto _ : state) {
    Interval c = a * b + a - b / Interval(2.0, 3.0);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_IntervalArithmetic);

void BM_IntervalTranscendental(benchmark::State& state) {
  Interval a(-0.8, 0.9);
  for (auto _ : state) {
    Interval c = interval::tanh(interval::sin(a) + interval::cos(a));
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_IntervalTranscendental);

nn::FeedforwardNet make_net(std::size_t hidden) {
  std::mt19937 rng(5);
  nn::FeedforwardNet net = nn::FeedforwardNet::single_hidden(2, hidden, 1);
  net.randomize(rng);
  return net;
}

void BM_NnForward(benchmark::State& state) {
  const nn::FeedforwardNet net =
      make_net(static_cast<std::size_t>(state.range(0)));
  const Vector x{0.7, -0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x));
  }
}
BENCHMARK(BM_NnForward)->Arg(10)->Arg(100)->Arg(1000);

void BM_NnSymbolicEvalScalar(benchmark::State& state) {
  const nn::FeedforwardNet net =
      make_net(static_cast<std::size_t>(state.range(0)));
  expr::ExprPool pool;
  expr::Evaluator ev(pool, net.to_expr(pool, {pool.var(0), pool.var(1)}));
  const Vector x{0.7, -0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.eval(x));
  }
}
BENCHMARK(BM_NnSymbolicEvalScalar)->Arg(10)->Arg(100)->Arg(1000);

void BM_NnSymbolicEvalInterval(benchmark::State& state) {
  const nn::FeedforwardNet net =
      make_net(static_cast<std::size_t>(state.range(0)));
  expr::ExprPool pool;
  expr::Evaluator ev(pool, net.to_expr(pool, {pool.var(0), pool.var(1)}));
  const Box box = Box::from_bounds({{0.6, 0.8}, {-0.4, -0.2}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ev.eval(box));
  }
}
BENCHMARK(BM_NnSymbolicEvalInterval)->Arg(10)->Arg(100)->Arg(1000);

smt::Conjunction lie_conjunction(expr::ExprPool& pool, std::size_t hidden) {
  const nn::FeedforwardNet net = make_net(hidden);
  const dubins::ErrorModel model{1.0, 0.0};
  const auto field = dubins::closed_loop_field_expr(model, net, pool);
  core::QuadraticForm w(2, Vector{0.4, 0.7, 1.0});
  const expr::ExprId lie =
      expr::lie_derivative(pool, w.to_expr(pool), field);
  smt::Conjunction c;
  c.add(pool.add(lie, pool.constant(1e-6)), smt::Rel::kGe);
  return c;
}

void BM_Hc4ContractLieDerivative(benchmark::State& state) {
  expr::ExprPool pool;
  const smt::Conjunction c =
      lie_conjunction(pool, static_cast<std::size_t>(state.range(0)));
  smt::Hc4Contractor contractor(pool, c, smt::Hc4Mode::kTree);
  for (auto _ : state) {
    Box box = Box::from_bounds({{1.0, 2.0}, {0.2, 0.6}});
    benchmark::DoNotOptimize(contractor.contract(box));
  }
}
BENCHMARK(BM_Hc4ContractLieDerivative)->Arg(10)->Arg(100)->Arg(1000);

void BM_Hc4ContractTapeLieDerivative(benchmark::State& state) {
  expr::ExprPool pool;
  const smt::Conjunction c =
      lie_conjunction(pool, static_cast<std::size_t>(state.range(0)));
  smt::Hc4Contractor contractor(pool, c, smt::Hc4Mode::kTape);
  for (auto _ : state) {
    Box box = Box::from_bounds({{1.0, 2.0}, {0.2, 0.6}});
    benchmark::DoNotOptimize(contractor.contract(box));
  }
}
BENCHMARK(BM_Hc4ContractTapeLieDerivative)->Arg(10)->Arg(100)->Arg(1000);

void BM_SimplexMarginLp(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> d(0.1, 2.0);
  lp::LpProblem p = lp::LpProblem::with_free_vars(4);
  p.sense = lp::Sense::kMaximize;
  p.objective[3] = 1.0;
  for (int i = 0; i < 3; ++i) {
    p.lower[i] = -1.0;
    p.upper[i] = 1.0;
  }
  p.lower[3] = 0.0;
  for (int i = 0; i < rows; ++i) {
    p.add_row(Vector{-d(rng), -d(rng), -d(rng), 1.0}, lp::RowRel::kLe, 0.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(p));
  }
}
BENCHMARK(BM_SimplexMarginLp)->Arg(100)->Arg(400)->Arg(1000);

void BM_LpSolveCold(benchmark::State& state) {
  std::mt19937 rng(7);
  const lp::LpProblem p =
      bench::margin_lp(rng, 6, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(p));
  }
}
BENCHMARK(BM_LpSolveCold)->Arg(100)->Arg(400);

void BM_LpSolveWarm(benchmark::State& state) {
  // The refinement-loop pattern: the previous iteration's LP has been
  // solved (its basis is in hand) and 4 counterexample rows arrive.
  std::mt19937 rng(7);
  lp::LpProblem p =
      bench::margin_lp(rng, 6, static_cast<int>(state.range(0)) - 4);
  const lp::LpSolution base = solve_lp(p);
  bench::append_margin_rows(p, rng, 4);
  lp::SimplexOptions opts;
  opts.warm_start = base.basis;
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(p, opts));
  }
}
BENCHMARK(BM_LpSolveWarm)->Arg(100)->Arg(400);

void BM_Rk4DubinsTrace(benchmark::State& state) {
  const nn::FeedforwardNet net = make_net(10);
  const auto field =
      dubins::closed_loop_field(dubins::ErrorModel{1.0, 0.0}, net);
  ode::IntegrateOptions opts;
  opts.step = 0.01;
  opts.t_end = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(integrate_rk4(field, Vector{3.0, 0.5}, opts));
  }
}
BENCHMARK(BM_Rk4DubinsTrace);

void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> d(-1.0, 1.0);
  linalg::Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = r; c < n; ++c) a(r, c) = a(c, r) = d(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::symmetric_eigen(a));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(8)->Arg(32)->Arg(64);

void BM_FullVerificationSmall(benchmark::State& state) {
  for (auto _ : state) {
    expr::ExprPool pool;
    const nn::FeedforwardNet net =
        dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
    core::Engine engine;
    benchmark::DoNotOptimize(
        engine.verify(bench::make_problem(pool, net)));
  }
}
BENCHMARK(BM_FullVerificationSmall)->Unit(benchmark::kMillisecond);

// --- headline head-to-head measurements (BENCH_micro.json) ------------------
// These seed the machine-readable perf trajectory: ICP branch-and-prune
// sequential vs parallel, and the RK4 rollout pipeline before/after
// allocation elimination. BCERT_ICP_BOXES / BCERT_ROLLOUTS scale the work.

using bench_clock = std::chrono::steady_clock;

double wall_of(const std::function<void()>& fn) {
  const auto t0 = bench_clock::now();
  fn();
  return std::chrono::duration<double>(bench_clock::now() - t0).count();
}

/// Interval-opaque identity over the closed-loop Lie derivative:
/// h = (E + E) − E − E is identically zero, but its natural enclosure
/// always straddles zero on non-degenerate boxes, so `h > 0` never
/// resolves and branch-and-prune runs to its box budget — a uniform,
/// NN-heavy workload representative of the paper's SMT-(5) queries.
smt::Conjunction icp_workload(expr::ExprPool& pool) {
  const nn::FeedforwardNet net = make_net(10);
  const dubins::ErrorModel model{1.0, 0.0};
  const auto field = dubins::closed_loop_field_expr(model, net, pool);
  core::QuadraticForm w(2, Vector{0.4, 0.7, 1.0});
  const expr::ExprId lie =
      expr::lie_derivative(pool, w.to_expr(pool), field);
  const expr::ExprId h =
      pool.sub(pool.sub(pool.add(lie, lie), lie), lie);
  smt::Conjunction c;
  c.add(h, smt::Rel::kGt);
  return c;
}

void headline_icp(bench::JsonReport& report) {
  expr::ExprPool pool;
  const smt::Conjunction c = icp_workload(pool);
  const Box box = Box::from_bounds({{-4.0, 4.0}, {-1.5, 1.5}});

  smt::IcpConfig config;
  config.delta = -1.0;  // unreachable: the run is exactly budget-bound
  config.max_boxes = static_cast<std::uint64_t>(
      bench::env_int("BCERT_ICP_BOXES", 20000));
  config.time_limit_s = 300.0;

  smt::IcpResult seq;
  const double seq_s = wall_of([&] {
    seq = smt::IcpSolver(pool, config).solve(c, box);
  });
  report.add({"icp_branch_and_prune_seq", seq_s,
              static_cast<double>(seq.stats.boxes_processed) / seq_s});
  std::printf("headline icp: %.3fs, %.0f boxes/s\n", seq_s,
              static_cast<double>(seq.stats.boxes_processed) / seq_s);
}

/// Warm-vs-cold ICP over a verifier-shaped candidate sequence: the same
/// conjunction *structure* refuted repeatedly while only its constants
/// drift (the LP ↔ SMT pattern: each iteration rebuilds the Lie
/// expression with new W coefficients). The workload is the interval
/// dependency identity c·((x+y)² − x² − 2xy − y²) ≥ ε: identically
/// zero, so the query is UNSAT, but only refutable by subdividing until
/// every enclosure tightens below ε — a deep, deterministic split tree.
/// The warm pass re-seeds each solve from the previous proof's leaf
/// partition (UNSAT-tree warm starts); the cold pass re-derives the
/// tree every time. Gated in CI via icp_warm_sequence:warm_speedup.
void headline_icp_warm(bench::JsonReport& report) {
  const int iters = bench::env_int("BCERT_ICP_WARM_ITERS", 10);
  expr::ExprPool pool;
  const Box box = Box::from_bounds({{-1.0, 1.0}, {-1.0, 1.0}});

  const auto query = [&pool](double coeff) {
    const expr::ExprId x = pool.var(0);
    const expr::ExprId y = pool.var(1);
    const expr::ExprId h = pool.sub(
        pool.sub(pool.sub(pool.sqr(pool.add(x, y)), pool.sqr(x)),
                 pool.mul(pool.constant(2.0), pool.mul(x, y))),
        pool.sqr(y));
    smt::Conjunction q;
    q.add(pool.sub(pool.mul(pool.constant(coeff), h), pool.constant(0.2)),
          smt::Rel::kGe);
    return q;
  };
  std::vector<smt::Conjunction> sequence;
  for (int k = 0; k < iters; ++k) {
    sequence.push_back(query(1.2 + 0.005 * k));
  }

  smt::IcpConfig config;
  config.delta = 1e-3;
  config.max_boxes = 50'000'000;
  config.time_limit_s = 600.0;

  std::uint64_t cold_boxes = 0, warm_boxes = 0;
  std::uint32_t warm_hits = 0;
  // Best-of-3 per pass (fresh caches each rep), as for the LP headline.
  const auto best_of = [&](const std::function<void()>& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) best = std::min(best, wall_of(fn));
    return best;
  };

  const double cold_s = best_of([&] {
    cold_boxes = 0;
    smt::IcpConfig cold = config;
    cold.warm_start = false;  // pure legacy path: no cache, no recording
    const smt::IcpSolver solver(pool, cold);
    for (const smt::Conjunction& q : sequence) {
      const smt::IcpResult r = solver.solve(q, box);
      cold_boxes += r.stats.boxes_processed;
      benchmark::DoNotOptimize(&r);
    }
  });
  const double warm_s = best_of([&] {
    warm_boxes = 0;
    warm_hits = 0;
    smt::IcpConfig warm = config;
    warm.unsat_cache = std::make_shared<smt::UnsatTreeCache>();
    const smt::IcpSolver solver(pool, warm);
    for (const smt::Conjunction& q : sequence) {
      const smt::IcpResult r = solver.solve(q, box);
      warm_boxes += r.stats.boxes_processed;
      warm_hits += r.stats.warm_starts;
      benchmark::DoNotOptimize(&r);
    }
  });

  report.add({"icp_sequence_cold", cold_s,
              static_cast<double>(cold_boxes) / cold_s});
  report.add({"icp_sequence_warm", warm_s,
              static_cast<double>(warm_boxes) / warm_s});
  bench::BenchRecord combined;
  combined.name = "icp_warm_sequence";
  combined.wall_time_s = cold_s + warm_s;
  combined.warm_speedup = cold_s / warm_s;
  report.add(combined);
  std::printf("headline icp warm: cold %.3fs (%llu boxes), warm %.3fs "
              "(%llu boxes, %u warm-started of %d, warm_speedup %.2fx)\n",
              cold_s, static_cast<unsigned long long>(cold_boxes), warm_s,
              static_cast<unsigned long long>(warm_boxes), warm_hits, iters,
              combined.warm_speedup);
}

/// HC4 contraction throughput, tree-walking vs compiled bytecode tape,
/// on the paper's Table-1 barrier conjunction (Lie derivative of the
/// quadratic certificate through the closed-loop NN dynamics). The
/// measured unit mirrors the ICP hot loop: one contract_fixpoint plus
/// the certainly_satisfied check, over a rotating set of boxes.
void headline_hc4(bench::JsonReport& report) {
  expr::ExprPool pool;
  const smt::Conjunction c = lie_conjunction(pool, 10);
  const int contracts = bench::env_int("BCERT_HC4_CONTRACTS", 4000);

  std::vector<Box> boxes;
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> d(-4.0, 4.0);
  for (int i = 0; i < 64; ++i) {
    double xl = d(rng), xh = d(rng);
    if (xl > xh) std::swap(xl, xh);
    double yl = d(rng) / 3.0, yh = d(rng) / 3.0;
    if (yl > yh) std::swap(yl, yh);
    boxes.push_back(Box::from_bounds({{xl, xh}, {yl, yh}}));
  }

  // Best-of-3 per backend: the headline ratio should reflect the code,
  // not transient scheduler noise on shared CI machines.
  const auto run = [&](smt::Hc4Mode mode) {
    smt::Hc4Contractor contractor(pool, c, mode);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, wall_of([&] {
               for (int i = 0; i < contracts; ++i) {
                 Box box = boxes[static_cast<std::size_t>(i) % boxes.size()];
                 if (contractor.contract_fixpoint(box, 8, 0.05) !=
                     smt::ContractResult::kEmpty) {
                   benchmark::DoNotOptimize(
                       contractor.certainly_satisfied(box));
                 }
                 benchmark::DoNotOptimize(box);
               }
             }));
    }
    return best;
  };

  const double tree_s = run(smt::Hc4Mode::kTree);
  report.add({"hc4_contract_tree", tree_s, -1.0, -1.0, contracts / tree_s});

  const double tape_s = run(smt::Hc4Mode::kTape);
  bench::BenchRecord tape;
  tape.name = "hc4_contract_tape";
  tape.wall_time_s = tape_s;
  tape.items_per_sec = contracts / tape_s;
  tape.speedup = tree_s / tape_s;
  report.add(tape);

  const double jit_s = run(smt::Hc4Mode::kJit);
  bench::BenchRecord jit;
  jit.name = "hc4_contract_jit";
  jit.wall_time_s = jit_s;
  jit.items_per_sec = contracts / jit_s;
  jit.speedup = tape_s / jit_s;  // over the tape interpreter, not the tree
  report.add(jit);
  std::printf(
      "headline hc4: tree %.3fs, tape %.3fs (speedup %.2fx), "
      "jit %.3fs (speedup %.2fx over tape)\n",
      tree_s, tape_s, tape.speedup, jit_s, jit.speedup);
}

/// LP warm-starting on the candidate loop's solve sequence: one base
/// margin LP plus BCERT_LP_ITERS refinement steps of 4 appended
/// counterexample rows each (the shape the candidate loop produces). The
/// cold pass solves every step from scratch; the warm pass threads each
/// step's exported basis into the next solve, exactly as the verifiers
/// do. Gated in CI via lp_solve:warm_speedup.
void headline_lp(bench::JsonReport& report) {
  const int base_rows = bench::env_int("BCERT_LP_ROWS", 240);
  const int iters = bench::env_int("BCERT_LP_ITERS", 20);
  constexpr std::size_t kCoeffs = 6;
  constexpr int kAppend = 4;

  // One fixed LP sequence, shared by both passes.
  std::mt19937 rng(23);
  std::vector<lp::LpProblem> sequence;
  sequence.push_back(bench::margin_lp(rng, kCoeffs, base_rows));
  for (int it = 1; it <= iters; ++it) {
    lp::LpProblem next = sequence.back();
    bench::append_margin_rows(next, rng, kAppend);
    sequence.push_back(std::move(next));
  }

  int warm_hits = 0;
  // Best-of-3 per pass, as for the HC4 headline: the gated ratio should
  // reflect the code, not scheduler noise on shared CI machines.
  const auto best_of = [&](const std::function<void()>& fn) {
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) best = std::min(best, wall_of(fn));
    return best;
  };

  const double cold_s = best_of([&] {
    for (const lp::LpProblem& p : sequence) {
      benchmark::DoNotOptimize(solve_lp(p));
    }
  });
  const double warm_s = best_of([&] {
    warm_hits = 0;
    lp::SimplexOptions opts;
    for (const lp::LpProblem& p : sequence) {
      const lp::LpSolution sol = solve_lp(p, opts);
      warm_hits += sol.used_warm_start ? 1 : 0;
      opts.warm_start = sol.basis;
      benchmark::DoNotOptimize(&sol);
    }
  });

  const double solves = static_cast<double>(sequence.size());
  report.add({"lp_solve_cold", cold_s, -1.0, -1.0, solves / cold_s});
  report.add({"lp_solve_warm", warm_s, -1.0, -1.0, solves / warm_s});
  bench::BenchRecord combined;
  combined.name = "lp_solve";
  combined.wall_time_s = cold_s + warm_s;
  combined.warm_speedup = cold_s / warm_s;
  report.add(combined);
  std::printf("headline lp: cold %.3fs, warm %.3fs over %d solves "
              "(%d warm-started, warm_speedup %.2fx)\n",
              cold_s, warm_s, static_cast<int>(solves), warm_hits,
              combined.warm_speedup);
}

/// The seed's allocating RK4 (fresh temporaries every stage) — kept here
/// verbatim as the baseline the zero-allocation pipeline is measured
/// against.
Vector seed_rk4_step(const ode::VectorField& f, const Vector& x, double h) {
  const Vector k1 = f(x);
  const Vector k2 = f(x + k1 * (h / 2.0));
  const Vector k3 = f(x + k2 * (h / 2.0));
  const Vector k4 = f(x + k3 * h);
  return x + (k1 + 2.0 * k2 + 2.0 * k3 + k4) * (h / 6.0);
}

ode::Trace seed_integrate_rk4(const ode::VectorField& f, const Vector& x0,
                              const ode::IntegrateOptions& opts) {
  ode::Trace trace;
  const auto steps =
      static_cast<std::size_t>(std::ceil(opts.t_end / opts.step));
  trace.reserve(steps + 1);
  Vector x = x0;
  double t = 0.0;
  trace.push_back(t, x);
  for (std::size_t i = 0; i < steps; ++i) {
    const double h = std::min(opts.step, opts.t_end - t);
    if (h <= 0.0) break;
    x = seed_rk4_step(f, x, h);
    t += h;
    trace.push_back(t, x);
  }
  return trace;
}

void headline_rk4(bench::JsonReport& report) {
  const nn::FeedforwardNet net = make_net(10);
  const dubins::ErrorModel model{1.0, 0.0};
  const int rollouts = bench::env_int("BCERT_ROLLOUTS", 100);
  ode::IntegrateOptions opts;
  opts.step = 0.01;
  opts.t_end = 10.0;
  const Vector x0{3.0, 0.5};

  const ode::VectorField legacy = dubins::closed_loop_field(model, net);
  const double seed_s = wall_of([&] {
    for (int i = 0; i < rollouts; ++i) {
      benchmark::DoNotOptimize(seed_integrate_rk4(legacy, x0, opts));
    }
  });
  report.add({"rk4_rollout_seed", seed_s, -1.0, rollouts / seed_s});

  const double inplace_s = wall_of([&] {
    ode::VectorFieldInPlace field =
        dubins::closed_loop_field_inplace(model, net);
    for (int i = 0; i < rollouts; ++i) {
      benchmark::DoNotOptimize(integrate_rk4(field, x0, opts));
    }
  });
  bench::BenchRecord inplace;
  inplace.name = "rk4_rollout_inplace";
  inplace.wall_time_s = inplace_s;
  inplace.simulations_per_sec = rollouts / inplace_s;
  inplace.speedup = seed_s / inplace_s;
  report.add(inplace);

  // Batched rollouts across the pool (the falsifier/CMA-ES pattern:
  // one field instance per strand, results indexed).
  const double batch_s = wall_of([&] {
    parallel::ThreadPool::global().parallel_for(
        0, static_cast<std::size_t>(rollouts), 8,
        [&](std::size_t lo, std::size_t hi) {
          ode::VectorFieldInPlace field =
              dubins::closed_loop_field_inplace(model, net);
          for (std::size_t i = lo; i < hi; ++i) {
            benchmark::DoNotOptimize(integrate_rk4(field, x0, opts));
          }
        });
  });
  bench::BenchRecord batch;
  batch.name = "rk4_rollout_batch_parallel";
  batch.wall_time_s = batch_s;
  batch.simulations_per_sec = rollouts / batch_s;
  batch.speedup = seed_s / batch_s;
  report.add(batch);

  std::printf("headline rk4: seed %.3fs, in-place %.3fs (%.2fx), "
              "parallel batch %.3fs (%.2fx)\n",
              seed_s, inplace_s, inplace.speedup, batch_s, batch.speedup);
}

/// Engine campaign throughput: N structurally identical scenarios — one
/// distilled controller with its weights jittered per scenario (a
/// quantization-robustness sweep, the "as many scenarios as you can
/// imagine" workload of the ROADMAP) — verified (a) cold, with a fresh
/// Engine per scenario (per-run caches only, i.e. the pre-Engine
/// one-shot behavior), vs (b) through one shared Engine campaign where
/// compiled tapes, UNSAT-tree partitions and LP bases amortize across
/// scenarios. BCERT_CAMPAIGN_SCENARIOS scales the set. Gated in CI via
/// engine_campaign:speedup.
void headline_engine_campaign(bench::JsonReport& report) {
  const int n = bench::env_int("BCERT_CAMPAIGN_SCENARIOS", 6);
  expr::ExprPool pool;
  const nn::FeedforwardNet base =
      dubins::distill_controller(dubins::proportional_teacher(), 10, 42);
  std::mt19937 rng(31);
  std::normal_distribution<double> jitter(0.0, 1e-4);

  std::vector<core::Scenario> scenarios;
  scenarios.reserve(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    nn::FeedforwardNet net = base;
    Vector params = net.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) params[i] += jitter(rng);
    net.set_parameters(params);
    core::Scenario s;
    s.name = "jitter-" + std::to_string(k);
    s.problem = bench::make_problem(pool, net);
    scenarios.push_back(std::move(s));
  }

  const core::JobOptions job;
  int cold_safe = 0;
  const double cold_s = wall_of([&] {
    cold_safe = 0;
    for (const core::Scenario& s : scenarios) {
      core::Engine engine;  // fresh caches: no cross-scenario reuse
      cold_safe += engine.verify(s.problem, job).safe() ? 1 : 0;
    }
  });

  core::Engine engine;
  core::CampaignResult campaign;
  const double shared_s = wall_of([&] {
    campaign =
        engine.run_campaign(std::span<const core::Scenario>(scenarios), job);
  });

  report.add({"engine_campaign_cold", cold_s, -1.0, -1.0,
              static_cast<double>(n) / cold_s});
  bench::BenchRecord shared;
  shared.name = "engine_campaign_shared";
  shared.wall_time_s = shared_s;
  shared.items_per_sec = campaign.scenarios_per_sec();
  report.add(shared);
  bench::BenchRecord combined;
  combined.name = "engine_campaign";
  combined.wall_time_s = cold_s + shared_s;
  combined.speedup = cold_s / shared_s;
  report.add(combined);
  std::printf("headline engine campaign: cold %.3fs (%d/%d safe), shared "
              "%.3fs (%d/%d safe, %.2f scenarios/s, speedup %.2fx)\n",
              cold_s, cold_safe, n, shared_s, campaign.safe_count, n,
              campaign.scenarios_per_sec(), combined.speedup);
}

void headline_engine_campaign_zoo(bench::JsonReport& report) {
  // The workload-zoo headline: a generated mixed-plant campaign (all
  // five families round-robin, jittered dynamics/weights/regions, mixed
  // quadratic/polynomial templates) through one shared-cache Engine.
  const int n = bench::env_int("BCERT_ZOO_SCENARIOS", 64);
  const int seed = bench::env_int("BCERT_ZOO_SEED", 1);
  scenario::GeneratorConfig config;
  config.seed = static_cast<std::uint64_t>(seed);
  config.count = static_cast<std::size_t>(n);
  config.jitter_templates = true;
  expr::ExprPool pool;
  const std::vector<core::Scenario> scenarios =
      scenario::ScenarioGenerator(pool, config).generate();

  core::Engine engine;
  core::CampaignResult campaign;
  const core::JobOptions job = scenario::zoo_job_defaults();
  const double zoo_s = wall_of([&] {
    campaign =
        engine.run_campaign(std::span<const core::Scenario>(scenarios), job);
  });

  bench::BenchRecord zoo;
  zoo.name = "engine_campaign_zoo";
  zoo.wall_time_s = zoo_s;
  zoo.items_per_sec = campaign.scenarios_per_sec();
  report.add(zoo);
  std::printf("headline engine campaign zoo: %d generated scenarios in "
              "%.3fs (%d safe, %d failed, %.2f scenarios/s)\n",
              n, zoo_s, campaign.safe_count, campaign.failed_count,
              campaign.scenarios_per_sec());
}

/// The `bcertd` restart headline: the same generated zoo suite verified
/// (a) by a cold Engine and (b) by a fresh Engine restored from the
/// first one's warm-state snapshot — round-tripped through the real
/// serialization container (encode_snapshot → decode_snapshot), exactly
/// what a daemon restart does minus the socket. The verdicts are
/// bit-identical by the warm-state contract; the gated ratio is the
/// restart's payoff: compiled tapes, refutation trees and LP bases
/// survive the process boundary. BCERT_RESTART_SCENARIOS scales the
/// suite. Gated in CI via bcertd_warm_restart:warm_speedup.
void headline_bcertd_warm_restart(bench::JsonReport& report) {
  const int n = bench::env_int("BCERT_RESTART_SCENARIOS", 6);
  scenario::GeneratorConfig config;
  config.seed = 7;
  config.count = static_cast<std::size_t>(n);
  const core::JobOptions job = scenario::zoo_job_defaults();

  const auto run_suite = [&](core::Engine& engine) {
    expr::ExprPool pool;
    const std::vector<core::Scenario> scenarios =
        scenario::ScenarioGenerator(pool, config).generate();
    core::CampaignResult campaign;
    const double elapsed = wall_of([&] {
      campaign =
          engine.run_campaign(std::span<const core::Scenario>(scenarios), job);
    });
    return std::make_pair(elapsed, campaign.safe_count);
  };

  core::Engine cold_engine;
  const auto [cold_s, cold_safe] = run_suite(cold_engine);

  // The snapshot round trip a daemon restart performs.
  const std::vector<std::uint8_t> snapshot =
      smt::encode_snapshot(cold_engine.export_warm_state());
  smt::WarmState restored;
  std::string error;
  if (!smt::decode_snapshot(snapshot.data(), snapshot.size(), restored,
                            &error)) {
    std::printf("headline bcertd restart: snapshot rejected (%s)\n",
                error.c_str());
    return;
  }
  core::Engine warm_engine;
  warm_engine.import_warm_state(std::move(restored));
  const auto [warm_s, warm_safe] = run_suite(warm_engine);

  bench::BenchRecord cold;
  cold.name = "bcertd_restart_cold";
  cold.wall_time_s = cold_s;
  cold.items_per_sec = static_cast<double>(n) / cold_s;
  report.add(cold);
  bench::BenchRecord warm;
  warm.name = "bcertd_restart_warm";
  warm.wall_time_s = warm_s;
  warm.items_per_sec = static_cast<double>(n) / warm_s;
  report.add(warm);
  bench::BenchRecord combined;
  combined.name = "bcertd_warm_restart";
  combined.wall_time_s = cold_s + warm_s;
  combined.warm_speedup = cold_s / warm_s;
  report.add(combined);
  std::printf(
      "headline bcertd restart: cold %.3fs (%d/%d safe), snapshot %zu "
      "bytes, restarted %.3fs (%d/%d safe, warm speedup %.2fx, "
      "%llu tape + %llu tree restores)\n",
      cold_s, cold_safe, n, snapshot.size(), warm_s, warm_safe, n,
      combined.warm_speedup,
      static_cast<unsigned long long>(warm_engine.tape_cache().warm_restores()),
      static_cast<unsigned long long>(
          warm_engine.unsat_cache().warm_restores()));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::JsonReport report("micro");
  headline_hc4(report);
  headline_icp(report);
  headline_icp_warm(report);
  headline_lp(report);
  headline_rk4(report);
  headline_engine_campaign(report);
  headline_engine_campaign_zoo(report);
  headline_bcertd_warm_restart(report);
  const std::string path = report.write();
  if (!path.empty()) std::printf("wrote %s\n", path.c_str());
  return 0;
}
