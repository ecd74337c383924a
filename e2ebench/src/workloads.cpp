#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "src/core/engine.h"
#include "src/core/pipeline.h"
#include "src/daemon/client.h"
#include "src/daemon/protocol.h"
#include "src/daemon/server.h"
#include "src/parallel/thread_pool.h"
#include "src/scenario/generator.h"
#include "stats.h"
#include "trace.h"
#include "verdicts.h"

namespace e2e {

namespace {

using bcert::core::BarrierPipeline;
using bcert::core::CampaignResult;
using bcert::core::JobOptions;
using bcert::core::JobPhase;
using bcert::core::JobProgress;
using bcert::core::PolynomialForm;
using bcert::core::QuadraticForm;
using bcert::core::Scenario;
using bcert::core::TemplateSpec;
using bcert::core::VerifyResult;
using bcert::core::VerifyStatus;
using Clock = std::chrono::steady_clock;

// The suites, submitted in generator order. The zoo workloads run
// ScenarioGenerator seed 1 (20 scenarios, templates jittered);
// daemon-restart runs the bcertd specs of seed 7 (10 scenarios, generator
// defaults). --seed does not change them: see README.md ("Seeds").
constexpr std::uint64_t kZooSeed = 1;
constexpr std::size_t kZooCount = 20;
constexpr std::uint64_t kDaemonSeed = 7;
constexpr std::size_t kDaemonCount = 10;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 21;
/// Longest a daemon client waits for one response or verdict.
constexpr double kDaemonWaitS = 150.0;

const char* const kFamilies[] = {"acc", "quadrotor", "pendulum-elm",
                                 "dubins-elm", "dubins-ctrnn"};
const char* const kPhases[] = {"seeding", "candidate_loop", "level_set"};
const char* const kModes[] = {"jit", "tape", "tree"};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Zoo scenario names are "<family>-s<seed>-<index>".
std::string family_of(const std::string& name) {
  const std::size_t at = name.rfind("-s");
  return at == std::string::npos ? name : name.substr(0, at);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

bool is_zoo(const std::string& workload) {
  return workload == "zoo-serial" || workload == "zoo-parallel";
}

std::string reference_file(const Options& options) {
  return options.reference_dir + "/" +
         (is_zoo(options.workload) ? "zoo-s1-n20.txt" : "daemon-s7-n10.txt");
}

// --- the zoo suite ----------------------------------------------------------

/// How an Engine and its jobs are configured.
struct EngineConfig {
  int workers = 0;      ///< 0 = library default (BCERT_THREADS / cores)
  int icp_threads = 0;  ///< 0 = automatic
  bool unsat_warm = true;
  bool lp_warm = true;
};

JobOptions job_defaults(const EngineConfig& config) {
  JobOptions job = bcert::scenario::zoo_job_defaults();
  job.verify.icp.threads = config.icp_threads;
  job.verify.icp.warm_start = config.unsat_warm;
  job.verify.synthesis.warm_start = config.lp_warm;
  return job;
}

JobOptions scenario_job(const Scenario& scenario, const JobOptions& defaults) {
  JobOptions job = defaults;
  if (scenario.certificate) job.certificate = *scenario.certificate;
  return job;
}

/// A generated suite and the Engine that runs it. The pool outlives the
/// Engine (members are destroyed in reverse order); replace a live suite
/// through replace_suite, never by plain assignment, which would free the
/// pool first.
struct Suite {
  std::unique_ptr<bcert::expr::ExprPool> pool;
  std::vector<Scenario> scenarios;  ///< in submission order
  std::unique_ptr<bcert::Engine> engine;
  double generate_s = 0.0;
};

void replace_suite(Suite& suite, Suite next) {
  suite.engine.reset();
  suite = std::move(next);
}

bcert::scenario::GeneratorConfig zoo_generator() {
  bcert::scenario::GeneratorConfig config;
  config.seed = kZooSeed;
  config.count = kZooCount;
  config.jitter_templates = true;
  return config;
}

/// Suite generation plus Engine construction: the set-up of a campaign.
Suite make_suite(const EngineConfig& config) {
  Suite suite;
  const auto t0 = Clock::now();
  suite.pool = std::make_unique<bcert::expr::ExprPool>();
  bcert::scenario::ScenarioGenerator generator(*suite.pool, zoo_generator());
  suite.scenarios = generator.generate();
  suite.generate_s = since(t0);
  bcert::EngineOptions engine;
  engine.threads = config.workers;
  engine.share_lp_basis = config.lp_warm;
  suite.engine = std::make_unique<bcert::Engine>(engine);
  return suite;
}

/// Builds kSetupRepeats suites and keeps the last; returns the median
/// set-up time.
double timed_setup(const EngineConfig& config, Suite& kept) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    replace_suite(kept, Suite{});
    const auto t0 = Clock::now();
    kept = make_suite(config);
    times.push_back(since(t0));
  }
  return median(times);
}

/// What a campaign produced, however it was driven.
struct CampaignOutcome {
  double wall_s = 0.0;
  std::vector<std::string> names;  ///< submission order
  std::vector<VerifyResult> results;
  std::uint64_t failed = 0;  ///< non-ok error or quarantined
};

CampaignOutcome run_campaign(Suite& suite, const JobOptions& defaults) {
  CampaignOutcome out;
  const auto t0 = Clock::now();
  const CampaignResult result = suite.engine->run_campaign(
      std::span<const Scenario>(suite.scenarios), defaults);
  out.wall_s = since(t0);
  for (const bcert::core::ScenarioOutcome& s : result.scenarios) {
    out.names.push_back(s.name);
    out.results.push_back(s.result);
    if (!s.result.error.ok() || s.quarantined) ++out.failed;
  }
  return out;
}

std::vector<std::string> verdict_lines(const CampaignOutcome& campaign) {
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < campaign.results.size(); ++i) {
    lines.push_back(
        bcert::daemon::verdict_line(campaign.names[i], campaign.results[i]));
  }
  return lines;
}

// --- certificates -----------------------------------------------------------

/// ICP settings of the plain reference configuration: one thread, no
/// warm starts, no shared caches, HC4 backend \p mode.
bcert::core::VerifierOptions reference_options(bcert::smt::Hc4Mode mode) {
  bcert::core::VerifierOptions options =
      bcert::scenario::zoo_job_defaults().verify;
  options.icp.threads = 1;
  options.icp.hc4_mode = mode;
  options.icp.warm_start = false;
  options.icp.tape_cache = nullptr;
  options.icp.unsat_cache = nullptr;
  return options;
}

/// One replayed query of a certificate.
struct Replay {
  std::string query;  ///< scenario + sub-step
  bcert::smt::IcpResult result;
  double seconds = 0.0;
};

/// Calls \p fn with the pipeline and the form the certificate states.
/// False when the line does not describe a form of the scenario.
template <typename Fn>
bool with_certificate(const Scenario& scenario, const Certificate& cert,
                      const bcert::core::VerifierOptions& options, Fn&& fn) {
  const TemplateSpec spec = scenario.certificate.value_or(TemplateSpec{});
  const std::size_t n = scenario.problem.dims();
  bcert::linalg::Vector coeffs(cert.coeffs.size());
  for (std::size_t i = 0; i < cert.coeffs.size(); ++i) coeffs[i] = cert.coeffs[i];
  if (cert.template_kind == "quadratic" &&
      spec.kind == TemplateSpec::Kind::kQuadratic &&
      coeffs.size() == QuadraticForm::basis_size(n)) {
    BarrierPipeline<QuadraticForm> pipeline(scenario.problem, options, spec);
    fn(pipeline, QuadraticForm(n, coeffs));
    return true;
  }
  if (cert.template_kind == "polynomial" &&
      spec.kind == TemplateSpec::Kind::kPolynomial) {
    BarrierPipeline<PolynomialForm> pipeline(scenario.problem, options, spec);
    if (coeffs.size() != pipeline.context().basis.size()) return false;
    fn(pipeline, PolynomialForm(pipeline.context().basis, coeffs));
    return true;
  }
  return false;
}

/// Condition (5) with the pipeline's δ-refinement: while the answer is
/// δ-SAT, re-query at δ·delta_shrink down to min_delta. Any UNSAT on the
/// way is a proof; the stats add up over the re-queries.
template <typename Pipeline, typename Form>
bcert::smt::IcpResult prove_decrease(const Pipeline& pipeline, const Form& w) {
  const bcert::core::VerifierOptions& options = pipeline.options();
  double delta = options.icp.delta;
  bcert::smt::IcpResult result = pipeline.check_decrease(w, delta);
  while (result.verdict == bcert::smt::SatResult::kDeltaSat &&
         delta > options.min_delta) {
    delta *= options.delta_shrink;
    const bcert::smt::IcpStats before = result.stats;
    result = pipeline.check_decrease(w, delta);
    result.stats.boxes_processed += before.boxes_processed;
    result.stats.boxes_pruned += before.boxes_pruned;
    result.stats.splits += before.splits;
    result.stats.warm_starts += before.warm_starts;
    result.stats.solve_time_s += before.solve_time_s;
  }
  return result;
}

/// Re-proves a SAFE line under the reference configuration (tree HC4,
/// 1 thread, no caches): BarrierPipeline::check_certificate, and when
/// its condition (5) query stops at δ-SAT, the same query with the
/// δ-refinement the pipeline applied when it accepted the certificate.
/// Counts the certificates that needed the refinement in \p refined.
bool reprove(const Scenario& scenario, const std::string& line,
             Tracer& tracer, std::size_t& refined) {
  const std::optional<Certificate> cert = parse_certificate(line);
  if (!cert) return false;
  ScopedSpan span(tracer, "check_certificate", "smt", cert->name);
  bool safe = false;
  const bool parsed = with_certificate(
      scenario, *cert, reference_options(bcert::smt::Hc4Mode::kTree),
      [&](auto& pipeline, const auto& form) {
        const VerifyStatus status =
            pipeline.check_certificate(form, cert->level);
        safe = status == VerifyStatus::kSafe;
        if (status != VerifyStatus::kMaxCandidateIterations ||
            !prove_decrease(pipeline, form).is_unsat()) {
          return;
        }
        ++refined;
        safe = pipeline.check_initial_contained(form, cert->level)
                   .is_unsat() &&
               pipeline.check_level_exclusion(form, cert->level).is_unsat();
      });
  return parsed && safe;
}

/// Replays the sub-steps of a SAFE certificate under one HC4 backend.
std::vector<Replay> replay(const Scenario& scenario, const std::string& line,
                           const char* mode_name, bcert::smt::Hc4Mode mode,
                           Tracer& tracer) {
  std::vector<Replay> out;
  const std::optional<Certificate> cert = parse_certificate(line);
  if (!cert) return out;
  with_certificate(
      scenario, *cert, reference_options(mode),
      [&](auto& pipeline, const auto& form) {
        const auto step = [&](const char* name, auto&& query) {
          Replay r;
          r.query = cert->name + ":" + name;
          ScopedSpan span(tracer, name, "smt",
                          std::string(mode_name) + ":" + cert->name);
          const auto t0 = Clock::now();
          r.result = query();
          r.seconds = since(t0);
          out.push_back(std::move(r));
        };
        step("check_decrease", [&] { return prove_decrease(pipeline, form); });
        step("check_initial_contained", [&] {
          return pipeline.check_initial_contained(form, cert->level);
        });
        step("check_level_exclusion", [&] {
          return pipeline.check_level_exclusion(form, cert->level);
        });
        if (scenario.problem.has_invariant_dims()) {
          step("check_domain_invariance",
               [&] { return pipeline.check_domain_invariance(); });
        }
      });
  return out;
}

/// Re-proves every SAFE line (traced runs) or only the SAFE lines that
/// differ from the reference (timed runs). Returns the failures.
std::size_t reprove_lines(const std::vector<const Scenario*>& scenarios,
                          const std::vector<std::string>& lines,
                          const std::map<std::string, std::string>& reference,
                          bool all, Tracer& tracer, Report& report) {
  std::size_t refined = 0;
  std::size_t failures = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::optional<Certificate> cert = parse_certificate(lines[i]);
    if (!cert || cert->status != "SAFE") continue;
    const auto ref = reference.find(cert->name);
    if (!all && ref != reference.end() && ref->second == lines[i]) continue;
    if (!reprove(*scenarios[i], lines[i], tracer, refined)) {
      std::printf("CERTIFICATE FAILED re-proof: %s\n", lines[i].c_str());
      ++failures;
    }
  }
  report.values["check.delta_refined"] += static_cast<double>(refined);
  return failures;
}

// --- the traced campaign ----------------------------------------------------

struct ProgressEvent {
  JobPhase phase;
  int level_iteration;
  long tid;
  double t;
};

/// run_campaign's submit-all-then-collect, with a per-job progress
/// callback so each job's phases become spans on the thread that ran it.
CampaignOutcome traced_campaign(Suite& suite, const JobOptions& defaults,
                                Tracer& tracer,
                                std::vector<std::vector<ProgressEvent>>& events) {
  CampaignOutcome out;
  const std::size_t n = suite.scenarios.size();
  events.assign(n, {});
  std::mutex events_mutex;
  ScopedSpan campaign(tracer, "campaign", "core");
  const auto t0 = Clock::now();
  std::vector<bcert::JobHandle> handles;
  for (std::size_t i = 0; i < n; ++i) {
    JobOptions job = scenario_job(suite.scenarios[i], defaults);
    job.on_progress = [&tracer, &events, &events_mutex,
                       i](const JobProgress& p) {
      const ProgressEvent e{p.phase, p.level_iteration, current_tid(),
                            tracer.now()};
      std::lock_guard<std::mutex> lock(events_mutex);
      events[i].push_back(e);
    };
    handles.push_back(suite.engine->submit(suite.scenarios[i].problem, job));
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.names.push_back(suite.scenarios[i].name);
    out.results.push_back(handles[i].get());
    if (!out.results.back().error.ok()) ++out.failed;
  }
  out.wall_s = since(t0);
  return out;
}

/// Job and phase spans from the progress events: a job opens at its
/// first event and lasts its own total_time_s; a phase runs from its
/// first event to the next phase's first event (or the job's end).
void add_job_spans(const CampaignOutcome& campaign,
                   const std::vector<std::vector<ProgressEvent>>& events,
                   Tracer& tracer) {
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].empty()) continue;
    const ProgressEvent& first = events[i].front();
    const double end = first.t + campaign.results[i].timings.total_time_s;
    tracer.add({"job", "core", campaign.names[i], first.tid, first.t, end});
    std::optional<double> starts[3];
    for (const ProgressEvent& e : events[i]) {
      const int p = static_cast<int>(e.phase);
      if (p < 3 && !starts[p]) starts[p] = e.t;
    }
    for (int p = 0; p < 3; ++p) {
      if (!starts[p]) continue;
      double stop = end;
      for (int q = p + 1; q < 3; ++q) {
        if (starts[q]) {
          stop = *starts[q];
          break;
        }
      }
      tracer.add({kPhases[p], "core", campaign.names[i], first.tid, *starts[p],
                  std::max(stop, *starts[p])});
    }
  }
}

/// core.*, parallel.*, sim.*, lp.* and smt.* query metrics of a traced
/// campaign.
void campaign_layer_metrics(const CampaignOutcome& campaign,
                            const std::vector<std::vector<ProgressEvent>>& events,
                            const std::vector<Span>& spans, int workers,
                            Report& report) {
  auto& v = report.values;
  const std::vector<double> self = self_times(spans);
  std::map<long, double> busy;  // per thread: outermost job time
  std::map<long, double> busy_until;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.layer != "core") continue;
    if (s.name == "job") {
      const double from = std::max(s.start_s, busy_until[s.tid]);
      busy[s.tid] += std::max(0.0, s.end_s - from);
      busy_until[s.tid] = std::max(busy_until[s.tid], s.end_s);
      continue;
    }
    if (s.name == "campaign") continue;
    v["core." + s.name + "_s"] += self[i];
    v["core." + s.name + "_s." + family_of(s.label)] += self[i];
  }
  double busy_total = 0.0;
  for (const auto& [tid, seconds] : busy) busy_total += seconds;
  v["core.nested_jobs"] = static_cast<double>(nested_spans(spans));
  v["parallel.threads_used"] = static_cast<double>(busy.size());
  v["parallel.busy_frac"] =
      campaign.wall_s > 0.0 ? busy_total / (campaign.wall_s * workers) : 0.0;
  for (std::size_t i = 0; i < campaign.results.size(); ++i) {
    const bcert::core::VerifyTimings& t = campaign.results[i].timings;
    v["core.candidate_iterations"] += t.candidate_iterations;
    int levels = 0;
    for (const ProgressEvent& e : events[i]) {
      levels = std::max(levels, e.level_iteration);
    }
    v["core.level_iterations"] += levels;
    v["sim.time_s"] += t.simulation_time_s;
    v["lp.solves"] += t.lp_solves;
    v["lp.time_s"] += t.lp_time_s;
    v["smt.smt5_queries"] += t.smt5_queries;
    v["smt.smt5_s"] += t.smt5_time_s;
    v["smt.level_s"] += t.level_set_time_s;
  }
}

void cache_metrics(const bcert::Engine& engine, Report& report) {
  const auto frac = [](const bcert::smt::KeyedCacheStats& s) {
    const double lookups = static_cast<double>(s.hits + s.misses);
    return lookups > 0.0 ? static_cast<double>(s.hits) / lookups : 0.0;
  };
  const bcert::smt::KeyedCacheStats unsat = engine.unsat_cache().stats();
  report.values["smt.tape_hit_frac"] = frac(engine.tape_cache().stats());
  report.values["smt.unsat_hit_frac"] = frac(unsat);
  report.values["smt.unsat_warm_starts"] =
      static_cast<double>(unsat.hits - std::min(unsat.hits,
                                                engine.unsat_cache().stale()));
}

/// Timed BarrierPipeline::simulate_samples over random_initial_states.
void simulation_rate(const Suite& suite, Tracer& tracer, Report& report) {
  std::size_t rollouts = 0;
  double seconds = 0.0;
  for (const Scenario& scenario : suite.scenarios) {
    // Simulation does not depend on the certificate template.
    const JobOptions job = scenario_job(scenario, job_defaults({}));
    BarrierPipeline<QuadraticForm> pipeline(scenario.problem, job.verify);
    const auto states = pipeline.random_initial_states(
        job.verify.seed_traces, job.verify.seed);
    ScopedSpan span(tracer, "simulate_samples", "ode", scenario.name);
    const auto t0 = Clock::now();
    for (const bcert::linalg::Vector& x0 : states) {
      (void)pipeline.simulate_samples(x0);
    }
    seconds += since(t0);
    rollouts += states.size();
  }
  report.values["sim.rollouts_per_s"] =
      seconds > 0.0 ? static_cast<double>(rollouts) / seconds : 0.0;
}

/// The smt replay rows: every SAFE certificate through each sub-step at
/// one ICP thread under jit, tape and tree. Returns false when a replay
/// is not UNSAT or boxes/splits differ across the backends.
bool replay_rows(const Suite& suite, const std::vector<std::string>& lines,
                 Tracer& tracer, Report& report) {
  const bcert::smt::Hc4Mode modes[] = {bcert::smt::Hc4Mode::kJit,
                                       bcert::smt::Hc4Mode::kTape,
                                       bcert::smt::Hc4Mode::kTree};
  std::vector<std::vector<Replay>> per_mode(3);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::optional<Certificate> cert = parse_certificate(lines[i]);
    if (!cert || cert->status != "SAFE") continue;
    for (int m = 0; m < 3; ++m) {
      std::vector<Replay> rows =
          replay(suite.scenarios[i], lines[i], kModes[m], modes[m], tracer);
      per_mode[m].insert(per_mode[m].end(), rows.begin(), rows.end());
    }
  }
  bool ok = true;
  for (int m = 0; m < 3; ++m) {
    double seconds = 0.0;
    std::uint64_t boxes = 0;
    std::uint64_t splits = 0;
    for (std::size_t q = 0; q < per_mode[m].size(); ++q) {
      const Replay& r = per_mode[m][q];
      seconds += r.seconds;
      boxes += r.result.stats.boxes_processed;
      splits += r.result.stats.splits;
      if (!r.result.is_unsat()) {
        std::printf("REPLAY NOT UNSAT (%s): %s -> %s\n", kModes[m],
                    r.query.c_str(),
                    bcert::smt::sat_result_name(r.result.verdict));
        ok = false;
      }
      const Replay* base = q < per_mode[0].size() ? &per_mode[0][q] : nullptr;
      if (base == nullptr || base->query != r.query ||
          r.result.stats.boxes_processed != base->result.stats.boxes_processed ||
          r.result.stats.splits != base->result.stats.splits) {
        std::printf(
            "REPLAY NOT BIT-IDENTICAL (%s vs jit): %s boxes %llu/%llu "
            "splits %llu/%llu\n",
            kModes[m], r.query.c_str(),
            static_cast<unsigned long long>(r.result.stats.boxes_processed),
            static_cast<unsigned long long>(
                base ? base->result.stats.boxes_processed : 0),
            static_cast<unsigned long long>(r.result.stats.splits),
            static_cast<unsigned long long>(base ? base->result.stats.splits
                                                 : 0));
        ok = false;
      }
    }
    const std::string mode = kModes[m];
    report.values["smt.recheck_s." + mode] = seconds;
    report.values["smt.boxes_per_s." + mode] =
        seconds > 0.0 ? static_cast<double>(boxes) / seconds : 0.0;
    if (m == 0) {
      report.values["smt.boxes"] = static_cast<double>(boxes);
      report.values["smt.splits"] = static_cast<double>(splits);
    }
  }
  return ok;
}

/// Writes the Chrome trace of a traced run under options.out_dir.
void write_trace(const Options& options, const Tracer& tracer,
                 const Report& report) {
  const std::string path = options.out_dir + "/trace-" + options.workload +
                           "-s" + std::to_string(options.seed) + ".json";
  std::ofstream(path) << chrome_trace_json(tracer.spans(),
                                           header_json(report.config));
  std::printf("trace written: %s\n", path.c_str());
}

// --- zoo workloads ------------------------------------------------------------

EngineConfig zoo_config(const std::string& workload) {
  // zoo-serial: what BCERT_THREADS=1 gives; zoo-parallel: the library
  // default (one worker per core, automatic ICP threads).
  return workload == "zoo-serial" ? EngineConfig{1, 1} : EngineConfig{0, 0};
}

void print_mismatches(const VerdictDiff& diff) {
  for (const std::string& d : diff.details) {
    std::printf("verdict mismatch: %s\n", d.c_str());
  }
}

bool run_zoo(const Options& options, Report& report) {
  const std::map<std::string, std::string> reference =
      parse_verdict_lines(read_file(reference_file(options)));
  if (reference.empty()) {
    std::printf("error: no reference verdicts at %s\n",
                reference_file(options).c_str());
    return false;
  }
  const EngineConfig config = zoo_config(options.workload);
  const JobOptions defaults = job_defaults(config);
  Tracer off(false);
  auto& v = report.values;

  Suite suite;
  const double setup_s = timed_setup(config, suite);
  const int workers = static_cast<int>(suite.engine->pool().size());
  report.config.workers = workers;

  std::vector<double> walls;
  std::vector<double> job_runs;
  std::size_t verdicts = 0;
  std::size_t safe = 0;
  std::size_t mismatched = 0;
  std::size_t unsound = 0;
  // A traced run times one untraced campaign: the baseline of
  // trace.overhead_s.
  const auto t_measure = Clock::now();
  do {
    if (!walls.empty()) replace_suite(suite, make_suite(config));
    const CampaignOutcome campaign = run_campaign(suite, defaults);
    walls.push_back(campaign.wall_s);
    report.attempted += campaign.results.size();
    report.failed += campaign.failed;
    const std::vector<std::string> lines = verdict_lines(campaign);
    const VerdictDiff diff = diff_verdicts(reference, lines);
    print_mismatches(diff);
    mismatched += diff.mismatched;
    std::vector<const Scenario*> scenarios;
    for (std::size_t i = 0; i < campaign.results.size(); ++i) {
      job_runs.push_back(campaign.results[i].timings.total_time_s);
      if (campaign.results[i].safe()) ++safe;
      scenarios.push_back(&suite.scenarios[i]);
    }
    verdicts += campaign.results.size();
    // Outside the timed campaign: a SAFE line that differs from the
    // reference must still be a certificate.
    unsound += reprove_lines(scenarios, lines, reference, false, off, report);
    std::printf("campaign %zu: wall %.3f s, %zu mismatches\n", walls.size(),
                campaign.wall_s, diff.mismatched);
  } while (!options.trace && since(t_measure) < options.seconds);

  const double wall = median(walls);
  v["setup_s"] = setup_s;
  v["wall_s"] = wall;
  v["verdicts_per_s"] = wall > 0.0 ? static_cast<double>(kZooCount) / wall : 0.0;
  v["job_run_p50_s"] = median(job_runs);
  v["safe_frac"] = static_cast<double>(safe) / static_cast<double>(verdicts);
  v["check.verdict_mismatch_frac"] =
      static_cast<double>(mismatched) / static_cast<double>(verdicts);
  std::printf("job_run_p50_s over %zu jobs; wall_s median of %zu campaigns\n",
              job_runs.size(), walls.size());
  if (unsound != 0) report.correct = false;
  if (!options.trace) {
    v["peak_rss_mb"] = peak_rss_mb();
    return true;
  }

  // --- traced run: the campaign again with spans, then the layer rows.
  Tracer tracer(true);
  Suite traced;
  {
    ScopedSpan span(tracer, "setup", "scenario");
    traced = make_suite(config);
  }
  v["scenario.generate_s"] = traced.generate_s;
  std::vector<std::vector<ProgressEvent>> events;
  const CampaignOutcome campaign =
      traced_campaign(traced, defaults, tracer, events);
  report.attempted += campaign.results.size();
  report.failed += campaign.failed;
  add_job_spans(campaign, events, tracer);
  v["trace.overhead_s"] = campaign.wall_s - wall;
  std::printf("traced campaign: wall %.3f s (untraced %.3f s)\n",
              campaign.wall_s, wall);
  campaign_layer_metrics(campaign, events, tracer.spans(), workers, report);
  cache_metrics(*traced.engine, report);
  simulation_rate(traced, tracer, report);

  const std::vector<std::string> lines = verdict_lines(campaign);
  const VerdictDiff diff = diff_verdicts(reference, lines);
  print_mismatches(diff);
  v["check.verdict_mismatch_frac"] =
      static_cast<double>(diff.mismatched + mismatched) /
      static_cast<double>(verdicts + lines.size());
  std::vector<const Scenario*> scenarios;
  for (const Scenario& s : traced.scenarios) scenarios.push_back(&s);
  v["check.delta_refined"] = 0.0;  // count over the traced campaign only
  if (reprove_lines(scenarios, lines, reference, true, tracer, report) != 0) {
    report.correct = false;
  }

  if (options.workload == "zoo-serial") {
    if (!replay_rows(traced, lines, tracer, report)) report.correct = false;
    const auto ablate = [&](const char* name, EngineConfig ablated) {
      Suite s = make_suite(ablated);
      ScopedSpan span(tracer, name, "core");
      const CampaignOutcome c = run_campaign(s, job_defaults(ablated));
      report.attempted += c.results.size();
      report.failed += c.failed;
      v[std::string("ablate.") + name + ".wall_s"] = c.wall_s;
    };
    EngineConfig unsat_off = config;
    unsat_off.unsat_warm = false;
    ablate("unsat_warm_off", unsat_off);
    EngineConfig lp_off = config;
    lp_off.lp_warm = false;
    ablate("lp_warm_off", lp_off);
  }

  write_trace(options, tracer, report);
  return true;
}

// --- daemon-restart ---------------------------------------------------------

/// A Server running its scheduler on its own thread. Destruction drains
/// it through the stop flag if no drain request did.
struct RunningServer {
  std::atomic<bool> stop{false};
  std::unique_ptr<bcert::daemon::Server> server;
  std::thread scheduler;

  RunningServer() = default;
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() {
    stop.store(true);
    join();
  }

  bool start(bcert::daemon::ServerOptions options, std::string* error) {
    options.stop_flag = &stop;
    server = std::make_unique<bcert::daemon::Server>(std::move(options));
    return server->start(error);
  }
  void run() {
    scheduler = std::thread([this] { server->run(); });
  }
  void join() {
    if (scheduler.joinable()) scheduler.join();
  }
};

bcert::daemon::ServerOptions server_options(const std::string& dir,
                                            std::ostream* log) {
  bcert::daemon::ServerOptions options;
  // Relative to the working directory: sun_path holds 107 bytes.
  options.socket_path =
      std::filesystem::relative(dir + "/bcertd.sock").string();
  options.state_dir = dir;
  options.snapshot_period_s = 0.0;  // drain-only
  options.log_level = bcert::core::ConfigLogLevel::kWarn;
  options.log_stream = log;
  options.engine.threads = 1;
  return options;
}

/// One client's closed loop over its share of the suite.
struct ClientResult {
  std::vector<std::string> lines;
  std::vector<double> latency_s;
  std::vector<double> ack_s;
  std::vector<double> run_s;
  std::uint64_t failed = 0;
};

void client_loop(const std::string& socket,
                 const std::vector<std::uint64_t>& indices, Tracer& tracer,
                 ClientResult& out) {
  bcert::daemon::Client client(socket);
  std::string error;
  for (const std::uint64_t index : indices) {
    const std::string name = "zoo-s" + std::to_string(kDaemonSeed) + "-i" +
                             std::to_string(index);
    if (!client.connected() && !client.connect(10.0, &error)) {
      ++out.failed;
      continue;
    }
    const auto t0 = Clock::now();
    bcert::daemon::JsonValue response;
    bool ok = false;
    {
      ScopedSpan span(tracer, "submit", "daemon", name);
      ok = client.request("{\"cmd\":\"submit\",\"scenario\":{\"seed\":" +
                              std::to_string(kDaemonSeed) +
                              ",\"index\":" + std::to_string(index) + "}}",
                          response, &error);
    }
    if (!ok || response.string_or("type", "") != "submitted") {
      ++out.failed;
      continue;
    }
    out.ack_s.push_back(since(t0));
    const double job = response.number_or("job", -1.0);
    bcert::daemon::JsonValue event;
    bool got = false;
    {
      ScopedSpan span(tracer, "await_verdict", "daemon", name);
      while (client.read_event(event, kDaemonWaitS, &error)) {
        if (event.string_or("type", "") == "result" &&
            event.number_or("job", -2.0) == job) {
          got = true;
          break;
        }
      }
    }
    if (!got) {
      ++out.failed;
      continue;
    }
    out.latency_s.push_back(since(t0));
    out.lines.push_back(event.string_or("verdict", ""));
    const bcert::daemon::JsonValue* result = event.find("result");
    if (result != nullptr) {
      out.run_s.push_back(result->number_or("total_time_s", 0.0));
      const bcert::daemon::JsonValue* err = result->find("error");
      if (err != nullptr && err->string_or("code", "ok") != "ok") ++out.failed;
    }
  }
}

/// Runs the suite through \p clients closed-loop connections.
struct PassResult {
  double wall_s = 0.0;
  ClientResult merged;
};

PassResult run_pass(const std::string& socket,
                    const std::vector<std::vector<std::uint64_t>>& shares,
                    Tracer& tracer) {
  std::vector<ClientResult> results(shares.size());
  const auto t0 = Clock::now();
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < shares.size(); ++c) {
      threads.emplace_back([&, c] {
        client_loop(socket, shares[c], tracer, results[c]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  PassResult pass;
  pass.wall_s = since(t0);
  for (ClientResult& r : results) {
    auto& m = pass.merged;
    m.lines.insert(m.lines.end(), r.lines.begin(), r.lines.end());
    m.latency_s.insert(m.latency_s.end(), r.latency_s.begin(), r.latency_s.end());
    m.ack_s.insert(m.ack_s.end(), r.ack_s.begin(), r.ack_s.end());
    m.run_s.insert(m.run_s.end(), r.run_s.begin(), r.run_s.end());
    m.failed += r.failed;
  }
  return pass;
}

/// Sends one request on a fresh connection; false on failure.
bool one_request(const std::string& socket, const std::string& body,
                 bcert::daemon::JsonValue& response) {
  bcert::daemon::Client client(socket);
  std::string error;
  return client.connect(10.0, &error) &&
         client.request(body, response, &error);
}

/// What one cold → drain → restart → warm cycle measured.
struct CycleResult {
  double setup_s = 0.0;
  double generate_s = 0.0;
  double wall_s = 0.0;
  PassResult cold;
  PassResult warm;
  double drain_s = 0.0;
  double start_s = 0.0;
  double restart_s = 0.0;
  double snapshot_bytes = 0.0;
  bcert::daemon::ServerStats stats;  ///< both servers, summed
  bcert::daemon::JsonValue caches;   ///< restarted server's stats.caches
  std::uint64_t failed = 0;
};

bool daemon_cycle(const std::string& dir,
                  std::vector<Scenario>* suite_out,
                  std::unique_ptr<bcert::expr::ExprPool>* pool_out,
                  Tracer& tracer, CycleResult& cycle) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::ofstream log(dir + "/bcertd.log");
  const bcert::daemon::ServerOptions server_opts = server_options(dir, &log);
  const std::string& socket = server_opts.socket_path;

  // Set-up: the suite (materialized here for the re-proof, as the daemon
  // does at dispatch) and the first Server::start, kSetupRepeats times.
  RunningServer first;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    first.server.reset();
    suite_out->clear();
    pool_out->reset();
    ScopedSpan span(tracer, "setup", "daemon");
    const auto t0 = Clock::now();
    *pool_out = std::make_unique<bcert::expr::ExprPool>();
    for (std::uint64_t index = 0; index < kDaemonCount; ++index) {
      bcert::daemon::ScenarioSpec spec;
      spec.seed = kDaemonSeed;
      spec.index = index;
      bcert::scenario::ScenarioGenerator generator(**pool_out,
                                                   spec.generator_config());
      suite_out->push_back(generator.generate_one(index));
      suite_out->back().name = spec.name();
    }
    cycle.generate_s = since(t0);
    std::string error;
    if (!first.start(server_opts, &error)) {
      std::printf("error: bcertd start: %s\n", error.c_str());
      return false;
    }
    setups.push_back(since(t0));
  }
  cycle.setup_s = median(setups);
  first.run();

  // Closed-loop clients, at most one per core; scenario k goes to
  // client k mod clients.
  const std::size_t clients =
      std::max<std::size_t>(1, std::min<std::size_t>(
                                   kDaemonCount,
                                   std::thread::hardware_concurrency()));
  std::vector<std::vector<std::uint64_t>> shares(clients);
  for (std::uint64_t k = 0; k < kDaemonCount; ++k) {
    shares[k % clients].push_back(k);
  }

  const auto t0 = Clock::now();
  cycle.cold = run_pass(socket, shares, tracer);

  // Drain (writes the snapshot), restart from it, wait for ping.
  const auto t_drain = Clock::now();
  {
    ScopedSpan span(tracer, "drain", "daemon");
    bcert::daemon::JsonValue response;
    if (!one_request(socket, "{\"cmd\":\"drain\"}", response)) {
      std::printf("error: drain request failed\n");
      first.stop.store(true);
    }
    first.join();
  }
  cycle.drain_s = since(t_drain);
  const bcert::daemon::ServerStats s1 = first.server->stats_snapshot();
  std::error_code ec;
  cycle.snapshot_bytes = static_cast<double>(
      std::filesystem::file_size(dir + "/bcertd.snapshot", ec));
  if (ec) cycle.snapshot_bytes = 0.0;

  RunningServer second;
  {
    ScopedSpan span(tracer, "start", "daemon");
    const auto t_start = Clock::now();
    std::string error;
    if (!second.start(server_opts, &error)) {
      std::printf("error: bcertd restart: %s\n", error.c_str());
      return false;
    }
    cycle.start_s = since(t_start);
  }
  second.run();
  {
    bcert::daemon::JsonValue pong;
    ScopedSpan span(tracer, "ping", "daemon");
    if (!one_request(socket, "{\"cmd\":\"ping\"}", pong) ||
        pong.string_or("type", "") != "pong") {
      std::printf("error: restarted bcertd does not answer ping\n");
    }
  }
  cycle.restart_s = since(t_drain);

  cycle.warm = run_pass(socket, shares, tracer);
  cycle.wall_s = since(t0);

  bcert::daemon::JsonValue stats;
  if (one_request(socket, "{\"cmd\":\"stats\"}", stats)) {
    if (const auto* caches = stats.find("caches")) cycle.caches = *caches;
  }
  {
    ScopedSpan span(tracer, "drain", "daemon");
    bcert::daemon::JsonValue response;
    if (!one_request(socket, "{\"cmd\":\"drain\"}", response)) {
      std::printf("error: final drain request failed\n");
      second.stop.store(true);
    }
    second.join();
  }
  const bcert::daemon::ServerStats s2 = second.server->stats_snapshot();
  cycle.stats = s1;
  cycle.stats.protocol_errors += s2.protocol_errors;
  cycle.stats.connections_dropped += s2.connections_dropped;
  cycle.stats.queue_wait_total_s += s2.queue_wait_total_s;
  if (!s2.snapshot_loaded) std::printf("error: restart loaded no snapshot\n");
  cycle.failed = cycle.cold.merged.failed + cycle.warm.merged.failed;
  log.close();
  std::filesystem::remove_all(dir);
  return true;
}

bool run_daemon(const Options& options, Report& report) {
  const std::map<std::string, std::string> reference =
      parse_verdict_lines(read_file(reference_file(options)));
  if (reference.empty()) {
    std::printf("error: no reference verdicts at %s\n",
                reference_file(options).c_str());
    return false;
  }
  report.config.workers = 1;
  auto& v = report.values;
  const std::string dir = options.out_dir + "/daemon";

  // Diffs both passes and re-proves SAFE lines (each matched to its
  // scenario by name): all of them, or only those off the reference.
  const auto check = [&](const CycleResult& cycle,
                         const std::vector<Scenario>& suite, bool all,
                         Tracer& tracer, std::size_t& mismatched,
                         std::size_t& verdicts) {
    for (const PassResult* pass : {&cycle.cold, &cycle.warm}) {
      const VerdictDiff diff = diff_verdicts(reference, pass->merged.lines);
      print_mismatches(diff);
      mismatched += diff.mismatched;
      verdicts += pass->merged.lines.size();
      std::vector<const Scenario*> scenarios;
      std::vector<std::string> lines;
      for (const std::string& line : pass->merged.lines) {
        const std::string name = line.substr(0, line.find(' '));
        for (const Scenario& s : suite) {
          if (s.name == name) {
            scenarios.push_back(&s);
            lines.push_back(line);
          }
        }
      }
      if (reprove_lines(scenarios, lines, reference, all, tracer, report) != 0) {
        report.correct = false;
      }
    }
  };

  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> latencies;
  std::vector<double> job_runs;
  std::size_t verdicts = 0;
  std::size_t safe = 0;
  std::size_t mismatched = 0;
  Tracer off(false);
  const auto t_measure = Clock::now();
  do {
    std::vector<Scenario> suite;
    std::unique_ptr<bcert::expr::ExprPool> pool;
    CycleResult cycle;
    if (!daemon_cycle(dir, &suite, &pool, off, cycle)) return false;
    setups.push_back(cycle.setup_s);
    walls.push_back(cycle.wall_s);
    report.attempted += 2 * kDaemonCount;
    report.failed += cycle.failed;
    for (const PassResult* pass : {&cycle.cold, &cycle.warm}) {
      latencies.insert(latencies.end(), pass->merged.latency_s.begin(),
                       pass->merged.latency_s.end());
      job_runs.insert(job_runs.end(), pass->merged.run_s.begin(),
                      pass->merged.run_s.end());
      for (const std::string& line : pass->merged.lines) {
        if (line.find(" status=SAFE ") != std::string::npos) ++safe;
      }
    }
    check(cycle, suite, false, off, mismatched, verdicts);
    std::printf("cycle %zu: cold %.3f s, restart %.3f s, warm %.3f s\n",
                walls.size(), cycle.cold.wall_s, cycle.restart_s,
                cycle.warm.wall_s);
  } while (!options.trace && since(t_measure) < options.seconds);

  const double wall = median(walls);
  v["setup_s"] = median(setups);
  v["wall_s"] = wall;
  v["verdicts_per_s"] =
      wall > 0.0 ? static_cast<double>(2 * kDaemonCount) / wall : 0.0;
  v["job_run_p50_s"] = median(job_runs);
  v["safe_frac"] = verdicts > 0 ? static_cast<double>(safe) /
                                      static_cast<double>(verdicts)
                                : 0.0;
  v["check.verdict_mismatch_frac"] =
      verdicts > 0 ? static_cast<double>(mismatched) /
                         static_cast<double>(verdicts)
                   : 1.0;
  std::printf("job_latency_p50_s %.6f over %zu requests\n", median(latencies),
              latencies.size());
  if (!options.trace) {
    v["peak_rss_mb"] = peak_rss_mb();
    return true;
  }

  Tracer tracer(true);
  std::vector<Scenario> suite;
  std::unique_ptr<bcert::expr::ExprPool> pool;
  CycleResult cycle;
  if (!daemon_cycle(dir, &suite, &pool, tracer, cycle)) return false;
  report.attempted += 2 * kDaemonCount;
  report.failed += cycle.failed;
  v["check.delta_refined"] = 0.0;  // count over the traced cycle only
  check(cycle, suite, true, tracer, mismatched, verdicts);
  v["check.verdict_mismatch_frac"] =
      static_cast<double>(mismatched) / static_cast<double>(verdicts);
  v["trace.overhead_s"] = cycle.wall_s - wall;
  v["scenario.generate_s"] = cycle.generate_s;

  std::vector<double> acks = cycle.cold.merged.ack_s;
  acks.insert(acks.end(), cycle.warm.merged.ack_s.begin(),
              cycle.warm.merged.ack_s.end());
  std::vector<double> cycle_latency = cycle.cold.merged.latency_s;
  cycle_latency.insert(cycle_latency.end(), cycle.warm.merged.latency_s.begin(),
                       cycle.warm.merged.latency_s.end());
  const auto cache = [&](const char* name, const char* key) {
    const bcert::daemon::JsonValue* c = cycle.caches.find(name);
    return c != nullptr ? c->number_or(key, 0.0) : 0.0;
  };
  const auto hit_frac = [&](const char* name) {
    const double lookups = cache(name, "hits") + cache(name, "misses");
    return lookups > 0.0 ? cache(name, "hits") / lookups : 0.0;
  };
  v["daemon.cold_pass_s"] = cycle.cold.wall_s;
  v["daemon.warm_pass_s"] = cycle.warm.wall_s;
  v["daemon.restart_s"] = cycle.restart_s;
  v["daemon.job_latency_p50_s"] = median(cycle_latency);
  v["daemon.submit_ack_p50_s"] = median(acks);
  v["daemon.queue_wait_s"] = cycle.stats.queue_wait_total_s;
  v["daemon.drain_s"] = cycle.drain_s;
  v["daemon.start_s"] = cycle.start_s;
  v["daemon.snapshot_bytes"] = cycle.snapshot_bytes;
  v["daemon.tape_warm_restores"] = cache("tape", "warm_restores");
  v["daemon.unsat_warm_restores"] = cache("unsat", "warm_restores");
  v["daemon.tape_hit_frac"] = hit_frac("tape");
  v["daemon.unsat_hit_frac"] = hit_frac("unsat");
  v["daemon.protocol_errors"] =
      static_cast<double>(cycle.stats.protocol_errors);
  v["daemon.connections_dropped"] =
      static_cast<double>(cycle.stats.connections_dropped);
  write_trace(options, tracer, report);
  return true;
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},         {"wall_s", "s"},
      {"verdicts_per_s", "1/s"}, {"job_run_p50_s", "s"},
      {"safe_frac", "fraction"}, {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {{"scenario.generate_s", "s"}};
    for (const char* phase : kPhases) {
      s.push_back({std::string("core.") + phase + "_s", "s"});
    }
    for (const char* phase : kPhases) {
      for (const char* family : kFamilies) {
        s.push_back({std::string("core.") + phase + "_s." + family, "s"});
      }
    }
    const std::vector<MetricSpec> rest = {
        {"core.candidate_iterations", "count"},
        {"core.level_iterations", "count"},
        {"core.nested_jobs", "count"},
        {"parallel.busy_frac", "fraction"},
        {"parallel.threads_used", "count"},
        {"sim.time_s", "s"},
        {"sim.rollouts_per_s", "1/s"},
        {"lp.solves", "count"},
        {"lp.time_s", "s"},
        {"smt.smt5_queries", "count"},
        {"smt.smt5_s", "s"},
        {"smt.level_s", "s"},
        {"smt.recheck_s.jit", "s"},
        {"smt.recheck_s.tape", "s"},
        {"smt.recheck_s.tree", "s"},
        {"smt.boxes_per_s.jit", "1/s"},
        {"smt.boxes_per_s.tape", "1/s"},
        {"smt.boxes_per_s.tree", "1/s"},
        {"smt.boxes", "count"},
        {"smt.splits", "count"},
        {"smt.tape_hit_frac", "fraction"},
        {"smt.unsat_hit_frac", "fraction"},
        {"smt.unsat_warm_starts", "count"},
        {"ablate.unsat_warm_off.wall_s", "s"},
        {"ablate.lp_warm_off.wall_s", "s"},
        {"daemon.cold_pass_s", "s"},
        {"daemon.warm_pass_s", "s"},
        {"daemon.restart_s", "s"},
        {"daemon.job_latency_p50_s", "s"},
        {"daemon.submit_ack_p50_s", "s"},
        {"daemon.queue_wait_s", "s"},
        {"daemon.drain_s", "s"},
        {"daemon.start_s", "s"},
        {"daemon.snapshot_bytes", "bytes"},
        {"daemon.tape_warm_restores", "count"},
        {"daemon.unsat_warm_restores", "count"},
        {"daemon.tape_hit_frac", "fraction"},
        {"daemon.unsat_hit_frac", "fraction"},
        {"daemon.protocol_errors", "count"},
        {"daemon.connections_dropped", "count"},
        {"check.verdict_mismatch_frac", "fraction"},
        {"check.delta_refined", "count"},
        {"trace.overhead_s", "s"},
    };
    s.insert(s.end(), rest.begin(), rest.end());
    return s;
  }();
  return specs;
}

bool serial_workload(const std::string& workload) {
  return workload == "zoo-serial" || workload == "daemon-restart";
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"zoo-serial", "zoo-parallel",
                                                 "daemon-restart"};
  return names;
}

bool run_workload(const Options& options, Report& report) {
  report.config.workload = options.workload;
  report.config.seed = options.seed;
  const bool serial = serial_workload(options.workload);
  report.config.icp_threads = serial ? 1 : 0;
  report.config.icp_threads_resolved =
      bcert::parallel::resolve_thread_count(report.config.icp_threads);
  if (is_zoo(options.workload)) return run_zoo(options, report);
  if (options.workload == "daemon-restart") return run_daemon(options, report);
  return false;
}

bool write_reference(const Options& options) {
  // The one-worker configuration, canonical order.
  const EngineConfig config{1, 1};
  std::string text =
      "# Reference verdict lines (regenerate: e2ebench --workload " +
      options.workload +
      " --write-reference): one Engine worker, one ICP thread, index "
      "order.\n";
  if (is_zoo(options.workload)) {
    Suite suite = make_suite(config);
    for (const std::string& line :
         verdict_lines(run_campaign(suite, job_defaults(config)))) {
      text += line + "\n";
    }
  } else {
    bcert::expr::ExprPool pool;
    bcert::EngineOptions engine_options;
    engine_options.threads = 1;
    bcert::Engine engine(engine_options);
    for (std::uint64_t index = 0; index < kDaemonCount; ++index) {
      bcert::daemon::ScenarioSpec spec;
      spec.seed = kDaemonSeed;
      spec.index = index;
      bcert::scenario::ScenarioGenerator generator(pool,
                                                   spec.generator_config());
      const Scenario scenario = generator.generate_one(index);
      const VerifyResult result = engine.verify(
          scenario.problem, scenario_job(scenario, job_defaults(config)));
      text += bcert::daemon::verdict_line(spec.name(), result) + "\n";
    }
  }
  std::ofstream(reference_file(options)) << text;
  std::printf("wrote %s\n", reference_file(options).c_str());
  return true;
}

}  // namespace e2e
