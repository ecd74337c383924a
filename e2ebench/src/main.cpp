/// \file main.cpp
/// \brief `e2ebench` — one run of one workload of the end-to-end
/// benchmark (see README.md).
///
///   e2ebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///            [--out DIR] [--reference DIR] [--write-reference]
///
/// Prints diagnostics, then a `# header {...}` line (host and build),
/// then, as the last line, the run record:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones, and a Chrome trace is written under --out. Exit code
/// 0 when the run was correct, 1 when an output failed its check, 2 on a
/// usage or set-up error (no record printed).

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "workloads.h"

extern char** environ;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload zoo-serial|zoo-parallel|"
               "daemon-restart [--seed N] [--seconds S] [--trace 0|1] "
               "[--out DIR] [--reference DIR] [--write-reference]\n");
  return 2;
}

/// The benchmark fixes its own configuration: BCERT_* knobs inherited
/// from the caller are dropped, and the serial workloads pin every
/// automatic thread count to 1 exactly as BCERT_THREADS=1 does.
void pin_environment(const std::string& workload) {
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("BCERT_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
  if (e2e::serial_workload(workload)) ::setenv("BCERT_THREADS", "1", 1);
}

/// Fixes glibc's allocator so that `peak_rss_mb` measures memory demand,
/// not thread timing. By default the Engine worker of each (re)started
/// daemon may land in another per-thread arena, and the mmap threshold
/// rises with each large block freed, so the resident heap depends on the
/// order the jobs ran in; both moved the peak of identical daemon-restart
/// runs by several MB. One arena and a fixed 128 KiB threshold (glibc's
/// initial value) do not: the gated workloads compute on one thread.
void pin_allocator() {
#if defined(M_ARENA_MAX) && defined(M_MMAP_THRESHOLD)
  ::mallopt(M_ARENA_MAX, 1);
  ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

void print_metrics(const std::vector<e2e::MetricSpec>& specs,
                   const e2e::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = report.values.find(specs[i].name);
    double value = it == report.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", specs[i].name.c_str(), value,
                specs[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  pin_allocator();
  e2e::Options options;
  options.out_dir = ".bench_build/e2ebench/out";
  options.reference_dir = "e2ebench/reference";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--write-reference") {
      options.write_reference = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      if (!options.trace && std::strcmp(value, "0") != 0) return usage();
    } else if (arg == "--out") {
      options.out_dir = value;
    } else if (arg == "--reference") {
      options.reference_dir = value;
    } else {
      return usage();
    }
    if (end != nullptr && (end == value || *end != '\0')) return usage();
  }
  const auto& names = e2e::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage();
  }
  pin_environment(options.workload);
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (options.write_reference) return e2e::write_reference(options) ? 0 : 2;

  e2e::Report report;
  if (!e2e::run_workload(options, report)) return 2;
  std::printf("# header %s\n", e2e::header_json(report.config).c_str());
  print_metrics(options.trace ? e2e::per_layer_metrics()
                              : e2e::end_to_end_metrics(),
                report);
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
