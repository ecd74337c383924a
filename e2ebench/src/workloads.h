#pragma once
/// \file workloads.h
/// \brief The benchmark's workloads and the metrics each run reports.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host.h"

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;     ///< recorded only (see README.md, "Seeds")
  double seconds = 20.0;      ///< measure whole campaigns for at least this
  bool trace = false;
  std::string out_dir;        ///< trace file and daemon scratch state
  std::string reference_dir;  ///< committed verdict lines
  /// Write the one-worker reference lines instead of measuring.
  bool write_reference = false;
};

struct MetricSpec {
  std::string name;
  std::string unit;
};

/// The end-to-end metrics (trace 0) and per-layer metrics (trace 1),
/// in print order. Every run prints every metric of its list; a layer
/// a workload does not exercise reads 0.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

const std::vector<std::string>& workload_names();

/// Workloads that pin every automatic thread count to 1, as
/// BCERT_THREADS=1 does; the others keep the library default.
bool serial_workload(const std::string& workload);

/// What one run found.
struct Report {
  RunConfig config;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;  ///< metric name -> value
};

/// Runs \p options.workload; diagnostics go to stdout line by line.
/// Returns false when the workload could not run at all.
bool run_workload(const Options& options, Report& report);

/// Regenerates the reference verdict file of \p options.workload.
bool write_reference(const Options& options);

}  // namespace e2e
