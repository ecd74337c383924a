#pragma once
/// \file host.h
/// \brief The host-and-build header stamped into every output record.

#include <string>

namespace e2e {

/// What a record needs to be compared with another: the host's cores
/// and ISA, how the program was built, and the parallelism it ran at.
struct RunConfig {
  std::string workload;
  unsigned long long seed = 0;
  int workers = 0;      ///< Engine pool workers
  int icp_threads = 0;  ///< IcpConfig::threads (0 = automatic)
  int icp_threads_resolved = 0;  ///< what automatic resolves to here
};

/// One-line JSON object: cores, isa, build_type, compiler, commit,
/// src_digest, workload, seed, workers, icp_threads.
std::string header_json(const RunConfig& config);

}  // namespace e2e
