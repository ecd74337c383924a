#include "host.h"

#include <thread>

#include "trace.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_COMPILER
#define E2E_COMPILER "unknown"
#endif
#ifndef E2E_COMMIT
#define E2E_COMMIT "unknown"
#endif
#ifndef E2E_SRC_DIGEST
#define E2E_SRC_DIGEST "unknown"
#endif

namespace e2e {

namespace {

std::string isa() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "x86-64 avx2 avx512f";
  if (__builtin_cpu_supports("avx2")) return "x86-64 avx2";
  return "x86-64";
#else
  return "non-x86";
#endif
}

}  // namespace

std::string header_json(const RunConfig& config) {
  std::string out = "{\"cores\":" +
                    std::to_string(std::thread::hardware_concurrency());
  out += ",\"isa\":" + json_string(isa());
  out += ",\"build_type\":" + json_string(E2E_BUILD_TYPE);
  out += ",\"compiler\":" + json_string(E2E_COMPILER);
  out += ",\"commit\":" + json_string(E2E_COMMIT);
  out += ",\"src_digest\":" + json_string(E2E_SRC_DIGEST);
  out += ",\"workload\":" + json_string(config.workload);
  out += ",\"seed\":" + std::to_string(config.seed);
  out += ",\"workers\":" + std::to_string(config.workers);
  out += ",\"icp_threads\":" + std::to_string(config.icp_threads);
  out += ",\"icp_threads_resolved\":" +
         std::to_string(config.icp_threads_resolved) + "}";
  return out;
}

}  // namespace e2e
