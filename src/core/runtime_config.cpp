#include "src/core/runtime_config.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <unordered_set>

#include "src/core/fault.h"

extern "C" char** environ;

namespace bcert::core {

namespace {

/// The single warning channel: collected when the caller provided a
/// sink, otherwise printed to stderr with a uniform prefix. The stderr
/// path dedupes per message text (which embeds the variable name and
/// offending value), so re-parsing the same malformed environment —
/// every from_env() call in a long-lived process — emits one line, not
/// one per parse.
struct WarningSink {
  std::vector<std::string>* out;

  void warn(std::string message) const {
    if (out != nullptr) {
      out->push_back(std::move(message));
      return;
    }
    static std::mutex mu;
    static std::unordered_set<std::string>* seen =
        new std::unordered_set<std::string>;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!seen->insert(message).second) return;
    }
    std::fprintf(stderr, "bcert: config: %s\n", message.c_str());
  }
};

/// `BCERT_MEM_QUOTA` parse: non-negative decimal bytes with an optional
/// K/M/G (case-insensitive, optionally B-suffixed) binary multiplier.
bool parse_mem_quota(const char* text, std::uint64_t& value) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text) return false;
  std::uint64_t mult = 1;
  if (*end != '\0') {
    switch (*end) {
      case 'k': case 'K': mult = 1ull << 10; break;
      case 'm': case 'M': mult = 1ull << 20; break;
      case 'g': case 'G': mult = 1ull << 30; break;
      default: return false;
    }
    ++end;
    if (*end == 'b' || *end == 'B') ++end;
    if (*end != '\0') return false;
  }
  if (v > UINT64_MAX / mult) return false;
  value = static_cast<std::uint64_t>(v) * mult;
  return true;
}

/// Strict positive-integer parse: the whole token must be a decimal
/// integer in (0, max]. Returns false (and leaves \p value untouched)
/// on empty input, trailing junk, overflow or a non-positive value.
bool parse_positive_int(const char* text, int max, int& value) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') return false;
  if (v <= 0 || v > static_cast<long>(max)) return false;
  value = static_cast<int>(v);
  return true;
}

/// Boolean-knob tokens (`0`/`off`/`false`, `1`/`on`/`true`). Anything
/// else is malformed and leaves \p value untouched.
bool parse_bool(const char* text, bool& value) {
  const bool off = std::strcmp(text, "0") == 0 ||
                   std::strcmp(text, "off") == 0 ||
                   std::strcmp(text, "false") == 0;
  const bool on = std::strcmp(text, "1") == 0 ||
                  std::strcmp(text, "on") == 0 ||
                  std::strcmp(text, "true") == 0;
  if (!off && !on) return false;
  value = on;
  return true;
}

/// Strict non-negative double parse (whole token, finite, ≥ 0).
bool parse_non_negative_double(const char* text, double& value) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno != 0 || end == text || *end != '\0') return false;
  if (!(v >= 0.0) || v > 1e12) return false;  // rejects NaN / negatives
  value = v;
  return true;
}

/// `BCERT_*` variables this library (src/) and its benches understand.
/// from_env() parses the library and daemon knobs; the rest are read by
/// the bench executables through bench::env_int and listed here only so
/// a bench run does not trip the unknown-variable warning.
constexpr const char* kKnownVars[] = {
    "BCERT_THREADS", "BCERT_HC4_MODE", "BCERT_FAULT", "BCERT_MEM_QUOTA",
    "BCERT_JIT_DUMP",
    // bcertd daemon knobs (src/daemon)
    "BCERT_DAEMON_SOCKET", "BCERT_STATE_DIR", "BCERT_SNAPSHOT_S",
    "BCERT_LOG_LEVEL",
    // bench-only size knobs (see the README table)
    "BCERT_ICP_BOXES", "BCERT_ICP_WARM_ITERS", "BCERT_HC4_CONTRACTS",
    "BCERT_LP_ROWS", "BCERT_LP_ITERS", "BCERT_ROLLOUTS",
    "BCERT_RESTART_SCENARIOS",
    "BCERT_CAMPAIGN_SCENARIOS", "BCERT_SIZES", "BCERT_SEEDS", "BCERT_TRAIN",
    "BCERT_FIG4_ITERS", "BCERT_FIG4_POP", "BCERT_FIG5_TRAIN",
    "BCERT_TEMPLATE_DEG6",
    // workload-zoo knobs (examples/scenario_zoo, bench_micro zoo
    // headline, and the generated-campaign stress test)
    "BCERT_ZOO_SCENARIOS", "BCERT_ZOO_SEED", "BCERT_ZOO_QUERIES",
    "BCERT_SCENARIO_STRESS"};

void warn_unknown_vars(const WarningSink& sink) {
  if (environ == nullptr) return;
  for (char** e = environ; *e != nullptr; ++e) {
    const char* entry = *e;
    if (std::strncmp(entry, "BCERT_", 6) != 0) continue;
    const char* eq = std::strchr(entry, '=');
    const std::string name(entry, eq != nullptr
                                      ? static_cast<std::size_t>(eq - entry)
                                      : std::strlen(entry));
    bool known = false;
    for (const char* k : kKnownVars) known = known || name == k;
    if (!known) {
      sink.warn("unknown environment variable " + name + " (ignored)");
    }
  }
}

RuntimeConfig& active_instance() {
  // First use parses the environment; warnings go straight to stderr.
  // The BCERT_FAULT spec arms the process-wide registry here (and in
  // set_active) rather than in from_env, so sink-driven test parses
  // never inject faults as a side effect.
  static RuntimeConfig config = [] {
    RuntimeConfig c = RuntimeConfig::from_env();
    FaultRegistry::configure(c.fault_spec);
    return c;
  }();
  return config;
}

}  // namespace

RuntimeConfig RuntimeConfig::from_env(std::vector<std::string>* warnings) {
  const WarningSink sink{warnings};
  RuntimeConfig config;

  if (const char* v = std::getenv("BCERT_THREADS")) {
    if (!parse_positive_int(v, 1 << 20, config.threads)) {
      sink.warn(std::string("BCERT_THREADS=\"") + v +
                "\" is not a positive integer; using hardware concurrency");
    }
  }
  if (const char* v = std::getenv("BCERT_HC4_MODE")) {
    if (std::strcmp(v, "tape") == 0) {
      config.hc4_mode = ConfigHc4Mode::kTape;
    } else if (std::strcmp(v, "tree") == 0) {
      config.hc4_mode = ConfigHc4Mode::kTree;
    } else if (std::strcmp(v, "jit") == 0) {
      config.hc4_mode = ConfigHc4Mode::kJit;
    } else {
      // A typo silently falling back would defeat the point of the flag
      // (e.g. comparing "tape vs tape" while debugging a divergence).
      sink.warn(std::string("unrecognized BCERT_HC4_MODE=\"") + v +
                "\" (expected \"jit\", \"tape\" or \"tree\"); using the "
                "default, jit (tape where there is no native backend)");
    }
  }
  if (const char* v = std::getenv("BCERT_JIT_DUMP")) {
    if (!parse_bool(v, config.jit_dump)) {
      config.jit_dump = true;  // a set-but-odd value still means "dump"
      sink.warn(std::string("BCERT_JIT_DUMP=\"") + v +
                "\" (expected 0/off/false or 1/on/true); treating as on");
    }
  }

  if (const char* v = std::getenv("BCERT_FAULT")) {
    std::vector<std::string> errors;
    if (FaultRegistry::validate(v, &errors)) {
      config.fault_spec = v;
    } else {
      for (const std::string& e : errors) {
        sink.warn("BCERT_FAULT: " + e + "; ignoring the spec");
      }
    }
  }
  if (const char* v = std::getenv("BCERT_DAEMON_SOCKET")) {
    // sockaddr_un::sun_path is 108 bytes including the terminator.
    if (*v == '\0' || std::strlen(v) > 107) {
      sink.warn(std::string("BCERT_DAEMON_SOCKET=\"") + v +
                "\" is empty or longer than 107 bytes (sun_path limit); "
                "using " + config.daemon_socket);
    } else {
      config.daemon_socket = v;
    }
  }
  if (const char* v = std::getenv("BCERT_STATE_DIR")) {
    // Any path is accepted (the daemon reports unusable directories at
    // snapshot time); the empty string explicitly disables persistence.
    config.state_dir = v;
  }
  if (const char* v = std::getenv("BCERT_SNAPSHOT_S")) {
    if (!parse_non_negative_double(v, config.snapshot_period_s)) {
      sink.warn(std::string("BCERT_SNAPSHOT_S=\"") + v +
                "\" is not a non-negative number of seconds; using the "
                "default period");
    }
  }
  if (const char* v = std::getenv("BCERT_LOG_LEVEL")) {
    if (std::strcmp(v, "error") == 0) {
      config.log_level = ConfigLogLevel::kError;
    } else if (std::strcmp(v, "warn") == 0) {
      config.log_level = ConfigLogLevel::kWarn;
    } else if (std::strcmp(v, "info") == 0) {
      config.log_level = ConfigLogLevel::kInfo;
    } else if (std::strcmp(v, "debug") == 0) {
      config.log_level = ConfigLogLevel::kDebug;
    } else {
      sink.warn(std::string("unrecognized BCERT_LOG_LEVEL=\"") + v +
                "\" (expected \"error\", \"warn\", \"info\" or \"debug\"); "
                "using info");
    }
  }
  if (const char* v = std::getenv("BCERT_MEM_QUOTA")) {
    if (!parse_mem_quota(v, config.mem_quota_bytes)) {
      sink.warn(std::string("BCERT_MEM_QUOTA=\"") + v +
                "\" is not a byte count (optionally K/M/G-suffixed); "
                "quota disabled");
    }
  }

  warn_unknown_vars(sink);
  return config;
}

const char* log_level_name(ConfigLogLevel level) {
  switch (level) {
    case ConfigLogLevel::kError: return "error";
    case ConfigLogLevel::kWarn: return "warn";
    case ConfigLogLevel::kInfo: return "info";
    case ConfigLogLevel::kDebug: return "debug";
  }
  return "info";
}

const RuntimeConfig& RuntimeConfig::active() { return active_instance(); }

void RuntimeConfig::set_active(const RuntimeConfig& config) {
  active_instance() = config;
  FaultRegistry::configure(config.fault_spec);
}

}  // namespace bcert::core
