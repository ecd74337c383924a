#pragma once
/// \file runtime_config.h
/// \brief Typed, process-wide runtime configuration — the single home of
/// every `BCERT_*` environment knob that tunes the library's runtime
/// behavior.
///
/// Before this existed, several call sites (`thread_pool.cpp`,
/// `icp_solver.cpp`, `hc4.cpp`, `lp_synthesis.cpp`) each re-implemented
/// `getenv` + ad-hoc parsing; a malformed value such as
/// `BCERT_THREADS=abc` was silently ignored (or worse, fed through
/// `atoi`). Now:
///
///  * `RuntimeConfig::from_env()` parses the environment **once**, with
///    strict validation — trailing junk, overflow, out-of-range and
///    unrecognized enum tokens all produce a warning on a single channel
///    (stderr, `bcert: config:` prefix) and fall back to the documented
///    default. Unknown `BCERT_*` variables (typos like
///    `BCERT_ICP_BACTH`) are reported too.
///  * `RuntimeConfig::active()` is the lazily-initialized process-wide
///    instance every resolver consults
///    (`parallel::default_thread_count`, `smt::resolve_hc4_mode`).
///  * Every field is overridable programmatically via
///    `RuntimeConfig::set_active()` — embedding applications configure
///    the library through this struct instead of mutating their own
///    environment.
///
/// This header is dependency-free (it sits *below* `parallel`, `smt`
/// and `lp` in the link order) so every layer can consult it.

#include <cstdint>
#include <string>
#include <vector>

namespace bcert::core {

/// HC4 contractor backend selection (`BCERT_HC4_MODE`). Mirrors
/// `smt::Hc4Mode` without depending on the smt layer. `kJit` (the
/// default) requests the native x86-64 backend: where the build has none
/// it resolves to `kTape` up front, and a per-query emission failure
/// degrades to `kTape` bit-identically, counted as `jit_to_tape`.
enum class ConfigHc4Mode : std::uint8_t { kTape, kTree, kJit };

/// Structured-log severity threshold of the `bcertd` daemon
/// (`BCERT_LOG_LEVEL`). Messages below the threshold are dropped.
enum class ConfigLogLevel : std::uint8_t { kError, kWarn, kInfo, kDebug };

const char* log_level_name(ConfigLogLevel level);

/// The typed runtime configuration. Field defaults are the library
/// defaults; `from_env()` overlays the `BCERT_*` environment on top.
struct RuntimeConfig {
  /// Worker count of the global/default thread pools and every
  /// `threads = 0` auto knob. 0 = hardware concurrency.
  /// Env: `BCERT_THREADS` (positive integer).
  int threads = 0;

  /// HC4 backend for `Hc4Mode::kAuto` contractors. Env:
  /// `BCERT_HC4_MODE` (`jit`, `tape` or `tree`).
  ConfigHc4Mode hc4_mode = ConfigHc4Mode::kJit;

  /// When true, tape→IR→native compilation logs the tape disassembly and
  /// the IR after every optimization pass to stderr (miscompile
  /// debugging). Env: `BCERT_JIT_DUMP` (`0`/`1`/`on`/`off`).
  bool jit_dump = false;

  /// Deterministic fault-injection spec installed into the process-wide
  /// `FaultRegistry` when this config becomes active (see
  /// src/core/fault.h for the grammar, e.g.
  /// `tape_compile:throw@3,lp_solve:delay=50ms@every:7`). Empty = no
  /// faults. Env: `BCERT_FAULT`; a malformed spec warns and is dropped.
  std::string fault_spec;

  /// Unix-domain socket path the `bcertd` daemon binds (and `bcertctl`
  /// connects to) when neither passes an explicit --socket. Env:
  /// `BCERT_DAEMON_SOCKET` (non-empty path; sun_path caps it at 107
  /// bytes — longer values warn and fall back to the default).
  std::string daemon_socket = "/tmp/bcertd.sock";

  /// Directory holding the daemon's warm-state snapshot
  /// (`bcertd.snapshot`): loaded on start, written on drain and on the
  /// periodic snapshot timer. Empty = persistence disabled. Env:
  /// `BCERT_STATE_DIR`.
  std::string state_dir;

  /// Period of the daemon's snapshot timer in seconds; 0 = snapshot
  /// only on drain/SIGTERM. Env: `BCERT_SNAPSHOT_S` (non-negative
  /// number).
  double snapshot_period_s = 300.0;

  /// Daemon structured-log threshold. Env: `BCERT_LOG_LEVEL` (`error`,
  /// `warn`, `info` or `debug`).
  ConfigLogLevel log_level = ConfigLogLevel::kInfo;

  /// Default per-job memory quota in bytes for the resource governor
  /// (`MemoryBudget`); 0 = unlimited. Jobs can override it through
  /// `JobOptions::mem_quota_bytes`. Env: `BCERT_MEM_QUOTA` (bytes, or
  /// with a `K`/`M`/`G` suffix, e.g. `256M`).
  std::uint64_t mem_quota_bytes = 0;

  /// Parses the `BCERT_*` environment with strict validation. Malformed
  /// or unknown variables produce one diagnostic each: appended to
  /// \p warnings when given, otherwise written to stderr through the
  /// single warning channel. Reads the environment at every call (the
  /// caching layer is `active()`).
  static RuntimeConfig from_env(std::vector<std::string>* warnings = nullptr);

  /// The process-wide configuration. First call parses the environment
  /// (emitting any warnings to stderr); later calls return the cached
  /// instance, as replaced by `set_active()`.
  static const RuntimeConfig& active();

  /// Replaces the process-wide configuration. Call before spinning up
  /// concurrent work — the swap itself is not synchronized against
  /// concurrent `active()` readers on other threads.
  static void set_active(const RuntimeConfig& config);
};

}  // namespace bcert::core
