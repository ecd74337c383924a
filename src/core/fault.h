#pragma once
/// \file fault.h
/// \brief Deterministic fault injection, per-job resource accounting, and
/// the degradation-ladder bookkeeping shared by every layer of the stack.
///
/// Three small, dependency-free facilities live here (this header is part
/// of the bottom `bcert_config` library precisely so smt/lp/parallel can
/// use them without link cycles):
///
///  * `FaultRegistry` — named injection points compiled into the hot
///    paths behind a single relaxed atomic load (zero cost when no spec
///    is installed). A spec such as
///        tape_compile:throw@3,lp_solve:delay=50ms@every:7
///    arms points deterministically: hit counters are per-point and
///    1-based, `@N` fires on exactly the Nth hit, `@every:N` on every
///    Nth. Two flavors of site exist: `check()` sites *act* (throw a
///    `FaultInjected`, or sleep for `delay=` faults) and `trip()` sites
///    merely *report* that a fault fired so the surrounding code can walk
///    down its degradation ladder (jit → tape → tree, warm cache → cold
///    start).
///
///  * `MemoryBudget` — per-job byte accounting with a quota. The ICP
///    frontier and the UNSAT-tree recorder charge their growth against
///    the job's budget; a failed charge latches `exhausted()` and the
///    pipeline converts it into a typed `kResourceExhausted` result
///    instead of an OOM kill. An armed `alloc` fault forces the next
///    charge to fail, so the whole path is testable without allocating
///    gigabytes.
///
///  * `DegradationCounters` / `DegradationReport` — one tally per rung of
///    the ladder, owned by the pipeline and snapshotted into
///    `VerifyResult::degradation` so every fallback decision is visible
///    in results and campaign JSON rather than silent.
///
/// `Status` / `ErrorCode` are the typed error taxonomy the Engine's
/// noexcept job boundary and `run_campaign`'s retry/quarantine logic
/// speak (see docs/ARCHITECTURE.md for the full table).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace bcert::core {

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Typed failure classes threaded through engine, pipeline, ICP, tape and
/// LP. `kFaultInjected` and `kInternal` are transient from the campaign's
/// point of view (retry may succeed); the rest are deterministic.
enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kCancelled,           ///< job's cancellation token fired
  kDeadlineExceeded,    ///< wall-clock deadline hit
  kResourceExhausted,   ///< memory quota exceeded (MemoryBudget)
  kFaultInjected,       ///< an armed FaultRegistry point threw
  kWorkerStuck,         ///< watchdog: job missed deadline + grace
  kInternal,            ///< uncaught exception escaped the pipeline
};

const char* error_code_name(ErrorCode c);

/// Error code + human-readable context. `ok()` statuses carry no message.
struct Status {
  ErrorCode code = ErrorCode::kOk;
  std::string message;

  Status() = default;
  Status(ErrorCode c, std::string msg) : code(c), message(std::move(msg)) {}

  bool ok() const { return code == ErrorCode::kOk; }
  /// True for failure classes a campaign retry can plausibly clear.
  bool retryable() const {
    return code == ErrorCode::kFaultInjected || code == ErrorCode::kInternal;
  }
};

// ---------------------------------------------------------------------------
// Fault-injection registry
// ---------------------------------------------------------------------------

/// Named injection points. Names (used in BCERT_FAULT specs) are the
/// snake_case forms returned by fault_point_name().
enum class FaultPoint : std::uint8_t {
  kTapeCompile = 0,  ///< Hc4Tape compilation (check: throw → tree HC4)
  kJitCompile,       ///< Hc4Jit native emission (check: throw → tape HC4)
  kHc4Backward,      ///< tape backward sweep (check: throw → job isolation)
  kLpPivot,          ///< simplex pivot loop (check)
  kLpSolve,          ///< solve_lp entry (check)
  kCacheLookup,      ///< tape / UNSAT-tree cache probe (trip: cold start)
  kWorkerDispatch,   ///< Engine job entry on a pool worker (check)
  kAlloc,            ///< MemoryBudget charge (trip: forced charge failure)
  kCacheSerialize,   ///< warm-state snapshot encode/write (check: the
                     ///< daemon skips the snapshot + warns, never dies)
  kSocketIo,         ///< daemon socket read/write (trip: connection drop)
  kNumPoints_,       ///< sentinel, not a point
};

inline constexpr std::size_t kNumFaultPoints =
    static_cast<std::size_t>(FaultPoint::kNumPoints_);

const char* fault_point_name(FaultPoint p);

/// Exception thrown by an armed `throw` fault at a check() site.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(FaultPoint point);
  FaultPoint point() const { return point_; }

 private:
  FaultPoint point_;
};

namespace detail {
/// Process-wide arm flag. Hot paths pay exactly this relaxed load while
/// no spec is installed.
extern std::atomic<bool> g_faults_enabled;
void fault_check_slow(FaultPoint p);  // throws FaultInjected / sleeps
bool fault_trip_slow(FaultPoint p);   // true when a rule fired
}  // namespace detail

/// Deterministic process-wide fault registry. check()/trip()/hits() are
/// safe to call concurrently from any thread; configure()/clear() are
/// setup-time operations (test fixtures, RuntimeConfig installing the
/// BCERT_FAULT spec) and must not race in-flight checks.
class FaultRegistry {
 public:
  /// True when any spec is installed. Tests that assert cache-hit or
  /// warm-start statistics guard themselves with this (an armed
  /// cache_lookup fault legitimately changes those counters).
  static bool enabled() {
    return detail::g_faults_enabled.load(std::memory_order_relaxed);
  }

  /// Hot-path injection check. No-op unless a spec is installed; an
  /// armed `throw` rule raises FaultInjected, an armed `delay=` rule
  /// sleeps, then control continues.
  static void check(FaultPoint p) {
    if (!enabled()) return;
    detail::fault_check_slow(p);
  }

  /// Non-throwing flavor for degradation-ladder sites: true when an
  /// armed rule fired (after honoring any `delay=`), so the caller
  /// should fall back one rung. Never throws.
  static bool trip(FaultPoint p) {
    if (!enabled()) return false;
    return detail::fault_trip_slow(p);
  }

  /// Parses and installs \p spec (comma-separated
  /// `point:action[@trigger]` entries; actions `throw` / `delay=Nms`;
  /// triggers `@N` / `@every:N`, default every hit). Replaces any
  /// previous spec and resets hit counters. Returns false and leaves the
  /// registry untouched on a malformed spec (each problem is appended to
  /// \p errors when non-null). An empty spec is equivalent to clear().
  static bool configure(const std::string& spec,
                        std::vector<std::string>* errors = nullptr);

  /// Parses \p spec without installing anything; true when well-formed.
  /// RuntimeConfig uses this to diagnose BCERT_FAULT at parse time.
  static bool validate(const std::string& spec,
                       std::vector<std::string>* errors = nullptr);

  /// Disarms every point and resets hit counters.
  static void clear();

  /// Times \p p has been evaluated since the last configure()/clear().
  static std::uint64_t hits(FaultPoint p);
};

// ---------------------------------------------------------------------------
// Resource governor
// ---------------------------------------------------------------------------

/// Per-job memory accounting. Quota 0 = unlimited (accounting only).
/// Thread-safe: ICP workers charge frontier growth concurrently.
class MemoryBudget {
 public:
  explicit MemoryBudget(std::size_t quota_bytes = 0) : quota_(quota_bytes) {}

  /// Attempts to reserve \p bytes. On failure (quota exceeded, or an
  /// armed `alloc` fault) nothing is charged and `exhausted()` latches.
  bool try_charge(std::size_t bytes) {
    if (FaultRegistry::trip(FaultPoint::kAlloc)) {
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    const std::size_t now =
        used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    if (quota_ != 0 && now > quota_) {
      used_.fetch_sub(bytes, std::memory_order_relaxed);
      exhausted_.store(true, std::memory_order_relaxed);
      return false;
    }
    return true;
  }

  /// Returns previously charged bytes to the budget.
  void release(std::size_t bytes) {
    used_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  /// Latched once any charge has failed; the pipeline maps this to
  /// kResourceExhausted.
  bool exhausted() const { return exhausted_.load(std::memory_order_relaxed); }

  std::size_t used() const { return used_.load(std::memory_order_relaxed); }
  std::size_t quota() const { return quota_; }

 private:
  std::size_t quota_;
  std::atomic<std::size_t> used_{0};
  std::atomic<bool> exhausted_{false};
};

// ---------------------------------------------------------------------------
// Degradation ladder bookkeeping
// ---------------------------------------------------------------------------

/// Plain snapshot of the per-job degradation counters, carried in
/// VerifyResult and serialized into campaign JSON.
struct DegradationReport {
  std::uint32_t jit_to_tape = 0;     ///< JIT emission failed → tape HC4
  std::uint32_t tape_to_tree = 0;    ///< tape compile failed → tree HC4
  std::uint32_t cache_cold = 0;      ///< cache entry dropped → cold start
  std::uint32_t lp_cold = 0;         ///< warm basis rejected → cold solve
  std::uint32_t retries = 0;         ///< campaign-level retry attempts

  bool any() const {
    return (jit_to_tape | tape_to_tree | cache_cold | lp_cold | retries) !=
           0;
  }
};

/// Atomic per-job tallies, one per ladder rung; shared by the pipeline
/// and the ICP workers running under it.
struct DegradationCounters {
  std::atomic<std::uint32_t> jit_to_tape{0};
  std::atomic<std::uint32_t> tape_to_tree{0};
  std::atomic<std::uint32_t> cache_cold{0};
  std::atomic<std::uint32_t> lp_cold{0};

  DegradationReport snapshot() const {
    DegradationReport r;
    r.jit_to_tape = jit_to_tape.load(std::memory_order_relaxed);
    r.tape_to_tree = tape_to_tree.load(std::memory_order_relaxed);
    r.cache_cold = cache_cold.load(std::memory_order_relaxed);
    r.lp_cold = lp_cold.load(std::memory_order_relaxed);
    return r;
  }
};

}  // namespace bcert::core
