#include "src/core/fault.h"

#include <array>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

namespace bcert::core {

const char* error_code_name(ErrorCode c) {
  switch (c) {
    case ErrorCode::kOk:
      return "ok";
    case ErrorCode::kCancelled:
      return "cancelled";
    case ErrorCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case ErrorCode::kResourceExhausted:
      return "resource_exhausted";
    case ErrorCode::kFaultInjected:
      return "fault_injected";
    case ErrorCode::kWorkerStuck:
      return "worker_stuck";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

const char* fault_point_name(FaultPoint p) {
  switch (p) {
    case FaultPoint::kTapeCompile:
      return "tape_compile";
    case FaultPoint::kJitCompile:
      return "jit_compile";
    case FaultPoint::kHc4Backward:
      return "hc4_backward";
    case FaultPoint::kLpPivot:
      return "lp_pivot";
    case FaultPoint::kLpSolve:
      return "lp_solve";
    case FaultPoint::kCacheLookup:
      return "cache_lookup";
    case FaultPoint::kWorkerDispatch:
      return "worker_dispatch";
    case FaultPoint::kAlloc:
      return "alloc";
    case FaultPoint::kCacheSerialize:
      return "cache_serialize";
    case FaultPoint::kSocketIo:
      return "socket_io";
    case FaultPoint::kNumPoints_:
      break;
  }
  return "unknown";
}

FaultInjected::FaultInjected(FaultPoint point)
    : std::runtime_error(std::string("injected fault at ") +
                         fault_point_name(point)),
      point_(point) {}

namespace detail {
std::atomic<bool> g_faults_enabled{false};
}  // namespace detail

namespace {

enum class FaultAction : std::uint8_t { kThrow, kDelay };

/// One armed rule. `at` fires on exactly that 1-based hit; `every` fires
/// whenever hit % every == 0. Exactly one of the two is set.
struct FaultRule {
  FaultAction action = FaultAction::kThrow;
  int delay_ms = 0;
  std::uint64_t at = 0;     // 0 = unused
  std::uint64_t every = 1;  // used when at == 0
};

struct PointState {
  std::vector<FaultRule> rules;
  std::atomic<std::uint64_t> hits{0};
};

struct RegistryState {
  std::mutex mu;  // guards rule installation, not the hot-path reads
  std::array<PointState, kNumFaultPoints> points;
};

RegistryState& registry() {
  static RegistryState* s = new RegistryState;  // leaked: outlives workers
  return *s;
}

bool parse_point(const std::string& name, FaultPoint* out) {
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    const auto p = static_cast<FaultPoint>(i);
    if (name == fault_point_name(p)) {
      *out = p;
      return true;
    }
  }
  return false;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || v == 0) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// Parses one `point:action[@trigger]` entry into (point, rule).
bool parse_entry(const std::string& entry, FaultPoint* point, FaultRule* rule,
                 std::string* error) {
  const std::size_t colon = entry.find(':');
  if (colon == std::string::npos) {
    *error = "missing ':' in fault entry '" + entry + "'";
    return false;
  }
  if (!parse_point(entry.substr(0, colon), point)) {
    *error = "unknown fault point '" + entry.substr(0, colon) + "'";
    return false;
  }

  std::string action = entry.substr(colon + 1);
  const std::size_t at = action.find('@');
  std::string trigger;
  if (at != std::string::npos) {
    trigger = action.substr(at + 1);
    action.resize(at);
  }

  *rule = FaultRule{};
  if (action == "throw") {
    rule->action = FaultAction::kThrow;
  } else if (action.rfind("delay=", 0) == 0) {
    std::string ms = action.substr(6);
    if (ms.size() > 2 && ms.compare(ms.size() - 2, 2, "ms") == 0) {
      ms.resize(ms.size() - 2);
    }
    std::uint64_t v = 0;
    if (!parse_u64(ms, &v) || v > 60'000) {
      *error = "bad delay in fault entry '" + entry + "'";
      return false;
    }
    rule->action = FaultAction::kDelay;
    rule->delay_ms = static_cast<int>(v);
  } else {
    *error = "unknown fault action '" + action + "' in '" + entry + "'";
    return false;
  }

  if (!trigger.empty()) {
    if (trigger.rfind("every:", 0) == 0) {
      if (!parse_u64(trigger.substr(6), &rule->every)) {
        *error = "bad trigger in fault entry '" + entry + "'";
        return false;
      }
    } else if (!parse_u64(trigger, &rule->at)) {
      *error = "bad trigger in fault entry '" + entry + "'";
      return false;
    }
  }
  return true;
}

/// Evaluates \p p's rules against a fresh hit. Returns the matched rule
/// (by value; rules are immutable once installed) or nullopt.
const FaultRule* match_rule(FaultPoint p, std::uint64_t hit) {
  PointState& st = registry().points[static_cast<std::size_t>(p)];
  for (const FaultRule& r : st.rules) {
    if (r.at != 0 ? hit == r.at : hit % r.every == 0) return &r;
  }
  return nullptr;
}

std::uint64_t record_hit(FaultPoint p) {
  PointState& st = registry().points[static_cast<std::size_t>(p)];
  return st.hits.fetch_add(1, std::memory_order_relaxed) + 1;
}

void apply_delay(const FaultRule& r) {
  if (r.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(r.delay_ms));
  }
}

}  // namespace

namespace detail {

void fault_check_slow(FaultPoint p) {
  const std::uint64_t hit = record_hit(p);
  const FaultRule* r = match_rule(p, hit);
  if (r == nullptr) return;
  if (r->action == FaultAction::kDelay) {
    apply_delay(*r);
    return;
  }
  throw FaultInjected(p);
}

bool fault_trip_slow(FaultPoint p) {
  const std::uint64_t hit = record_hit(p);
  const FaultRule* r = match_rule(p, hit);
  if (r == nullptr) return false;
  apply_delay(*r);
  return true;
}

}  // namespace detail

namespace {

using ParsedRules = std::array<std::vector<FaultRule>, kNumFaultPoints>;

bool parse_spec(const std::string& spec, ParsedRules& parsed,
                std::vector<std::string>* errors) {
  bool ok = true;
  std::size_t begin = 0;
  while (begin <= spec.size() && !spec.empty()) {
    std::size_t end = spec.find(',', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    FaultPoint point{};
    FaultRule rule;
    std::string error;
    if (!parse_entry(entry, &point, &rule, &error)) {
      if (errors != nullptr) errors->push_back(error);
      ok = false;
      continue;
    }
    parsed[static_cast<std::size_t>(point)].push_back(rule);
  }
  return ok;
}

}  // namespace

bool FaultRegistry::validate(const std::string& spec,
                             std::vector<std::string>* errors) {
  ParsedRules parsed;
  return parse_spec(spec, parsed, errors);
}

bool FaultRegistry::configure(const std::string& spec,
                              std::vector<std::string>* errors) {
  ParsedRules parsed;
  if (!parse_spec(spec, parsed, errors)) return false;

  RegistryState& s = registry();
  std::lock_guard<std::mutex> lock(s.mu);
  bool any = false;
  for (std::size_t i = 0; i < kNumFaultPoints; ++i) {
    s.points[i].rules = std::move(parsed[i]);
    s.points[i].hits.store(0, std::memory_order_relaxed);
    any = any || !s.points[i].rules.empty();
  }
  detail::g_faults_enabled.store(any, std::memory_order_relaxed);
  return true;
}

void FaultRegistry::clear() {
  RegistryState& s = registry();
  std::lock_guard<std::mutex> lock(s.mu);
  detail::g_faults_enabled.store(false, std::memory_order_relaxed);
  for (PointState& p : s.points) {
    p.rules.clear();
    p.hits.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t FaultRegistry::hits(FaultPoint p) {
  return registry()
      .points[static_cast<std::size_t>(p)]
      .hits.load(std::memory_order_relaxed);
}

}  // namespace bcert::core
