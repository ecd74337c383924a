#pragma once
/// \file trace.h
/// \brief In-memory spans of the traced run, their self-time and
/// nesting accounting, and the Chrome trace-event export.
///
/// Spans are recorded only by the benchmark, around its calls into the
/// library (and, for jobs, from `JobOptions::on_progress` timestamps).
/// They stay in memory and are written once, at exit.
///
/// A span's *children* are the spans on the same OS thread whose
/// interval lies inside it; its self time is its duration minus the
/// part its direct children cover. A job span that opens on a thread
/// while another job span is open there is a *nested* job: the thread
/// ran a foreign job inside a wait of the first.

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

struct Span {
  std::string name;   ///< what ran: "job", "candidate_loop", "submit", ...
  std::string layer;  ///< the layer called: core, smt, daemon, scenario, ...
  std::string label;  ///< scenario, family or request it belongs to
  long tid = 0;       ///< OS thread id
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;

  double duration() const { return end_s - start_s; }
};

/// OS thread id of the calling thread.
long current_tid();

/// Thread-safe span sink. A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Seconds since construction.
  double now() const;
  void add(Span span);
  std::vector<Span> spans() const;

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span on the calling thread for its scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string layer,
             std::string label = {});
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  Span span_;
};

/// Self time of each span (same order as \p spans), never negative.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Spans named \p job_name that open on a thread while another such
/// span is still open on that thread.
std::size_t nested_spans(const std::vector<Span>& spans,
                         const std::string& job_name = "job");

/// Chrome trace-event JSON: one complete ("X") event per span, one
/// track per OS thread, \p other_data (a JSON object) as "otherData".
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& other_data);

/// \p text as a JSON string literal.
std::string json_string(const std::string& text);

}  // namespace e2e
