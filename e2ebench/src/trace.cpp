#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

namespace e2e {

namespace {

/// Slack for comparing span boundaries that were computed, not read
/// from one clock call (a job's end is its start plus its own timer).
constexpr double kEps = 1e-9;

/// Span indices grouped per thread, each group sorted outermost first.
std::map<long, std::vector<std::size_t>> tracks(const std::vector<Span>& spans) {
  std::map<long, std::vector<std::size_t>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].tid].push_back(i);
  for (auto& [tid, ids] : out) {
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      if (spans[a].start_s != spans[b].start_s) {
        return spans[a].start_s < spans[b].start_s;
      }
      if (spans[a].end_s != spans[b].end_s) return spans[a].end_s > spans[b].end_s;
      return a < b;
    });
  }
  return out;
}

}  // namespace

long current_tid() { return static_cast<long>(::gettid()); }

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Tracer::add(Span span) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::string layer,
                       std::string label)
    : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  span_.name = std::move(name);
  span_.layer = std::move(layer);
  span_.label = std::move(label);
  span_.tid = current_tid();
  span_.start_s = tracer_.now();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.enabled()) return;
  span_.end_s = tracer_.now();
  tracer_.add(std::move(span_));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();
  for (const auto& [tid, ids] : tracks(spans)) {
    std::vector<std::size_t> open;  // enclosing spans, innermost last
    for (const std::size_t i : ids) {
      while (!open.empty() && spans[open.back()].end_s <= spans[i].start_s + kEps) {
        open.pop_back();
      }
      if (!open.empty() && spans[i].end_s <= spans[open.back()].end_s + kEps) {
        self[open.back()] -= spans[i].duration();
      }
      open.push_back(i);
    }
  }
  for (double& s : self) s = std::max(s, 0.0);
  return self;
}

std::size_t nested_spans(const std::vector<Span>& spans,
                         const std::string& job_name) {
  std::size_t nested = 0;
  for (const auto& [tid, ids] : tracks(spans)) {
    double open_until = -1.0;  // latest end of the jobs opened so far
    for (const std::size_t i : ids) {
      if (spans[i].name != job_name) continue;
      if (spans[i].start_s < open_until - kEps) ++nested;
      open_until = std::max(open_until, spans[i].end_s);
    }
  }
  return nested;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& other_data) {
  const std::vector<double> self = self_times(spans);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":" +
                    other_data + ",\"traceEvents\":[";
  std::set<long> tids;
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    tids.insert(s.tid);
    if (i != 0) out += ',';
    out += "\n{\"ph\":\"X\",\"pid\":1,\"name\":" + json_string(s.name) +
           ",\"cat\":" + json_string(s.layer);
    std::snprintf(buf, sizeof buf, ",\"tid\":%ld,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, s.start_s * 1e6, s.duration() * 1e6);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"self_ms\":%.6f}}", self[i] * 1e3);
    out += ",\"args\":{\"label\":" + json_string(s.label) + buf;
  }
  for (const long tid : tids) {
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%ld,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"thread %ld\"}}",
                  tid, tid);
    out += buf;
  }
  return out + "\n]}\n";
}

}  // namespace e2e
