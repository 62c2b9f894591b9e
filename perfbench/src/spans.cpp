#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "stats.hpp"

namespace perfbench {

std::int64_t host_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

SpanLog::SpanLog(int ranks) : lanes_(static_cast<std::size_t>(ranks + 1)) {}

SpanLog::Scope::Scope(SpanLog* log, int lane, const char* name) {
  if (log == nullptr || !log->enabled_) return;
  log_ = log;
  lane_ = lane;
  Lane& ln = log->lane(lane);
  Span s;
  s.name = name;
  if (!ln.open.empty()) {
    s.parent = ln.open.back();
    s.parent_lane = lane;
  } else if (lane != kHarness) {
    // The harness lane is only written by the main thread, which is blocked
    // in Cluster::run while rank lanes record; its open stack is stable.
    const Lane& h = log->lane(kHarness);
    if (!h.open.empty()) {
      s.parent = h.open.back();
      s.parent_lane = kHarness;
    }
  }
  index_ = static_cast<int>(ln.spans.size());
  ln.open.push_back(index_);
  s.t0 = host_ns();
  ln.spans.push_back(s);
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Lane& ln = log_->lane(lane_);
  ln.spans[static_cast<std::size_t>(index_)].t1 = host_ns();
  ln.open.pop_back();
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of [a, b) covered by the union of `iv` (unsorted, may overlap).
std::int64_t covered(std::vector<Interval> iv, std::int64_t a, std::int64_t b) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, cur_lo = 0, cur_hi = -1;
  bool have = false;
  for (auto [lo, hi] : iv) {
    lo = std::max(lo, a);
    hi = std::min(hi, b);
    if (hi <= lo) continue;
    if (have && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (have) total += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    have = true;
  }
  if (have) total += cur_hi - cur_lo;
  return total;
}

}  // namespace

std::map<std::string, SpanStats> SpanLog::stats() const {
  // children of (lane, index) as host intervals
  std::map<std::pair<int, int>, std::vector<Interval>> children;
  for (int l = kHarness; l + 1 < static_cast<int>(lanes_.size()); ++l) {
    for (const Span& s : lane(l).spans) {
      if (s.parent >= 0) children[{s.parent_lane, s.parent}].push_back({s.t0, s.t1});
    }
  }
  std::map<std::string, SpanStats> out;
  for (int l = kHarness; l + 1 < static_cast<int>(lanes_.size()); ++l) {
    const auto& spans = lane(l).spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.t1 - s.t0) * 1e-6;
      std::int64_t child = 0;
      const auto it = children.find({l, static_cast<int>(i)});
      if (it != children.end()) child = covered(it->second, s.t0, s.t1);
      SpanStats& st = out[s.name];
      st.dur_ms.push_back(dur);
      st.dur_ms_total += dur;
      st.self_ms_total += dur - static_cast<double>(child) * 1e-6;
    }
  }
  return out;
}

double SpanLog::median_ms(const std::string& name) const {
  std::vector<double> d;
  for (const Lane& ln : lanes_) {
    for (const Span& s : ln.spans) {
      if (name == s.name) d.push_back(static_cast<double>(s.t1 - s.t0) * 1e-6);
    }
  }
  return d.empty() ? -1.0 : median(d);
}

std::size_t SpanLog::count() const {
  std::size_t n = 0;
  for (const Lane& ln : lanes_) n += ln.spans.size();
  return n;
}

void SpanLog::append_chrome_events(int pid, const std::string& label,
                                   std::vector<std::string>& out) const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                "\"args\":{\"name\":\"%s\"}}",
                pid, label.c_str());
  out.emplace_back(buf);
  for (int l = kHarness; l + 1 < static_cast<int>(lanes_.size()); ++l) {
    const auto& spans = lane(l).spans;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // tid 0 is the harness lane, tid r+1 is rank r
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":\"%d:%zu\","
                    "\"parent\":\"%d:%d\"}}",
                    s.name, pid, l + 1, static_cast<double>(s.t0) * 1e-3,
                    static_cast<double>(s.t1 - s.t0) * 1e-3, l, i,
                    s.parent_lane, s.parent);
      out.emplace_back(buf);
    }
  }
}

bool write_span_file(
    const std::string& path,
    const std::vector<std::pair<std::string, const SpanLog*>>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::string> events;
  for (std::size_t i = 0; i < logs.size(); ++i) {
    logs[i].second->append_chrome_events(static_cast<int>(i), logs[i].first,
                                         events);
  }
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < events.size(); ++i) {
    std::fprintf(f, "%s%s\n", events[i].c_str(), i + 1 < events.size() ? "," : "");
  }
  std::fprintf(f, "],\n\"summary\":{\n");
  for (std::size_t i = 0; i < logs.size(); ++i) {
    std::fprintf(f, "\"%s\":{", logs[i].first.c_str());
    const auto st = logs[i].second->stats();
    std::size_t k = 0;
    for (const auto& [name, s] : st) {
      std::fprintf(f,
                   "%s\n  \"%s\":{\"count\":%zu,\"median_ms\":%.6f,"
                   "\"total_ms\":%.6f,\"self_ms\":%.6f}",
                   k++ ? "," : "", name.c_str(), s.dur_ms.size(),
                   median(s.dur_ms), s.dur_ms_total, s.self_ms_total);
    }
    std::fprintf(f, "}%s\n", i + 1 < logs.size() ? "," : "");
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
