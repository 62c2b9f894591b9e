// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <hybrid_train|zero3_ckpt|table3_cost64> --seed <n>
//             --seconds <s> --trace <0|1> [--smoke] [--span-file <path>]
//             [--revision <id>]
//
// --trace 0 measures the end-to-end metrics with tracing off: the workload
// is set up kSetups times (setup_s is the median), then timed for
// --seconds. --trace 1 measures the per-layer metrics: untraced and traced
// blocks of steps alternate for two thirds of --seconds (their gap is the
// tracing overhead), the isolated probes and the serial replica run, and layers the
// workload does not exercise are measured in a short traced pass of the
// workload that does. The last stdout line is one JSON object with
// `correct`, `attempted`, `failed` and `metrics`. perfbench/run.py builds
// this binary and is the command to run.

#include <omp.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb = perfbench;

namespace {

/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 5;

const std::vector<std::string> kEndToEnd = {"samples_per_s", "step_ms_p50",
                                            "sim_samples_per_s", "setup_s",
                                            "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "tensor.gemm_gflops",       "tensor.convert_gbps",
    "nn.block_fwd_ms",          "nn.block_bwd_ms",
    "nn.serial_samples_per_s",  "sim.region_us",
    "core.context_ms",          "collective.rendezvous_us",
    "collective.allreduce_gbps", "collective.rs_ag_gbps",
    "collective.calls_per_step", "collective.bytes_per_step",
    "collective.sim_comm_overlap", "tp.step_ms_1d",
    "tp.step_ms_2d",            "tp.step_ms_2p5d",
    "tp.step_ms_3d",            "tp.sim_img_per_s_1d",
    "tp.sim_img_per_s_2d",      "tp.sim_img_per_s_2p5d",
    "tp.sim_img_per_s_3d",      "pp.train_step_ms",
    "pp.sim_bubble_frac",       "pp.p2p_bytes_per_step",
    "engine.bucket_finish_ms",  "engine.ckpt_save_ms",
    "engine.ckpt_mb",           "optim.adam_step_ms",
    "zero.gather_ms",           "zero.step_ms",
    "zero.release_ms",          "zero.state_mb_per_rank",
    "obs.trace_overhead_frac",
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool smoke = false;
  std::string span_file;
  std::string revision = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--span-file <path>] "
               "[--revision <id>]\n",
               why.c_str());
  std::exit(2);
}

long long parse_int(const std::string& flag, const std::string& v) {
  std::size_t pos = 0;
  long long n = 0;
  try {
    n = std::stoll(v, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || pos != v.size()) usage("bad value for " + flag + ": '" + v + "'");
  return n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + f);
    const std::string v = argv[++i];
    if (f == "--workload") a.workload = v;
    else if (f == "--seed") a.seed = static_cast<std::uint64_t>(parse_int(f, v));
    else if (f == "--seconds") a.seconds = static_cast<double>(parse_int(f, v));
    else if (f == "--trace") a.trace = static_cast<int>(parse_int(f, v));
    else if (f == "--span-file") a.span_file = v;
    else if (f == "--revision") a.revision = v;
    else usage("unknown flag " + f);
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.seconds < 1.0 || a.seconds > 600.0) usage("--seconds must be in 1..600");
  return a;
}

int cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

/// Attempted/failed step accounting: a step that throws or fails its
/// workload's output check counts as failed.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Run `fn` (returning the check result) as one attempted step; returns
  /// false if it threw, after which the world is unusable.
  template <class Fn>
  bool attempt(const char* what, Fn&& fn) {
    ++attempted;
    try {
      if (!fn()) {
        ++failed;
        std::fprintf(stderr, "perfbench: %s failed its output check\n", what);
      }
      return true;
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "perfbench: %s threw: %s\n", what, e.what());
      return false;
    }
  }
};

/// Runs one block of steps, adding the host seconds spent inside step() to
/// *host_s and the steps' simulated seconds to *sim_s. Returns false, early,
/// when a step throws.
bool run_block(pb::Workload& w, Tally& tally, std::vector<double>& step_ms,
               double* host_s, double* sim_s) {
  for (int i = 0; i < w.block_steps(); ++i) {
    const std::int64_t t0 = pb::host_ns();
    const bool alive = tally.attempt("step", [&] { return w.step(); });
    const double dt = pb::seconds_since(t0);
    if (!alive) return false;
    step_ms.push_back(dt * 1e3);
    *host_s += dt;
    *sim_s += w.last_sim_s();
  }
  return true;
}

void set_tracing(pb::Workload& w, bool on) {
  for (ca::sim::Cluster* c : w.clusters()) {
    if (on) {
      c->enable_tracing();
    } else if (c->tracer() != nullptr) {
      c->tracer()->clear();
      c->disable_tracing();
    }
  }
  w.spans().set_enabled(on);
}

/// --trace 0: set up kSetups times, then time whole blocks for `seconds`.
bool measure_end_to_end(pb::Workload& w, const Args& a, Tally& tally,
                        pb::Metrics& m, std::string& notes) {
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const std::int64_t t0 = pb::host_ns();
    if (!tally.attempt("setup", [&] { return w.setup(); })) return false;
    setup_s.push_back(pb::seconds_since(t0));
  }
  std::vector<double> step_ms;
  double host_s = 0.0, first_block_sim_s = 0.0;
  int blocks = 0;
  const std::int64_t start = pb::host_ns();
  while (blocks == 0 || pb::seconds_since(start) < a.seconds) {
    double block_sim = 0.0;
    if (!run_block(w, tally, step_ms, &host_s, &block_sim)) break;
    if (blocks == 0) first_block_sim_s = block_sim;
    ++blocks;
  }
  if (step_ms.empty()) return false;
  const double samples = static_cast<double>(w.samples_per_step());
  m["samples_per_s"] = {samples * static_cast<double>(step_ms.size()) / host_s, "1/s"};
  m["step_ms_p50"] = {pb::median(step_ms), "ms"};
  // simulated time is deterministic: the first timed block is the reference
  m["sim_samples_per_s"] = {samples * w.block_steps() / first_block_sim_s, "1/s"};
  m["setup_s"] = {pb::median(setup_s), "s"};
  m["peak_rss_mb"] = {pb::peak_rss_mb(), "MB"};
  // the step-time distribution behind step_ms_p50: p75 is the highest
  // quartile with at least ten samples beyond it from 40 steps on
  std::vector<double> sorted = step_ms;
  std::sort(sorted.begin(), sorted.end());
  const auto q = [&](double f) {
    return sorted[static_cast<std::size_t>(f * static_cast<double>(sorted.size() - 1))];
  };
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "\"steps\":%zu,\"blocks\":%d,\"setups\":%d,\"timed_host_s\":%.3f,"
                "\"step_ms_min\":%.3f,\"step_ms_p25\":%.3f,\"step_ms_p75\":%.3f,"
                "\"step_ms_max\":%.3f",
                step_ms.size(), blocks, kSetups, host_s, sorted.front(), q(0.25),
                q(0.75), sorted.back());
  notes = buf;
  return true;
}

/// Traced blocks of `w` for the per-layer metrics. With `interleave`,
/// traced and untraced blocks alternate for `seconds` and the tracing
/// overhead is the ratio of their median block times; otherwise `blocks`
/// traced blocks run.
bool measure_layers(pb::Workload& w, Tally& tally, pb::Metrics& m,
                    bool interleave, double seconds, int blocks) {
  if (!tally.attempt("setup", [&] { return w.setup(); })) return false;
  std::vector<double> traced_s, untraced_s, step_ms;
  const std::int64_t start = pb::host_ns();
  for (int b = 0;; ++b) {
    // Traced blocks come first, so the summarized block is the first step
    // after setup in this pass and in a cross pass alike.
    const bool traced = !interleave || b % 2 == 0;
    if (interleave && traced && untraced_s.size() >= 2 &&
        pb::seconds_since(start) >= seconds)
      break;
    if (!interleave && static_cast<int>(traced_s.size()) == blocks) break;
    double host_s = 0.0, sim_s = 0.0;
    set_tracing(w, traced);
    const bool alive = run_block(w, tally, step_ms, &host_s, &sim_s);
    if (alive && traced && traced_s.empty()) w.sim_trace_metrics(m, w.block_steps());
    set_tracing(w, false);
    if (!alive) return false;
    (traced ? traced_s : untraced_s).push_back(host_s);
  }
  if (interleave) {
    m["obs.trace_overhead_frac"] = {
        pb::median(traced_s) / pb::median(untraced_s) - 1.0, "fraction"};
  }
  w.span_metrics(m);
  return true;
}

void print_json_metrics(const pb::Metrics& m, const std::vector<std::string>& names,
                        bool correct, const Tally& tally) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const pb::Metric& x = m.at(names[i]);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                names[i].c_str(), x.value, x.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const int nproc = cpu_count();
  const int omp_threads = omp_get_max_threads();
  // Host threads stay within nproc (workers x OpenMP threads <= nproc), and
  // at most 4 workers keep the load the same shape on bigger machines.
  const int workers = std::max(1, std::min(4, nproc / omp_threads));

  pb::Settings settings;
  settings.seed = a.seed;
  settings.workers = workers;
  settings.smoke = a.smoke;
  auto w = pb::make_workload(a.workload, settings);
  if (!w) usage("unknown workload '" + a.workload + "'");

  pb::Metrics m;
  Tally tally;
  std::string notes;    // extra manifest fields
  std::string sources;  // per-layer metric -> workload of its cross pass
  std::vector<std::pair<std::string, std::unique_ptr<pb::Workload>>> cross;
  try {
    if (a.trace == 0) {
      if (!measure_end_to_end(*w, a, tally, m, notes)) {
        std::fprintf(stderr, "perfbench: %s could not run\n", a.workload.c_str());
        return 1;
      }
    } else {
      // two thirds of --seconds interleave untraced and traced blocks; the
      // serial replica, probes and cross passes take about the rest
      if (!measure_layers(*w, tally, m, true, a.seconds * 2.0 / 3.0, 0)) {
        std::fprintf(stderr, "perfbench: %s could not run\n", a.workload.c_str());
        return 1;
      }
      w->serial_metrics(m);
      pb::run_probes(w->probe_plan(), workers, a.smoke, m);
      // Layers this workload does not run come from a short traced pass of
      // the workload that does; only missing names are taken from it.
      for (const std::string& other : pb::workload_names()) {
        const bool missing = std::any_of(kPerLayer.begin(), kPerLayer.end(),
                                         [&](const std::string& n) { return !m.contains(n); });
        if (!missing || other == a.workload) continue;
        pb::Settings cs = settings;
        cs.cross = true;
        auto o = pb::make_workload(other, cs);
        pb::Metrics om;
        if (!measure_layers(*o, tally, om, false, 0.0, o->block_steps() == 1 ? 2 : 1)) {
          std::fprintf(stderr, "perfbench: cross pass %s could not run\n", other.c_str());
          return 1;
        }
        o->serial_metrics(om);
        for (const auto& [name, metric] : om) {
          if (!m.contains(name)) {
            m[name] = metric;
            sources += (sources.empty() ? "\"" : ",\"") + name + "\":\"" + other + "\"";
          }
        }
        cross.emplace_back(other, std::move(o));
      }
      if (!a.span_file.empty()) {
        std::vector<std::pair<std::string, const pb::SpanLog*>> logs{
            {a.workload, &w->spans()}};
        for (const auto& [name, o] : cross) logs.emplace_back(name + " (cross pass)", &o->spans());
        if (!pb::write_span_file(a.span_file, logs)) {
          std::fprintf(stderr, "perfbench: cannot write %s\n", a.span_file.c_str());
          return 1;
        }
      }
      notes = "\"measured_in_cross_pass\":{" + sources + "}";
      // host self time per span name: where the step's host time went
      for (const auto& [name, st] : w->spans().stats()) {
        std::printf("span %-22s n=%-6zu median %9.3f ms  total %10.1f ms  self %10.1f ms\n",
                    name.c_str(), st.dur_ms.size(), pb::median(st.dur_ms),
                    st.dur_ms_total, st.self_ms_total);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const std::vector<std::string>& names = a.trace == 0 ? kEndToEnd : kPerLayer;
  for (const std::string& n : names) {
    if (!m.contains(n)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", n.c_str());
      return 1;
    }
  }
  std::printf("manifest {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
              "\"smoke\":%s,\"nproc\":%d,\"backend\":\"tasks\",\"workers\":%d,"
              "\"omp_threads\":%d,\"build_type\":\"%s\",\"revision\":\"%s\"%s%s}\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
              a.trace, a.smoke ? "true" : "false", nproc, w->workers(), omp_threads,
              PERFBENCH_BUILD_TYPE, a.revision.c_str(), notes.empty() ? "" : ",",
              notes.c_str());
  print_json_metrics(m, names, tally.failed == 0, tally);
  return 0;
}
