#include "core/knobs.hpp"

#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace ca::core {

namespace {

constexpr double kIntMax = std::numeric_limits<int>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();
using K = KnobType;

// One row per knob, in `Knob` order: parse_config, Config::validate,
// Knobs::resolve and the error messages all follow from it.
constexpr std::array<KnobSpec, kNumKnobs> kTable = {{
    {"CA_SIM_BACKEND", "sim.backend", nullptr, &Config::sim_backend, K::kChoice,
     "threads|tasks", 0, 0, "threads", "rank execution backend"},
    {"CA_SIM_WORKERS", "sim.workers", nullptr, &Config::sim_workers, K::kInt,
     nullptr, 0, kIntMax, "0", "tasks-backend workers; 0 = one per core"},
    {"CA_SIM_STACK_KB", nullptr, nullptr, {}, K::kInt, nullptr, 0, kIntMax, "0",
     "fiber stack KiB; 0 = 1 MiB (8 MiB under sanitizers)"},
    {"CA_METRICS", "metrics", "metrics.enabled", &Config::metrics, K::kChoice,
     "on|off", 0, 0, "off", "attach the per-rank metric sinks"},
    {"CA_METRICS_HIST_BUCKETS", "metrics.hist_buckets", nullptr,
     &Config::metrics_hist_buckets, K::kInt, nullptr, 1, 4096, "64",
     "log2 histogram bucket count"},
    {"CA_COLLECTIVE_ALGO", "collective_algo", "collective.algo",
     &Config::collective_algo, K::kChoice,
     "auto|chunked|ring|hierarchical|single_root", 0, 0, "auto",
     "algorithm of every collective; auto = cost-ranked per call"},
    {"CA_COMM_DTYPE", "comm_dtype", "comm.dtype", &Config::comm_dtype,
     K::kChoice, "f32|fp32|float32|f16|fp16|half|bf16|bfloat16", 0, 0, "f32",
     "wire dtype of context-resolved collectives and p2p"},
    {"CA_PP_SCHEDULE", "pp.schedule", "pipeline.schedule", &Config::pp_schedule,
     K::kChoice, "fill_drain|gpipe|1f1b|interleaved|zero_bubble|zb", 0, 0,
     "1f1b", "schedule of pipelines built without one"},
    {"CA_FAULT_WATCHDOG", "fault.watchdog", nullptr, &Config::fault_watchdog,
     K::kReal, nullptr, 0, kInf, "1", "collective watchdog budget (sim s)"},
    {"CA_FAULT_RETRY_BASE", nullptr, nullptr, {}, K::kReal, nullptr, 0, kInf,
     "0.25", "first transient-fault retry backoff (sim s)"},
    {"CA_FAULT_RETRIES", nullptr, nullptr, {}, K::kInt, nullptr, 0, 62, "5",
     "retries before a transient fault times out"},
    {"CA_FAULT_SEED", nullptr, nullptr, {}, K::kInt, nullptr, 0, kInf, "0",
     "seed of all fault randomness"},
    {"CA_FAULT_FAILSTOP", nullptr, nullptr, {}, K::kSpec,
     "<rank>@<step>|<rank>@t<clock>", 0, 0, "", "rank dies at a step / time"},
    {"CA_FAULT_STRAGGLER", nullptr, nullptr, {}, K::kSpec,
     "<rank>@<from>:<duration>:<factor>", 0, 0, "", "slow one rank's compute"},
    {"CA_FAULT_LINK", nullptr, nullptr, {}, K::kSpec,
     "<from>:<duration>:<factor>", 0, 0, "", "slow every transfer"},
    {"CA_FAULT_NAN", nullptr, nullptr, {}, K::kSpec, "<rank>@<step>", 0, 0, "",
     "poison one gradient with NaN"},
    {"CA_FAULT_TRANSIENT", nullptr, nullptr, {}, K::kSpec, "<from>:<duration>",
     0, 0, "", "fail collectives in a window, then retry"},
    {"CA_FAULT_CKPT_CORRUPT", nullptr, nullptr, {}, K::kSpec,
     "<step>|<step>:<offset>", 0, 0, "", "flip a byte of one checkpoint"},
    {"CA_ELASTIC", "elastic", "elastic.enabled", &Config::elastic, K::kChoice,
     "on|off", 0, 0, "off", "survive fail-stops by re-planning"},
    {"CA_ELASTIC_MIN_WORLD", "elastic.min_world", nullptr,
     &Config::elastic_min_world, K::kInt, nullptr, 1, kIntMax, "1",
     "fewest survivors worth continuing with"},
}};

std::string format_real(double d) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, d).ptr);
}

bool is_choice(std::string_view names, std::string_view v) {
  for (std::size_t bar; (bar = names.find('|')) != std::string_view::npos;
       names.remove_prefix(bar + 1)) {
    if (names.substr(0, bar) == v) return true;
  }
  return names == v;
}

/// Throws the structured error unless `value` is allowed for `s`.
void check(const KnobSpec& s, std::string_view value, std::string_view name) {
  bool ok = true;  // kSpec: the consumer parses the grammar
  if (s.type == K::kChoice) {
    ok = is_choice(s.allowed, value);
  } else if (s.type == K::kInt) {
    const auto n = parse_knob_number<std::int64_t>(value);
    ok = n && *n >= s.lo && *n <= s.hi;
  } else if (s.type == K::kReal) {
    const auto d = parse_knob_number<double>(value);
    ok = d && *d > s.lo && *d <= s.hi;
  }
  if (!ok) throw_bad_knob(s, name, value);
}

template <class... F>
struct Overload : F... {
  using F::operator()...;
};

/// The value of `s`'s Config member, as text.
std::string field_text(const KnobSpec& s, const Config& c) {
  return std::visit(
      Overload{[&](std::monostate) { return std::string(s.def); },
               [&](std::string Config::*m) { return c.*m; },
               [&](int Config::*m) { return std::to_string(c.*m); },
               [&](double Config::*m) { return format_real(c.*m); }},
      s.field);
}

}  // namespace

const KnobSpec& knob_spec(Knob k) {
  return kTable[static_cast<std::size_t>(k)];
}

std::string knob_allowed(const KnobSpec& s) {
  const auto i = [](double v) {
    return std::to_string(static_cast<std::int64_t>(v));
  };
  if (s.type == K::kReal) return "a number > " + format_real(s.lo);
  if (s.type != K::kInt) return s.allowed;
  return s.hi >= kIntMax ? "an integer >= " + i(s.lo)
                         : "an integer in " + i(s.lo) + ".." + i(s.hi);
}

void throw_bad_knob(const KnobSpec& s, std::string_view name,
                    std::string_view value) {
  throw std::invalid_argument(std::string(name) + ": bad value '" +
                              std::string(value) + "' (want " +
                              knob_allowed(s) + ")");
}

bool set_config_knob(Config& config, std::string_view key,
                     std::string_view value) {
  for (const KnobSpec& s : kTable) {
    if (s.key == nullptr || (key != s.key && (!s.alias || key != s.alias))) {
      continue;
    }
    check(s, value, key);
    std::visit(Overload{[](std::monostate) {},
                        [&](std::string Config::*m) { config.*m = value; },
                        [&](int Config::*m) {
                          config.*m = *parse_knob_number<int>(value);
                        },
                        [&](double Config::*m) {
                          config.*m = *parse_knob_number<double>(value);
                        }},
               s.field);
    return true;
  }
  return false;
}

void validate_config_knobs(const Config& config) {
  for (const KnobSpec& s : kTable) {
    if (s.key != nullptr) check(s, field_text(s, config), s.key);
  }
}

Knobs Knobs::resolve(const Config* config) {
  Knobs k;
  for (std::size_t i = 0; i < kNumKnobs; ++i) {
    const KnobSpec& s = kTable[i];
    const char* e = std::getenv(s.env);
    if (e != nullptr && *e != '\0') {
      k.slots_[i] = {e, KnobSource::kEnv};
    } else if (config != nullptr && s.key != nullptr) {
      k.slots_[i] = {field_text(s, *config), KnobSource::kConfig};
    } else {
      k.slots_[i] = {s.def, KnobSource::kDefault};
    }
  }
  return k;
}

const std::string& Knobs::text(Knob k) const {
  const KnobSpec& s = knob_spec(k);
  const std::string& v = slots_[static_cast<std::size_t>(k)].value;
  check(s, v, source(k) == KnobSource::kConfig ? s.key : s.env);
  return v;
}

std::int64_t Knobs::integer(Knob k) const {
  return *parse_knob_number<std::int64_t>(text(k));
}

double Knobs::real(Knob k) const { return *parse_knob_number<double>(text(k)); }

}  // namespace ca::core
