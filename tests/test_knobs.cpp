// The knob table (core/knobs.hpp) walked entry by entry: every knob rejects
// garbage from the environment and the config with its structured error,
// treats an empty environment value as unset, and resolves env > config >
// default. Also pins the table's defaults to Config's and the consumers',
// and checks that README.md names every environment variable and config key.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>

#include "core/config_parser.hpp"
#include "core/knobs.hpp"
#include "obs/metrics.hpp"
#include "scoped_env.hpp"
#include "sim/fault.hpp"

namespace core = ca::core;
namespace sim = ca::sim;
using core::Knob;
using core::KnobSource;
using core::KnobSpec;
using core::KnobType;

namespace {

Knob knob_at(std::size_t i) { return static_cast<Knob>(i); }

/// Reads knob `k` the way its consumer does (a kSpec grammar is parsed by
/// FaultPlan) and returns the checked text.
std::string read(const core::Knobs& knobs, Knob k) {
  switch (core::knob_spec(k).type) {
    case KnobType::kInt:
      (void)knobs.integer(k);
      break;
    case KnobType::kReal:
      (void)knobs.real(k);
      break;
    case KnobType::kSpec:
      (void)sim::FaultPlan::from_env(knobs);
      break;
    case KnobType::kChoice:
      break;
  }
  return knobs.text(k);
}

/// A valid value other than the default.
std::string other_value(const KnobSpec& s) {
  switch (s.type) {
    case KnobType::kChoice: {
      std::stringstream names(s.allowed);
      std::string name;
      while (std::getline(names, name, '|')) {
        if (name != s.def) return name;
      }
      break;
    }
    case KnobType::kInt: {
      const auto lo = static_cast<long long>(s.lo);
      return std::to_string(std::to_string(lo + 1) == s.def ? lo + 2 : lo + 1);
    }
    case KnobType::kReal:
      return "0.5";
    case KnobType::kSpec: {
      const std::string env = s.env;
      if (env == "CA_FAULT_FAILSTOP") return "1@4";
      if (env == "CA_FAULT_STRAGGLER") return "1@0.5:2:3";
      if (env == "CA_FAULT_LINK") return "1:0.5:2";
      if (env == "CA_FAULT_NAN") return "0@3";
      if (env == "CA_FAULT_TRANSIENT") return "0.1:0.2";
      if (env == "CA_FAULT_CKPT_CORRUPT") return "3:16";
      break;
    }
  }
  ADD_FAILURE() << "no sample value for " << s.env;
  return s.def;
}

/// Runs `fn`, which must throw the structured error naming `name`, the bad
/// value and the knob's allowed set.
template <class Fn>
void expect_knob_error(const KnobSpec& s, const std::string& name, Fn fn) {
  try {
    fn();
    ADD_FAILURE() << name << " accepted garbage";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(name + ":"), std::string::npos) << what;
    EXPECT_NE(what.find("'garbage!'"), std::string::npos) << what;
    EXPECT_NE(what.find(core::knob_allowed(s)), std::string::npos) << what;
  }
}

}  // namespace

TEST(KnobTable, EveryEntryRejectsGarbageFromEnvAndConfig) {
  for (std::size_t i = 0; i < core::kNumKnobs; ++i) {
    const KnobSpec& s = core::knob_spec(knob_at(i));
    SCOPED_TRACE(s.env);
    {
      ScopedEnv env(s.env, "garbage!");
      expect_knob_error(s, s.env,
                        [&] { read(core::Knobs::resolve(), knob_at(i)); });
    }
    ScopedEnv clear(s.env, nullptr);
    for (const char* key : {s.key, s.alias}) {
      if (key == nullptr) continue;
      expect_knob_error(s, key, [&] {
        core::parse_config(std::string(key) + "=garbage!");
      });
    }
    // A Config filled in code is checked by validate() against the same row.
    core::Config cfg;
    std::visit(
        [&](auto m) {
          using M = decltype(m);
          if constexpr (std::is_same_v<M, std::string core::Config::*>) {
            cfg.*m = "garbage!";
          } else if constexpr (std::is_same_v<M, int core::Config::*>) {
            cfg.*m = static_cast<int>(s.lo) - 1;
          } else if constexpr (std::is_same_v<M, double core::Config::*>) {
            cfg.*m = s.lo;
          }
        },
        s.field);
    if (s.key != nullptr) {
      EXPECT_THROW(cfg.validate(), std::invalid_argument);
    }
  }
}

TEST(KnobTable, EmptyEnvCountsAsUnset) {
  core::Config cfg;
  for (std::size_t i = 0; i < core::kNumKnobs; ++i) {
    const KnobSpec& s = core::knob_spec(knob_at(i));
    SCOPED_TRACE(s.env);
    ScopedEnv env(s.env, "");
    const auto defaults = core::Knobs::resolve();
    EXPECT_EQ(defaults.source(knob_at(i)), KnobSource::kDefault);
    EXPECT_EQ(read(defaults, knob_at(i)), s.def);
    EXPECT_EQ(core::Knobs::resolve(&cfg).source(knob_at(i)),
              s.key != nullptr ? KnobSource::kConfig : KnobSource::kDefault);
  }
}

TEST(KnobTable, EnvBeatsConfigBeatsDefault) {
  for (std::size_t i = 0; i < core::kNumKnobs; ++i) {
    const KnobSpec& s = core::knob_spec(knob_at(i));
    const Knob k = knob_at(i);
    SCOPED_TRACE(s.env);
    const std::string other = other_value(s);
    ASSERT_NE(other, s.def);
    {
      ScopedEnv env(s.env, other.c_str());
      const auto knobs = core::Knobs::resolve();
      EXPECT_EQ(knobs.source(k), KnobSource::kEnv);
      EXPECT_EQ(read(knobs, k), other);
    }
    if (s.key == nullptr) continue;
    const auto cfg = core::parse_config(std::string(s.key) + "=" + other);
    {
      ScopedEnv env(s.env, nullptr);
      const auto knobs = core::Knobs::resolve(&cfg);
      EXPECT_EQ(knobs.source(k), KnobSource::kConfig);
      EXPECT_EQ(read(knobs, k), other);
    }
    {
      ScopedEnv env(s.env, s.def);
      const auto knobs = core::Knobs::resolve(&cfg);
      EXPECT_EQ(knobs.source(k), KnobSource::kEnv);
      EXPECT_EQ(read(knobs, k), s.def);
    }
  }
}

TEST(KnobTable, DefaultsMatchConfigAndConsumers) {
  const core::Config cfg;
  for (std::size_t i = 0; i < core::kNumKnobs; ++i) {
    const KnobSpec& s = core::knob_spec(knob_at(i));
    SCOPED_TRACE(s.env);
    ScopedEnv env(s.env, nullptr);
    EXPECT_EQ(core::Knobs::resolve(&cfg).text(knob_at(i)), s.def);
  }
  ScopedEnv buckets("CA_METRICS_HIST_BUCKETS", nullptr);
  ScopedEnv watchdog("CA_FAULT_WATCHDOG", nullptr);
  ScopedEnv retry_base("CA_FAULT_RETRY_BASE", nullptr);
  ScopedEnv retries("CA_FAULT_RETRIES", nullptr);
  ScopedEnv seed("CA_FAULT_SEED", nullptr);
  const auto knobs = core::Knobs::resolve();
  EXPECT_EQ(knobs.integer(Knob::kMetricsHistBuckets),
            ca::obs::kDefaultHistBuckets);
  const sim::FaultPlan plan;
  EXPECT_EQ(knobs.real(Knob::kFaultWatchdog), plan.watchdog);
  EXPECT_EQ(knobs.real(Knob::kFaultRetryBase), plan.retry_base);
  EXPECT_EQ(knobs.integer(Knob::kFaultRetries), plan.max_retries);
  EXPECT_EQ(static_cast<std::uint64_t>(knobs.integer(Knob::kFaultSeed)),
            plan.seed);
}

TEST(KnobTable, ReadmeNamesEveryKnob) {
  std::ifstream in(std::string(CA_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in) << "README.md not found";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string readme = buf.str();
  for (std::size_t i = 0; i < core::kNumKnobs; ++i) {
    const KnobSpec& s = core::knob_spec(knob_at(i));
    for (const char* name : {s.env, s.key, s.alias}) {
      if (name == nullptr) continue;
      EXPECT_NE(readme.find(std::string("`") + name + "`"), std::string::npos)
          << name << " is missing from README.md";
    }
  }
}
