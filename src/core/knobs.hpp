#pragma once

#include <array>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "core/config.hpp"

namespace ca::core {

/// Every CA_* setting, in table (and README) order.
enum class Knob {
  kSimBackend, kSimWorkers, kSimStackKb, kMetrics, kMetricsHistBuckets,
  kCollectiveAlgo, kCommDtype, kPpSchedule, kFaultWatchdog, kFaultRetryBase,
  kFaultRetries, kFaultSeed, kFaultFailstop, kFaultStraggler, kFaultLink,
  kFaultNan, kFaultTransient, kFaultCkptCorrupt, kElastic, kElasticMinWorld
};
inline constexpr std::size_t kNumKnobs = 20;

enum class KnobType {
  kChoice,  ///< one of the '|'-separated names in `allowed`
  kInt,     ///< integer in [lo, hi]
  kReal,    ///< number in (lo, hi]
  kSpec,    ///< text in the grammar `allowed`, parsed by its consumer
};

enum class KnobSource { kDefault, kConfig, kEnv };

/// One row of the knob table.
struct KnobSpec {
  const char* env;
  const char* key;    ///< config key; nullptr for environment-only knobs
  const char* alias;  ///< second config key, or nullptr
  std::variant<std::monostate, std::string Config::*, int Config::*,
               double Config::*>
      field;  ///< the Config member the key fills
  KnobType type;
  const char* allowed;  ///< kChoice names / kSpec grammar
  double lo, hi;        ///< kInt / kReal range
  const char* def;      ///< default, as the text a user would write
  const char* doc;
};

[[nodiscard]] const KnobSpec& knob_spec(Knob k);

/// `v` as a T when all of it parses (std::from_chars), else nullopt.
template <class T>
[[nodiscard]] std::optional<T> parse_knob_number(std::string_view v) {
  T out{};
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size()) return std::nullopt;
  return out;
}

/// What a value must look like ("threads|tasks", "an integer in 1..4096").
[[nodiscard]] std::string knob_allowed(const KnobSpec& spec);

/// Throws std::invalid_argument "<name>: bad value '<value>' (want ...)".
[[noreturn]] void throw_bad_knob(const KnobSpec& spec, std::string_view name,
                                 std::string_view value);

/// Checks `value` and stores it in `config` when `key` is a knob's config
/// key or alias; false for any other key.
bool set_config_knob(Config& config, std::string_view key,
                     std::string_view value);
/// Throws unless every knob member of `config` holds an allowed value.
void validate_config_knobs(const Config& config);

/// Every knob resolved by one rule: a non-empty environment value, else the
/// `config` member (when a config is given and the knob has one), else the
/// table default. Values are checked as they are read, so a consumer raises
/// only for the knobs it uses.
class Knobs {
 public:
  [[nodiscard]] static Knobs resolve(const Config* config = nullptr);

  /// The value, checked against its row (garbage throws the structured
  /// error); integer() and real() read kInt and kReal knobs.
  [[nodiscard]] const std::string& text(Knob k) const;
  [[nodiscard]] std::int64_t integer(Knob k) const;
  [[nodiscard]] double real(Knob k) const;
  [[nodiscard]] KnobSource source(Knob k) const {
    return slots_[static_cast<std::size_t>(k)].source;
  }

 private:
  struct Slot {
    std::string value;
    KnobSource source = KnobSource::kDefault;
  };
  std::array<Slot, kNumKnobs> slots_;
};

}  // namespace ca::core
