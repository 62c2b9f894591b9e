#include "core/config_parser.hpp"

#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "core/knobs.hpp"

namespace ca::core {

namespace {

TpMode parse_mode(const std::string& v) {
  if (v == "1d") return TpMode::k1d;
  if (v == "2d") return TpMode::k2d;
  if (v == "2.5d" || v == "2p5d") return TpMode::k2p5d;
  if (v == "3d") return TpMode::k3d;
  if (v == "none") return TpMode::kNone;
  throw std::invalid_argument("unknown tensor mode '" + v + "'");
}

int parse_int(const std::string& key, const std::string& v) {
  if (const auto n = parse_knob_number<int>(v)) return *n;
  throw std::invalid_argument("bad integer for '" + key + "': '" + v + "'");
}

/// Strip an optional "parallel." prefix (the paper's full schema path).
std::string normalize(std::string key) {
  const std::string prefix = "parallel.";
  if (key.rfind(prefix, 0) == 0) key = key.substr(prefix.size());
  return key;
}

}  // namespace

void Config::validate() const {
  auto require = [](bool ok, const std::string& msg) {
    if (!ok) throw std::invalid_argument(msg);
  };
  require(data_parallel_size >= 1 && pipeline_parallel_size >= 1 &&
              tensor_parallel_size >= 1 && sequence_parallel_size >= 1,
          "parallel sizes must be >= 1");
  require(tensor_parallel_size == 1 || sequence_parallel_size == 1,
          "tensor and sequence parallelism cannot be combined");
  std::int64_t world = 1;
  for (const int size : {data_parallel_size, pipeline_parallel_size,
                         tensor_parallel_size, sequence_parallel_size}) {
    world *= size;  // each factor and partial product fits in 31 bits
    if (world > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          "world size data * pipeline * tensor * sequence = " +
          std::to_string(data_parallel_size) + " * " +
          std::to_string(pipeline_parallel_size) + " * " +
          std::to_string(tensor_parallel_size) + " * " +
          std::to_string(sequence_parallel_size) + " does not fit in int");
    }
  }
  validate_config_knobs(*this);
  require(checkpoint_interval >= 0, "checkpoint.interval must be >= 0");
  switch (tensor_mode) {
    case TpMode::kNone:
      require(tensor_parallel_size == 1,
              "tensor_parallel_size > 1 requires a tensor mode");
      break;
    case TpMode::k1d:
      break;  // any size
    case TpMode::k2d:
      require(exact_sqrt(tensor_parallel_size) != 0,
              "2D tensor parallelism requires a square number of GPUs");
      break;
    case TpMode::k2p5d: {
      require(tensor_depth >= 1, "2.5D depth must be >= 1");
      require(tensor_parallel_size % tensor_depth == 0 &&
                  exact_sqrt(tensor_parallel_size / tensor_depth) != 0,
              "2.5D tensor parallelism requires d * k^2 GPUs");
      break;
    }
    case TpMode::k3d:
      require(exact_cbrt(tensor_parallel_size) != 0,
              "3D tensor parallelism requires a cubic number of GPUs");
      break;
  }
}

Config parse_config(const std::string& text) {
  Config cfg;
  std::istringstream in(text);
  std::string token;
  bool mode_given = false;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("expected key=value, got '" + token + "'");
    }
    const std::string key = normalize(token.substr(0, eq));
    const std::string value = token.substr(eq + 1);

    if (key == "data" || key == "data.size") {
      cfg.data_parallel_size = parse_int(key, value);
    } else if (key == "pipeline" || key == "pipeline.size") {
      cfg.pipeline_parallel_size = parse_int(key, value);
    } else if (key == "tensor.size") {
      cfg.tensor_parallel_size = parse_int(key, value);
    } else if (key == "tensor.mode") {
      cfg.tensor_mode = parse_mode(value);
      mode_given = true;
    } else if (key == "tensor.depth") {
      cfg.tensor_depth = parse_int(key, value);
    } else if (key == "sequence" || key == "sequence.size") {
      cfg.sequence_parallel_size = parse_int(key, value);
    } else if (key == "checkpoint.interval") {
      cfg.checkpoint_interval = parse_int(key, value);
    } else if (key == "checkpoint.dir") {
      cfg.checkpoint_dir = value;
    } else if (!set_config_knob(cfg, key, value)) {
      throw std::invalid_argument("unknown configuration key '" + key + "'");
    }
  }
  // convenience: a tensor size without a mode defaults to 1D, as Megatron
  // users expect
  if (!mode_given && cfg.tensor_parallel_size > 1) {
    cfg.tensor_mode = TpMode::k1d;
  }
  cfg.validate();
  return cfg;
}

}  // namespace ca::core
