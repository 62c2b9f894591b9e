#pragma once

#include <ostream>
#include <string>

#include "core/config.hpp"

// Value-parameterized tensor-parallel suites print their cases with these
// names, e.g. "2d_p4_d1" or "2p5d_p8_d2", instead of gtest's default byte
// dump of the parameter (whose padding bytes are indeterminate).
// gtest_discover_tests names each ctest case Suite.Test/<printed value>, so
// the printer is what keeps `ctest -N` readable and stable. (A gtest name
// generator would not: discovery then appends the whole "# GetParam() = ..."
// comment to the ctest name.)

/// "<mode>_p<p>_d<depth>"; p <= 0 / depth < 0 omit their suffixes.
inline std::string tp_case_name(ca::core::TpMode mode, int p = 0,
                                int depth = -1) {
  std::string name = ca::core::to_string(mode);
  if (const auto dot = name.find('.'); dot != std::string::npos) {
    name[dot] = 'p';
  }
  if (p > 0) name += "_p" + std::to_string(p);
  if (depth >= 0) name += "_d" + std::to_string(depth);
  return name;
}

namespace ca::core {
/// gtest printer for a bare mode parameter (found by argument-dependent
/// lookup).
inline void PrintTo(TpMode mode, std::ostream* os) {
  *os << tp_case_name(mode);
}
}  // namespace ca::core
