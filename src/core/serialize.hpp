#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

namespace ca::core {

/// Minimal little-endian binary (de)serialization for checkpoints. Streams
/// throw on truncation/corruption instead of silently yielding zeros, so a
/// damaged checkpoint file fails loud at load time.

inline void write_i64(std::ostream& os, std::int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::int64_t read_i64(std::istream& is) {
  std::int64_t v = 0;
  is.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!is) throw std::runtime_error("checkpoint: truncated stream (i64)");
  return v;
}

inline void write_f32s(std::ostream& os, const float* p, std::int64_t n) {
  os.write(reinterpret_cast<const char*>(p),
           static_cast<std::streamsize>(n) *
               static_cast<std::streamsize>(sizeof(float)));
}

inline void read_f32s(std::istream& is, float* p, std::int64_t n) {
  is.read(reinterpret_cast<char*>(p),
          static_cast<std::streamsize>(n) *
              static_cast<std::streamsize>(sizeof(float)));
  if (!is) throw std::runtime_error("checkpoint: truncated stream (f32[])");
}

inline void write_str(std::ostream& os, const std::string& s) {
  write_i64(os, static_cast<std::int64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Bytes left to read in `is`, or -1 when the stream cannot seek. Readers
/// check a length field against it, so a damaged length fails as a short
/// read before that many bytes are allocated.
inline std::int64_t remaining_bytes(std::istream& is) {
  const auto here = is.tellg();
  if (here < 0) return -1;
  is.seekg(0, std::ios::end);
  const auto left = static_cast<std::int64_t>(is.tellg() - here);
  is.seekg(here);
  return left;
}

inline std::string read_str(std::istream& is) {
  const std::int64_t n = read_i64(is);
  if (n < 0 || n > (std::int64_t{1} << 32)) {
    throw std::runtime_error("checkpoint: corrupt string length");
  }
  const std::int64_t left = remaining_bytes(is);
  if (left >= 0 && n > left) {
    throw std::runtime_error("checkpoint: truncated stream (str)");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  if (!is) throw std::runtime_error("checkpoint: truncated stream (str)");
  return s;
}

}  // namespace ca::core
