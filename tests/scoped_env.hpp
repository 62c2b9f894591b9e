#pragma once

#include <cstdlib>
#include <optional>
#include <string>

/// Sets one environment variable for a scope (nullptr unsets it) and puts
/// back the previous value, or its absence, on exit, so an outer setting
/// such as CA_SIM_BACKEND=tasks survives the test that overrode it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    set(value);
  }
  ~ScopedEnv() { set(saved_ ? saved_->c_str() : nullptr); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  void set(const char* value) {
    if (value != nullptr) {
      ::setenv(name_, value, 1);
    } else {
      ::unsetenv(name_);
    }
  }

  const char* name_;
  std::optional<std::string> saved_;
};
