// Command-line values for enviromic_cli and enviromic_fleet, parsed by the
// scenario table's parser; a bad one exits 2 naming the flag.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/scenario.h"
#include "util/parse.h"

namespace enviromic::tools {

[[noreturn]] inline void fail(const std::string& msg) {
  std::fprintf(stderr, "%s (see --help)\n", msg.c_str());
  std::exit(2);
}

inline std::uint64_t flag_u64(const char* flag, const char* text) {
  std::uint64_t v = 0;
  if (!util::parse_u64(text, &v)) {
    fail(std::string("bad ") + flag + " '" + text + "': not an unsigned int");
  }
  return v;
}

/// A front-end value of `kind` in [lo, hi], parsed like a parameter.
inline double flag_number(const char* flag, const char* text,
                          core::ParamKind kind, double lo, double hi,
                          const char* choices = nullptr) {
  core::ParamSetting s;
  std::string err;
  if (!core::parse_param({flag, kind, lo, hi, choices}, text, &s, &err)) {
    fail("bad " + err);
  }
  return s.value;
}

/// The value after the flag at argv[i], consumed.
inline const char* flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) fail(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

/// flag_value, or nullptr for a bare scenario flag (the next token is
/// another flag, or there is none).
inline const char* optional_value(int argc, char** argv, int& i) {
  const bool bare =
      i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
  return bare ? nullptr : flag_value(argc, argv, i);
}

}  // namespace enviromic::tools
