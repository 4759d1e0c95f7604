#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace enviromic::util {

bool parse_u64(const char* s, std::uint64_t* out) {
  // strtoull quietly accepts leading whitespace and negates '-' values;
  // demand a bare digit up front so neither slips through.
  if (s == nullptr || std::isdigit(static_cast<unsigned char>(*s)) == 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const char* s, double* out) {
  if (s == nullptr || *s == '\0' ||
      std::isspace(static_cast<unsigned char>(*s))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  // ERANGE covers both overflow and benign underflow-to-subnormal; only the
  // former (and literal inf/nan spellings) should be rejected.
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace enviromic::util
