// Strict numeric parsing for CLI boundaries.
//
// The CLI binaries used to funnel every numeric flag through atoll/atof/atoi,
// so `--seed garbage` silently became 0 and `--runs 3x` became 3. These
// helpers accept a number if and only if the *entire* string is a valid,
// in-range literal: no leading whitespace, no trailing junk, no silent
// saturation. They return false instead of exiting so the CLIs can attach
// the flag name to the diagnostic (and tests can probe them directly).
#pragma once

#include <cstdint>

namespace enviromic::util {

/// Base-10 unsigned integer; rejects signs, whitespace, trailing junk, and
/// values above 2^64-1.
bool parse_u64(const char* s, std::uint64_t* out);

/// Finite floating-point literal (strtod grammar minus inf/nan); rejects
/// leading whitespace, trailing junk, and overflow to infinity.
bool parse_double(const char* s, double* out);

}  // namespace enviromic::util
