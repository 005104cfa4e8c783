//===- support/NumericArgs.h - Strict numeric argument parsing --*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser for numbers typed by a user: CLI flags, bench scale
/// arguments and daemon job-line fields. The whole string must be the
/// number — no sign, whitespace, trailing characters, or out-of-range
/// value — so a typo can never turn into a silent zero, a wrapped negative
/// or a scale-0 run whose gates pass vacuously. Callers exit with status 2
/// and their usage text on nullopt.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SUPPORT_NUMERICARGS_H
#define CALIBRO_SUPPORT_NUMERICARGS_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace calibro {
namespace support {

/// A decimal integer in [\p Min, \p Max].
inline std::optional<uint64_t>
parseUnsigned(std::string_view S, uint64_t Min = 0,
              uint64_t Max = std::numeric_limits<uint64_t>::max()) {
  uint64_t V = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (S.empty() || Ec != std::errc() || End != S.data() + S.size() ||
      V < Min || V > Max)
    return std::nullopt;
  return V;
}

/// A finite number > 0 (decimal or exponent notation).
inline std::optional<double> parsePositive(std::string_view S) {
  double V = 0;
  auto [End, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
  if (S.empty() || Ec != std::errc() || End != S.data() + S.size() ||
      !std::isfinite(V) || V <= 0)
    return std::nullopt;
  return V;
}

} // namespace support
} // namespace calibro

#endif // CALIBRO_SUPPORT_NUMERICARGS_H
