//===- service/JobLine.h - calibro-compiled job-line parser -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parser for one calibro-compiled job line:
///
///   app=<name> scale=<s> [seed=<n>] [budget=<bytes>] out=<path>
///
/// Tokens are whitespace-separated key=value pairs in any order. scale is a
/// number > 0; seed and budget are decimal integers. app and out are
/// required. Anything else — a token without '=', an unknown key, a
/// malformed number — rejects the whole line.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_SERVICE_JOBLINE_H
#define CALIBRO_SERVICE_JOBLINE_H

#include <cstdint>
#include <string>

namespace calibro {
namespace service {

/// One parsed job line.
struct JobLine {
  std::string AppName;
  double Scale = 0.5;
  uint64_t Seed = 0;
  uint64_t BudgetBytes = 0;
  std::string Out;
};

/// Parses \p Line into \p J. Returns false when the line is malformed or
/// lacks app or out; \p J is then partially filled and must not be used.
bool parseJobLine(const std::string &Line, JobLine &J);

} // namespace service
} // namespace calibro

#endif // CALIBRO_SERVICE_JOBLINE_H
