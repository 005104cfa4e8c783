//===- perfbench/main.cpp - Benchmark driver entry point ------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// calibro_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///     [--scale-factor <x>] [--trace-out <file>] [--state-dir <dir>]
///     [--wrong-observation]
///
/// Runs one workload and prints, as the last line of stdout, one JSON
/// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
/// only when every check passed; a malformed argument exits 2 before any
/// work.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <thread>

using namespace perfbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "calibro_perfbench: %s\n"
               "usage: calibro_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n"
               "         [--scale-factor <x>] [--trace-out <file>] "
               "[--state-dir <dir>] [--wrong-observation]\n"
               "workloads:",
               Why.c_str());
  for (const auto &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

/// A whole decimal number with no sign, spaces or trailing characters.
bool parseUnsigned(const char *S, uint64_t &Out) {
  if (!*S)
    return false;
  for (const char *P = S; *P; ++P)
    if (*P < '0' || *P > '9')
      return false;
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno == ERANGE || *End)
    return false;
  Out = V;
  return true;
}

/// A finite decimal number > 0 written as digits with an optional
/// fraction ("10", "0.25"); no sign, exponent or trailing characters.
bool parsePositive(const char *S, double &Out) {
  bool Digit = false, Dot = false;
  for (const char *P = S; *P; ++P) {
    if (*P >= '0' && *P <= '9')
      Digit = true;
    else if (*P == '.' && !Dot)
      Dot = true;
    else
      return false;
  }
  if (!Digit)
    return false;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (*End || !std::isfinite(V) || V <= 0)
    return false;
  Out = V;
  return true;
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  std::map<std::string, std::string> Seen;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--wrong-observation") {
      O.WrongObservation = true;
      continue;
    }
    static const char *Valued[] = {"--workload",     "--seed",
                                   "--seconds",      "--trace",
                                   "--scale-factor", "--trace-out",
                                   "--state-dir"};
    bool Known = false;
    for (const char *V : Valued)
      Known |= A == V;
    if (!Known)
      usage("unknown argument '" + A + "'");
    if (I + 1 >= Argc)
      usage(A + " needs a value");
    if (Seen.count(A))
      usage(A + " given twice");
    Seen[A] = Argv[++I];
  }
  for (const char *Required : {"--workload", "--seed", "--seconds", "--trace"})
    if (!Seen.count(Required))
      usage(std::string("missing ") + Required);

  O.Workload = Seen["--workload"];
  bool KnownWorkload = false;
  for (const auto &W : workloadNames())
    KnownWorkload |= W == O.Workload;
  if (!KnownWorkload)
    usage("unknown workload '" + O.Workload + "'");
  if (!parseUnsigned(Seen["--seed"].c_str(), O.Seed))
    usage("--seed must be a whole number, got '" + Seen["--seed"] + "'");
  if (!parsePositive(Seen["--seconds"].c_str(), O.Seconds))
    usage("--seconds must be a number > 0, got '" + Seen["--seconds"] + "'");
  const std::string &Trace = Seen["--trace"];
  if (Trace != "0" && Trace != "1")
    usage("--trace must be 0 or 1, got '" + Trace + "'");
  O.Trace = Trace == "1";
  if (Seen.count("--scale-factor") &&
      !parsePositive(Seen["--scale-factor"].c_str(), O.ScaleFactor))
    usage("--scale-factor must be a number > 0, got '" +
          Seen["--scale-factor"] + "'");
  O.TracePath = Seen["--trace-out"];
  O.StateDir = Seen["--state-dir"];
  O.Threads = std::max(1u, std::thread::hardware_concurrency());
  return O;
}

} // namespace

int main(int argc, char **argv) {
  Options O = parseArgs(argc, argv);
  RunReport R = runWorkload(O);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.correct() ? "true" : "false",
              (unsigned long long)R.Attempted, (unsigned long long)R.Failed);
  for (std::size_t I = 0; I < R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), M.Value, M.Unit.c_str());
  }
  std::printf("}}\n");
  return R.correct() ? 0 : 1;
}
