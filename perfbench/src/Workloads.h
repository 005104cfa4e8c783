//===- perfbench/Workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three seeded workloads (see README.md for why each exists):
///
///  * plopti_cold: CTO+LTBO+PlOpti builds of the six paper presets at
///    scales {2, 8, 32}, open world, no profile, no cache.
///  * closed_profiled: the same apps made closed-world, each built through
///    the Fig. 6 profile flow (pre-build, profiling run, profiled build
///    with GC, merge, hot filtering and layout).
///  * daemon_service: two closed-loop clients submitting builds of the six
///    presets at scale 2 (three seeded versions each) to an in-process
///    CompileService under a global detect budget.
///
/// Every workload times its builds, then (untimed) verifies every distinct
/// image, compares its observed behaviour with an unoptimised build of the
/// same app, and checks image digests for determinism.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PERFBENCH_WORKLOADS_H
#define CALIBRO_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line.
struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  /// Multiplies every app scale (tests run at tiny scale).
  double ScaleFactor = 1.0;
  /// Where the Chrome trace goes (trace runs); empty = not written.
  std::string TracePath;
  /// Directory for run state: temporary files and the digest records that
  /// cross-check runs with the same seed. Empty = no digest records.
  std::string StateDir;
  /// Test hook: corrupt one reference observation, which must make the
  /// behaviour check fail.
  bool WrongObservation = false;
  /// Load-generating threads (compile/LTBO threads, the daemon's pool):
  /// the machine's hardware threads.
  unsigned Threads = 1;
};

/// One emitted metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool GatesOk = true; ///< Non-trivial-corpus gates.
  std::vector<Metric> Metrics;

  bool correct() const { return Failed == 0 && GatesOk && Attempted > 0; }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Runs \p Opts.Workload. Progress and check failures go to stderr.
RunReport runWorkload(const Options &Opts);

} // namespace perfbench

#endif // CALIBRO_PERFBENCH_WORKLOADS_H
