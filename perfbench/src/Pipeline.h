//===- perfbench/Pipeline.h - Traced build pipeline -------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced build: the same sequence of public library calls that
/// core::compileApp + core::linkApp make, with a span around each call.
/// Its image must be byte-identical to core::buildApp's; the workloads
/// check that on every traced build.
///
/// Only private-pool, cache-less builds are traced this way (plopti_cold
/// and closed_profiled); the daemon runs its builds inside
/// service::CompileService and is traced from its job records instead.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PERFBENCH_PIPELINE_H
#define CALIBRO_PERFBENCH_PIPELINE_H

#include "Trace.h"

#include "core/Calibro.h"

#include <map>
#include <string>

namespace perfbench {

/// Per-layer figures gathered across builds: sums (counts, seconds) and
/// peaks (MB) keyed by metric name.
struct LayerSink {
  std::map<std::string, double> Sum;
  std::map<std::string, double> Peak;

  void add(const std::string &Name, double V) { Sum[Name] += V; }
  void peak(const std::string &Name, double V) {
    double &P = Peak[Name];
    if (V > P)
      P = V;
  }
};

/// Where a traced build records: the tracer, the span to nest under, the
/// build id, and the per-layer sink.
struct TraceContext {
  Tracer &T;
  uint32_t Parent = 0;
  uint32_t Build = 0;
  LayerSink &Layers;
};

/// core::buildApp with a span around each public call it makes. Fails on
/// options this replica does not cover (a cache or an external pool).
calibro::Expected<calibro::core::BuildResult>
tracedBuildApp(const calibro::dex::App &App,
               const calibro::core::CalibroOptions &Opts, TraceContext &Ctx);

} // namespace perfbench

#endif // CALIBRO_PERFBENCH_PIPELINE_H
