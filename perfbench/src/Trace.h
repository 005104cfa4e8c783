//===- perfbench/Trace.h - Benchmark-side span tracer -----------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own span tracer. The library has no tracing of its own,
/// so the traced run records a span in benchmark code around each public
/// call a build makes (see Pipeline.h). A span has a name, a start and end
/// on one steady clock, a parent span and the id of the build it belongs
/// to. Spans are written as Chrome trace-event JSON (Perfetto and
/// chrome://tracing open it) and folded into a flat per-layer table of
/// self time.
///
/// Per-method calls (HGraph build, each HIR pass, codegen) run thousands of
/// times per build on pool workers; recording each as a span would swamp
/// the trace, so the pipeline sums them per layer and attaches the sums to
/// the enclosing stage span (Tracer::addBusy).
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_PERFBENCH_TRACE_H
#define CALIBRO_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double nowSeconds();

/// Process CPU seconds (all threads).
double processCpuSeconds();

/// One recorded span. Times are nowSeconds() values.
struct Span {
  std::string Name;
  uint32_t Id = 0;
  uint32_t Parent = 0; ///< 0 = a root span.
  uint32_t Build = 0;
  uint32_t Tid = 0;    ///< Lane in the trace view (the daemon's client).
  double Start = 0, End = 0;
  double seconds() const { return End - Start; }
};

/// Collects spans. Single-threaded: spans are recorded by the thread that
/// drives the builds (pool workers only fill per-method arrays). A run
/// constructs one only when tracing is on.
class Tracer {
public:
  /// A fresh span id (ids start at 1).
  uint32_t newSpanId() { return ++NextSpan; }

  /// Records a finished span.
  void record(Span S) { Spans.push_back(std::move(S)); }

  /// Adds \p Seconds of busy time for \p Layer under span \p SpanId
  /// (summed per-method work that is not recorded call by call). The sums
  /// appear as args of that span in the Chrome trace.
  void addBusy(uint32_t SpanId, const std::string &Layer, double Seconds) {
    Busy[{SpanId, Layer}] += Seconds;
  }

  /// A fresh build id (ids start at 1).
  uint32_t newBuild() { return ++NextBuild; }

  const std::vector<Span> &spans() const { return Spans; }

  /// Busy seconds per layer, summed over spans.
  std::map<std::string, double> busyTotals() const;

  /// Total span time per name, summed over spans.
  std::map<std::string, double> spanTotals() const;

  /// Self time per layer: span time minus the time of child spans, plus
  /// the per-method busy sums.
  std::map<std::string, double> selfTimes() const;

  /// Writes the Chrome trace-event JSON. Returns false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::map<std::pair<uint32_t, std::string>, double> Busy;
  uint32_t NextBuild = 0;
  uint32_t NextSpan = 0;
};

/// RAII span: records [construction, destruction).
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, std::string Name, uint32_t Parent, uint32_t Build)
      : T(T) {
    S.Name = std::move(Name);
    S.Id = T.newSpanId();
    S.Parent = Parent;
    S.Build = Build;
    S.Start = nowSeconds();
  }
  ~ScopedSpan() { finish(); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// The span's id, for children to name as their parent.
  uint32_t id() const { return S.Id; }

  /// Ends the span early (idempotent).
  void finish() {
    if (Done)
      return;
    Done = true;
    S.End = nowSeconds();
    T.record(std::move(S));
  }

private:
  Tracer &T;
  Span S;
  bool Done = false;
};

/// VmHWM growth tracking through /proc/self/clear_refs ("5" resets the
/// high-water mark to the current resident set).
struct RssProbe {
  /// Resets VmHWM and remembers the resident set at this point. A reset
  /// that fails leaves VmHWM at an earlier peak; it is counted in
  /// rssResetFailures(), which every run checks.
  void reset();
  /// MB of VmHWM growth above the resident set at the last reset().
  double growthMb() const;

  uint64_t BaseBytes = 0;
};

/// RssProbe::reset calls in this process whose VmHWM reset failed.
uint64_t rssResetFailures();

} // namespace perfbench

#endif // CALIBRO_PERFBENCH_TRACE_H
