//===- perfbench/Trace.cpp - Benchmark-side span tracer -------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Memory.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <unordered_map>

using namespace perfbench;

double perfbench::nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point Epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Epoch).count();
}

double perfbench::processCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + 1e-9 * static_cast<double>(Ts.tv_nsec);
}

std::map<std::string, double> Tracer::busyTotals() const {
  std::map<std::string, double> Out;
  for (const auto &[Key, Seconds] : Busy)
    Out[Key.second] += Seconds;
  return Out;
}

std::map<std::string, double> Tracer::spanTotals() const {
  std::map<std::string, double> Out;
  for (const Span &S : Spans)
    Out[S.Name] += S.seconds();
  return Out;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::unordered_map<uint32_t, double> ChildTime;
  for (const Span &S : Spans)
    if (S.Parent)
      ChildTime[S.Parent] += S.seconds();
  std::map<std::string, double> Out;
  for (const Span &S : Spans) {
    auto It = ChildTime.find(S.Id);
    Out[S.Name] += S.seconds() - (It == ChildTime.end() ? 0.0 : It->second);
  }
  for (const auto &[Key, Seconds] : Busy)
    Out[Key.second] += Seconds;
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool First = true;
  for (const Span &S : Spans) {
    std::fprintf(F,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %u, "
                 "\"parent\": %u, \"build\": %u",
                 First ? "" : ",\n", S.Name.c_str(), S.Tid, S.Start * 1e6,
                 S.seconds() * 1e6, S.Id, S.Parent, S.Build);
    // Summed per-method work done under this span, per layer.
    for (auto It = Busy.lower_bound({S.Id, std::string()});
         It != Busy.end() && It->first.first == S.Id; ++It)
      std::fprintf(F, ", \"%s\": %.9f", It->first.second.c_str(),
                   It->second);
    std::fprintf(F, "}}");
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

namespace {

std::atomic<uint64_t> ResetFailures{0};

/// Writes "5" to /proc/self/clear_refs: resets VmHWM to the current RSS.
/// Returns false if the file cannot be opened or written.
bool clearPeakRss() {
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  const bool Wrote = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Wrote;
}

} // namespace

uint64_t perfbench::rssResetFailures() { return ResetFailures.load(); }

void RssProbe::reset() {
  if (!clearPeakRss())
    ++ResetFailures;
  BaseBytes = calibro::support::sampleRss().CurrentBytes;
}

double RssProbe::growthMb() const {
  calibro::support::RssSample S = calibro::support::sampleRss();
  uint64_t Peak = S.PeakBytes > BaseBytes ? S.PeakBytes - BaseBytes : 0;
  return static_cast<double>(Peak) / (1024.0 * 1024.0);
}
