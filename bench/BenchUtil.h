//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure harnesses: the standard build
/// configurations from the paper's evaluation (§4.1), the baseline code the
/// §2.2 analysis reads, script execution with aggregate statistics, and
/// table formatting. Every harness accepts one optional positive scale
/// argument (argv[1], default 0.5) controlling workload size; anything else
/// exits with status 2.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_BENCH_BENCHUTIL_H
#define CALIBRO_BENCH_BENCHUTIL_H

#include "codegen/CodeGenerator.h"
#include "core/Calibro.h"
#include "hir/HGraph.h"
#include "hir/Passes.h"
#include "sim/Simulator.h"
#include "support/NumericArgs.h"
#include "workload/Workload.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace calibro {
namespace bench {

/// Paper §4.1 configurations.
inline core::CalibroOptions baselineOpts() { return {}; }

inline core::CalibroOptions ctoOpts() {
  core::CalibroOptions O;
  O.EnableCto = true;
  return O;
}

inline core::CalibroOptions ctoLtboOpts() {
  core::CalibroOptions O = ctoOpts();
  O.EnableLtbo = true;
  return O;
}

/// PlOpti: 8 partitions (paper §4.4 "partitioned the original suffix tree
/// into 8 small suffix trees").
inline core::CalibroOptions plOpts(uint32_t Threads = 2) {
  core::CalibroOptions O = ctoLtboOpts();
  O.LtboPartitions = 8;
  O.LtboThreads = Threads;
  return O;
}

/// Workload scale from argv: no argument gives \p Default; otherwise
/// exactly one finite number > 0 with no trailing characters
/// (support::parsePositive). Anything else (a flag such as `--scale`,
/// garbage, zero, a negative or non-finite value, extra arguments) exits
/// with status 2, so no harness can run — and pass its gates — at a
/// mis-parsed scale.
inline double scaleFromArgs(int Argc, char **Argv, double Default = 0.5) {
  if (Argc == 1)
    return Default;
  std::optional<double> Scale;
  if (Argc == 2)
    Scale = support::parsePositive(Argv[1]);
  if (!Scale) {
    std::fprintf(stderr, "usage: %s [scale]  (scale: a finite number > 0, "
                 "default %g)\n", Argv[0], Default);
    std::exit(2);
  }
  return *Scale;
}

/// Baseline-compiles every method of \p App: the pre-Calibro binary code
/// the §2.2 redundancy analysis runs on.
inline std::vector<codegen::CompiledMethod>
compileBaseline(const dex::App &App) {
  codegen::CtoStubCache Cache;
  codegen::CodeGenerator Gen({.EnableCto = false}, Cache);
  std::vector<codegen::CompiledMethod> Out;
  auto Pipeline = hir::defaultPipeline();
  App.forEachMethod([&](const dex::Method &M) {
    if (M.IsNative) {
      Out.push_back(Gen.compileNative(M));
      return;
    }
    auto G = hir::buildHGraph(M);
    if (!G) {
      std::fprintf(stderr, "%s\n", G.message().c_str());
      std::exit(1);
    }
    hir::runPipeline(*G, Pipeline);
    Out.push_back(Gen.compile(*G));
  });
  return Out;
}

/// Must-succeed build.
inline core::BuildResult build(const dex::App &App,
                               const core::CalibroOptions &Opts) {
  auto B = core::buildApp(App, Opts);
  if (!B) {
    std::fprintf(stderr, "build failed: %s\n", B.message().c_str());
    std::exit(1);
  }
  return std::move(*B);
}

/// Aggregate result of one scripted run (the uiautomator substitute; the
/// paper runs its scripts 20 times and averages — our simulator is
/// deterministic, so one run IS the average).
struct ScriptResult {
  uint64_t Cycles = 0;
  uint64_t Insns = 0;
  uint64_t ICacheMisses = 0;
  uint64_t MemoryBytes = 0; ///< Touched code pages + stackmaps + heap.
  profile::Profile Prof;
};

inline ScriptResult runScript(const oat::OatFile &Oat,
                              const std::vector<workload::Invocation> &Script,
                              bool CollectProfile = false) {
  sim::SimOptions Opts;
  Opts.CollectProfile = CollectProfile;
  // Residency granularity scaled to the simulated app size (see
  // SimOptions::PageShift): 256-byte "pages".
  Opts.PageShift = 8;
  sim::Simulator Sim(Oat, Opts);
  ScriptResult S;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R) {
      std::fprintf(stderr, "script fault: %s\n", R.message().c_str());
      std::exit(1);
    }
    S.Cycles += R->Cycles;
    S.Insns += R->Insns;
    S.ICacheMisses += R->ICacheMisses;
  }
  // The Table 5 memory model: resident code pages (demand-touched), plus a
  // readahead share of the mapped OAT file (the OS faults file pages in
  // readahead chunks, so a slice of untouched file is resident too), plus
  // loaded StackMap metadata and the app heap. The readahead share is what
  // transmits on-disk savings into memory savings at the paper's ~1:3
  // ratio (19.19% disk -> 6.82% memory).
  S.MemoryBytes = Sim.touchedTextBytes() + Oat.textBytes() / 4 +
                  Oat.stackMapBytes() + Sim.heapBytesAllocated();
  if (CollectProfile)
    S.Prof = Sim.profileData();
  return S;
}

/// Non-trivial corpus gate: a build of an app with no methods, or an
/// outlining build that outlined nothing, measures nothing, so every shape
/// check computed from it would pass vacuously (a scale-0 or mis-parsed
/// run). Prints a FAIL line naming the build and returns false then.
inline bool nonTrivialBuild(const std::string &What,
                            const core::BuildStats &Stats) {
  if (Stats.NumMethods > 0 && Stats.Ltbo.SequencesOutlined > 0)
    return true;
  std::printf("  non-trivial corpus: %s has %zu methods, %zu sequences "
              "outlined : FAIL\n",
              What.c_str(), Stats.NumMethods, Stats.Ltbo.SequencesOutlined);
  return false;
}

/// Prints the corpus gate's summary line.
inline void reportCorpusGate(bool Ok) {
  std::printf("  non-trivial corpus (methods > 0, outlined > 0)  : %s\n",
              Ok ? "PASS" : "FAIL");
}

/// Prints one row of numeric cells after a label.
inline void printRow(const char *Label,
                     const std::vector<std::string> &Cells) {
  std::printf("%-26s", Label);
  for (const auto &C : Cells)
    std::printf(" %12s", C.c_str());
  std::printf("\n");
}

inline std::string fmtBytes(uint64_t B) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1fK", static_cast<double>(B) / 1024.0);
  return Buf;
}

inline std::string fmtPct(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f%%", P);
  return Buf;
}

inline std::string fmtU64(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%llu", (unsigned long long)V);
  return Buf;
}

inline std::string fmtSec(double S) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3fs", S);
  return Buf;
}

} // namespace bench
} // namespace calibro

#endif // CALIBRO_BENCH_BENCHUTIL_H
