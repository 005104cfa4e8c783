//===- tools/calibro-dex2oat.cpp - Build OAT files from the CLI -------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dex2oat-shaped command-line front end: generates a synthetic app (a
/// paper preset or a custom spec), compiles it under the selected Calibro
/// configuration, and writes the resulting OAT (special ELF) to disk.
///
///   calibro-dex2oat --app Wechat --scale 0.5 --cto --ltbo
///                   --partitions 8 --threads 2 --hf -o wechat.oat
///
//===----------------------------------------------------------------------===//

#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "sim/Simulator.h"
#include "support/NumericArgs.h"
#include "workload/Workload.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace calibro;

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: calibro-dex2oat [options] -o <out.oat>\n"
      "  --app <name>       paper app preset (Toutiao..Wechat; default "
      "Wechat)\n"
      "  --scale <s>        workload scale, a number > 0 (default 0.5)\n"
      "  --seed <n>         override the app seed\n"
      "  --cto              enable compilation-time outlining (paper 3.1)\n"
      "  --ltbo             enable link-time binary outlining (paper 3.3)\n"
      "  --partitions <k>   K detection partitions, 1..4096 (paper 3.4.1\n"
      "                     PlOpti)\n"
      "  --threads <n>      LTBO worker threads\n"
      "  --memory-budget <bytes>  bound LTBO's detection working set:\n"
      "                     detection runs in budget-sized windows; output\n"
      "                     is byte-identical to an unbudgeted build. Without\n"
      "                     an explicit --partitions, K is derived from the\n"
      "                     budget\n"
      "  --hf               hot-function filtering: profile a scripted run\n"
      "                     of the unfiltered build first (paper 3.4.2)\n"
      "  --profile          collect the same scripted runtime profile and\n"
      "                     feed it to the profile-consuming stages (hot\n"
      "                     filtering + layout) — alias of --hf\n"
      "  --layout           profile-driven function layout (default on):\n"
      "                     reorder .text by co-execution affinity so\n"
      "                     profiled startups touch fewer code pages; arms\n"
      "                     only with a profile and a closed world\n"
      "  --no-layout        disable the layout stage\n"
      "  --min-len/--max-len <n>  candidate length bounds (>= 2)\n"
      "  --verify           statically verify the linked image before\n"
      "                     writing it (whole-text decode + branch targets)\n"
      "  --strict           fail the build on the first method with invalid\n"
      "                     LTBO side info instead of degrading per method\n"
      "  --cache-dir <dir>  persistent build cache: unchanged methods skip\n"
      "                     codegen, unchanged LTBO groups skip detection\n"
      "  --cache-stats      print cache hit/miss/group-reuse counters\n"
      "  --dead-code        arm the workload's closed-world knobs: declared\n"
      "                     entrypoints, garbage methods, clone families\n"
      "  --no-gc            disable the closed-world reachability GC\n"
      "  --no-merge         disable global method merging\n"
      "  --strict-gc        fail the build on any call-graph anomaly\n"
      "  -o <file>          output path (required)\n");
  std::exit(2);
}

const char *next(int &I, int Argc, char **Argv) {
  if (++I >= Argc)
    usage();
  return Argv[I];
}

/// The next argument as an integer in [Min, Max]; anything else is a usage
/// error.
uint64_t nextUnsigned(int &I, int Argc, char **Argv, uint64_t Min,
                      uint64_t Max = UINT32_MAX) {
  auto V = support::parseUnsigned(next(I, Argc, Argv), Min, Max);
  if (!V)
    usage();
  return *V;
}

/// The next argument as a finite number > 0; anything else is a usage error.
double nextPositive(int &I, int Argc, char **Argv) {
  auto V = support::parsePositive(next(I, Argc, Argv));
  if (!V)
    usage();
  return *V;
}

} // namespace

int main(int argc, char **argv) {
  std::string AppName = "Wechat";
  std::string Out;
  double Scale = 0.5;
  uint64_t Seed = 0;
  bool Hf = false;
  bool CacheStats = false;
  bool DeadCode = false;
  bool ExplicitPartitions = false;
  core::CalibroOptions Opts;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--app")
      AppName = next(I, argc, argv);
    else if (A == "--scale")
      Scale = nextPositive(I, argc, argv);
    else if (A == "--seed")
      Seed = nextUnsigned(I, argc, argv, 0, UINT64_MAX);
    else if (A == "--cto")
      Opts.EnableCto = true;
    else if (A == "--ltbo")
      Opts.EnableLtbo = true;
    else if (A == "--partitions") {
      Opts.LtboPartitions =
          nextUnsigned(I, argc, argv, 1, core::MaxPartitions);
      ExplicitPartitions = true;
    } else if (A == "--memory-budget")
      Opts.MemoryBudgetBytes = nextUnsigned(I, argc, argv, 0, UINT64_MAX);
    else if (A == "--threads")
      Opts.LtboThreads = nextUnsigned(I, argc, argv, 1);
    else if (A == "--min-len")
      Opts.MinSeqLen = nextUnsigned(I, argc, argv, 2);
    else if (A == "--max-len")
      Opts.MaxSeqLen = nextUnsigned(I, argc, argv, 2);
    else if (A == "--hf" || A == "--profile")
      Hf = true;
    else if (A == "--layout")
      Opts.EnableLayout = true;
    else if (A == "--no-layout")
      Opts.EnableLayout = false;
    else if (A == "--verify")
      Opts.VerifyOutput = true;
    else if (A == "--strict")
      Opts.StrictSideInfo = true;
    else if (A == "--cache-dir")
      Opts.CacheDir = next(I, argc, argv);
    else if (A == "--cache-stats")
      CacheStats = true;
    else if (A == "--dead-code")
      DeadCode = true;
    else if (A == "--no-gc")
      Opts.EnableGc = false;
    else if (A == "--no-merge")
      Opts.EnableMerge = false;
    else if (A == "--strict-gc")
      Opts.StrictCallGraph = true;
    else if (A == "-o")
      Out = next(I, argc, argv);
    else
      usage();
  }
  if (Out.empty())
    usage();
  // A budget with no explicit K lets the outliner derive the partition
  // count from the budget (Partitions = 0 means "auto").
  if (Opts.MemoryBudgetBytes && !ExplicitPartitions)
    Opts.LtboPartitions = 0;

  workload::AppSpec Spec;
  bool Found = false;
  for (const auto &S : workload::paperApps(Scale))
    if (S.Name == AppName) {
      Spec = S;
      Found = true;
    }
  if (!Found) {
    std::fprintf(stderr, "unknown app '%s'\n", AppName.c_str());
    return 1;
  }
  if (Seed)
    Spec.Seed = Seed;
  if (DeadCode)
    workload::enableDeadCode(Spec);

  dex::App App = workload::makeApp(Spec);
  std::fprintf(stderr, "compiling %s: %zu methods, %zu dex files\n",
               AppName.c_str(), App.numMethods(), App.Files.size());

  profile::Profile Prof;
  if (Hf) {
    // Fig. 6: build unfiltered, run the script under the profiler, then
    // let the profile guide the real build.
    auto Pre = core::buildApp(App, Opts);
    if (!Pre) {
      std::fprintf(stderr, "build failed: %s\n", Pre.message().c_str());
      return 1;
    }
    sim::SimOptions SOpts;
    SOpts.CollectProfile = true;
    sim::Simulator Sim(Pre->Oat, SOpts);
    for (const auto &Inv : workload::makeScript(Spec, 30, 99)) {
      auto R = Sim.call(Inv.MethodIdx, Inv.Args);
      if (!R) {
        std::fprintf(stderr, "profiling run fault: %s\n",
                     R.message().c_str());
        return 1;
      }
    }
    Prof = Sim.profileData();
    Opts.Profile = &Prof;
  }

  auto B = core::buildApp(App, Opts);
  if (!B) {
    std::fprintf(stderr, "build failed [%s]: %s\n",
                 errCatName(B.category()), B.message().c_str());
    return 1;
  }
  if (auto E = oat::writeOatFile(B->Oat, Out)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 1;
  }

  const auto &St = B->Stats;
  std::fprintf(stderr,
               "wrote %s: .text %llu bytes, %zu methods, %zu stubs, %zu "
               "outlined fns\n"
               "  compile %.3fs, ltbo %.3fs (outlined %zu seqs, %zu "
               "occurrences), link %.3fs\n",
               Out.c_str(), (unsigned long long)B->Oat.textBytes(),
               B->Oat.Methods.size(), B->Oat.CtoStubs.size(),
               B->Oat.Outlined.size(), St.CompileSeconds, St.LtboSeconds,
               St.Ltbo.SequencesOutlined, St.Ltbo.OccurrencesReplaced,
               St.LinkSeconds);
  // Only when windowed detection actually ran: a budget with LTBO disabled
  // (or an app with nothing to detect) would print a block of zeros.
  if (Opts.MemoryBudgetBytes && St.Ltbo.DetectWindows)
    std::fprintf(stderr,
                 "  windowed: %zu partitions, %zu windows, window peak %zu "
                 "bytes (budget %llu), %zu overruns\n",
                 St.Ltbo.PartitionsUsed, St.Ltbo.DetectWindows,
                 St.Ltbo.DetectWindowPeakBytes,
                 (unsigned long long)Opts.MemoryBudgetBytes,
                 St.Ltbo.DetectBudgetOverruns);
  if (CacheStats && !Opts.CacheDir.empty())
    std::fprintf(stderr,
                 "  cache: %zu method hits, %zu misses, %zu/%zu LTBO groups "
                 "replayed\n",
                 St.CacheHits, St.CacheMisses, St.Ltbo.GroupsReused,
                 St.Ltbo.GroupsReused + St.Ltbo.GroupsDetected);
  if (!St.Ltbo.MethodsGCed.empty() || St.Ltbo.MethodsMergedIdentical ||
      St.Ltbo.MethodsMergedThunk)
    std::fprintf(stderr,
                 "  analysis: gc dropped %zu methods (%llu bytes), merged "
                 "%zu identical + %zu thunks (%llu bytes), %zu anomalies, "
                 "%zu repaired edges\n",
                 St.Ltbo.MethodsGCed.size(),
                 (unsigned long long)St.Ltbo.GcBytes,
                 St.Ltbo.MethodsMergedIdentical, St.Ltbo.MethodsMergedThunk,
                 (unsigned long long)St.Ltbo.MergeSavedBytes,
                 St.Ltbo.CallGraphAnomalies, St.Ltbo.RepairedEdges);
  if (St.LayoutApplied)
    std::fprintf(stderr,
                 "  layout: %zu nodes (%zu warm), %zu edges, page-crossing "
                 "affinity %llu -> %llu, %.3fs\n",
                 St.LayoutNodes, St.LayoutWarmNodes, St.LayoutEdges,
                 (unsigned long long)St.LayoutCutBefore,
                 (unsigned long long)St.LayoutCutAfter, St.LayoutSeconds);
  if (St.Ltbo.MethodsRejected) {
    std::fprintf(stderr,
                 "  degraded: %zu methods excluded from outlining "
                 "(invalid side info; linked verbatim):\n",
                 St.Ltbo.MethodsRejected);
    for (std::size_t F = 0; F < codegen::NumSideInfoFaults; ++F)
      if (St.Ltbo.RejectedByFault[F])
        std::fprintf(stderr, "    %s: %zu\n",
                     codegen::sideInfoFaultName(
                         static_cast<codegen::SideInfoFault>(F)),
                     St.Ltbo.RejectedByFault[F]);
  }
  return 0;
}
