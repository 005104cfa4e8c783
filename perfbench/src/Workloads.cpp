//===- perfbench/Workloads.cpp - The benchmark's workloads ----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "Pipeline.h"
#include "Trace.h"

#include "cache/ShardedCache.h"
#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "service/CompileService.h"
#include "sim/Simulator.h"
#include "verify/Differential.h"
#include "verify/OatVerifier.h"
#include "workload/Workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <map>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>

using namespace calibro;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

constexpr double Mb = 1024.0 * 1024.0;
/// Setup is sampled across the run. A pass workload generates each app this
/// many times in every pass, just before building it. The first generation
/// after a build runs slower; with three, the median falls among the others.
constexpr std::size_t SetupRepeats = 3;
/// The daemon's timed phase runs in this many equal segments; before the
/// first and after each one, with the service idle, it sets up this many
/// times (into throwaway copies after the first block).
constexpr int DaemonSegments = 5;
constexpr int DaemonSetupRepeats = 4;
/// Invocations of the runtime (startup) script per image.
constexpr std::size_t ScriptLength = 20;
/// Invocations of the Fig. 6 profiling script.
constexpr std::size_t ProfileScriptLength = 30;
/// Simulated residency pages: 256 bytes (SimOptions::PageShift = 8), the
/// granularity bench/table7_layout measures startup pages at.
constexpr unsigned PageShift = 8;
constexpr uint32_t LayoutPageSize = 256;
/// Minimum whole passes over the corpus per run (plopti_cold and
/// closed_profiled); the build_s_tail percentile is fixed from it.
constexpr std::size_t MinPasses = 2;
/// The daemon's minimum job count per run, and how many leading jobs (six
/// rounds) are checked against serial builds.
constexpr std::size_t DaemonMinJobs = 100;
constexpr std::size_t DaemonCheckedJobs = 36; // Two rounds of its 18 apps.
/// Seeded versions of each preset in the daemon's app set: more distinct
/// images keep the seed-to-seed spread of the image metrics down.
constexpr std::size_t DaemonVersions = 3;
constexpr uint64_t DaemonGlobalBudget = 8ull << 20;
/// The cache pair (plopti_cold's traced run) builds the corpus apps at
/// scales 2 and 8, the first twelve.
constexpr std::size_t CacheApps = 12;
constexpr uint32_t CacheShards = 8;
/// The store's byte budget: above one app's blobs, below the whole corpus
/// subset's, so least recently used blobs of earlier apps get evicted.
constexpr uint64_t CacheBudget = 8ull << 20;
/// Share of an app's methods the edited warm build changes.
constexpr double CacheEditFraction = 0.01;

//===--------------------------------------------------------------------===//
// Small helpers
//===--------------------------------------------------------------------===//

uint64_t splitmix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// A derived seed: one stream per (purpose, index) under the run seed.
uint64_t deriveSeed(uint64_t Seed, uint64_t Purpose, uint64_t Index) {
  return splitmix(splitmix(Seed ^ splitmix(Purpose)) + Index);
}

/// 64-bit FNV-1a over \p Bytes.
uint64_t digestOf(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes) {
    H ^= B;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// Digest of the running benchmark binary: the code under test. 0 if it
/// cannot be read.
uint64_t selfDigest() {
  std::ifstream In("/proc/self/exe", std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  return In.bad() || Bytes.empty() ? 0 : digestOf(Bytes);
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile, \p Frac in (0, 1].
double percentile(std::vector<double> V, double Frac) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Rank = std::ceil(Frac * static_cast<double>(V.size()));
  std::size_t I = static_cast<std::size_t>(std::max(1.0, Rank)) - 1;
  return V[std::min(I, V.size() - 1)];
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Runs \p Fn(I) for every I in [0, N) on \p Threads threads, each taking
/// the next index when it finishes one.
void forEachParallel(std::size_t N, unsigned Threads,
                     const std::function<void(std::size_t)> &Fn) {
  std::atomic<std::size_t> Next{0};
  auto Work = [&] {
    for (std::size_t I; (I = Next++) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (std::size_t T = 1; T < std::min<std::size_t>(Threads, N); ++T)
    Pool.emplace_back(Work);
  Work();
  for (auto &T : Pool)
    T.join();
}

/// The tail fraction for a run whose smallest build count is \p MinBuilds:
/// the highest percentile with at least ten builds beyond it.
double tailFraction(std::size_t MinBuilds) {
  return static_cast<double>(MinBuilds - 10) / static_cast<double>(MinBuilds);
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

double seconds(uint64_t Ns) { return static_cast<double>(Ns) * 1e-9; }

/// Counts checked operations and reports each failure on stderr.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  bool expect(bool Ok, const std::string &What) {
    ++Attempted;
    if (!Ok) {
      ++Failed;
      std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
    }
    return Ok;
  }
};

/// A non-trivial-corpus gate: a run whose corpus exercised nothing must not
/// pass.
void gate(RunReport &Rep, bool Ok, const char *What) {
  if (!Ok) {
    Rep.GatesOk = false;
    std::fprintf(stderr, "perfbench: GATE FAILED: %s\n", What);
  }
}

/// Metrics in emission order.
struct MetricList {
  std::vector<Metric> Items;
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Items.push_back({Name, std::isfinite(Value) ? Value : 0.0, Unit});
  }
};

/// Machine-wide steal time in seconds (summed over CPUs): time this
/// virtual machine's CPUs were runnable but not scheduled. Diagnostic only.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  unsigned long long V[8] = {};
  In >> Cpu;
  for (auto &X : V)
    In >> X;
  return static_cast<double>(V[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Releases free heap to the OS so each build's RSS growth starts from the
/// same floor (called between builds, outside the timed region).
void trimHeap() { malloc_trim(0); }

/// setup_s: the median of the run's setup samples, which go to stderr in
/// the order they were taken.
double setupSeconds(const std::vector<double> &Samples) {
  std::fprintf(stderr, "perfbench: setups (s):");
  for (double S : Samples)
    std::fprintf(stderr, " %.4f", S);
  std::fprintf(stderr, "\n");
  return median(Samples);
}

/// A failed VmHWM reset would leave every RSS metric at an older peak.
void checkRssResets(Checks &C) {
  C.expect(rssResetFailures() == 0,
           std::to_string(rssResetFailures()) +
               " VmHWM resets through /proc/self/clear_refs failed");
}

//===--------------------------------------------------------------------===//
// Runtime figures and behaviour checks (untimed)
//===--------------------------------------------------------------------===//

struct RuntimeFigures {
  uint64_t Cycles = 0, Insns = 0, Pages = 0;
};

Expected<RuntimeFigures>
runtimeFigures(const oat::OatFile &Oat,
               const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SO;
  SO.PageShift = PageShift;
  sim::Simulator Sim(Oat, SO);
  RuntimeFigures F;
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R)
      return R.takeError();
    F.Cycles += R->Cycles;
    F.Insns += R->Insns;
  }
  F.Pages = Sim.touchedTextPages();
  return F;
}

/// The Fig. 6 profiling run: the script under the cycle profiler.
Expected<profile::Profile>
profileRun(const oat::OatFile &Oat,
           const std::vector<workload::Invocation> &Script) {
  sim::SimOptions SO;
  SO.CollectProfile = true;
  sim::Simulator Sim(Oat, SO);
  for (const auto &Inv : Script) {
    auto R = Sim.call(Inv.MethodIdx, Inv.Args);
    if (!R)
      return makeError("profiling run fault: " + R.message());
  }
  return Sim.profileData();
}

/// The reference configuration: no CTO, no LTBO, no GC, merge or layout.
core::CalibroOptions unoptimisedOpts(const Options &O) {
  core::CalibroOptions R;
  R.CompileThreads = O.Threads;
  R.EnableGc = false;
  R.EnableMerge = false;
  R.EnableLayout = false;
  return R;
}

/// One distinct image to check: its app, script and the image itself.
struct CheckedImage {
  std::string Name;
  const dex::App *App = nullptr;
  const std::vector<workload::Invocation> *Script = nullptr;
  const oat::OatFile *Oat = nullptr;
};

/// Totals over the distinct images, plus the check cost.
struct ImageTotals {
  uint64_t TextBytes = 0, Cycles = 0, Insns = 0, Pages = 0;
  double VerifySeconds = 0;
};

/// Verifies each image, compares its observed behaviour with an
/// unoptimised build of the same app, and sums its runtime figures. The
/// repo has no dex interpreter independent of the compiler, so the
/// reference behaviour comes from the same simulator running the
/// unoptimised image.
ImageTotals checkImages(const std::vector<CheckedImage> &Images,
                        const Options &O, Checks &C) {
  ImageTotals Tot;
  for (std::size_t I = 0; I < Images.size(); ++I) {
    const CheckedImage &Img = Images[I];
    Tot.TextBytes += Img.Oat->textBytes();
    double T0 = nowSeconds();
    auto VE = verify::verifyOatFile(*Img.Oat);
    Tot.VerifySeconds += nowSeconds() - T0;
    C.expect(!VE, Img.Name + ": OAT verifier: " + (VE ? VE.message() : ""));

    auto Obs = verify::verifyAndObserve(*Img.Oat, Img.Name, *Img.Script);
    if (!C.expect(static_cast<bool>(Obs),
                  Img.Name + ": observe: " + (Obs ? "" : Obs.message())))
      continue;
    auto Ref = core::buildApp(*Img.App, unoptimisedOpts(O));
    if (!C.expect(static_cast<bool>(Ref), Img.Name + ": reference build: " +
                                              (Ref ? "" : Ref.message())))
      continue;
    auto RefObs =
        verify::verifyAndObserve(Ref->Oat, Img.Name + " (ref)", *Img.Script);
    if (!C.expect(static_cast<bool>(RefObs),
                  Img.Name + ": reference observe: " +
                      (RefObs ? "" : RefObs.message())))
      continue;
    if (O.WrongObservation && I == 0 && !RefObs->empty())
      (*RefObs)[0].ReturnValue ^= 1;
    C.expect(*Obs == *RefObs,
             Img.Name + ": behaviour differs from the unoptimised build");

    auto F = runtimeFigures(*Img.Oat, *Img.Script);
    if (C.expect(static_cast<bool>(F),
                 Img.Name + ": runtime script: " + (F ? "" : F.message()))) {
      Tot.Cycles += F->Cycles;
      Tot.Insns += F->Insns;
      Tot.Pages += F->Pages;
    }
  }
  return Tot;
}

/// Cross-run determinism: the digests of a run are recorded per
/// (workload, seed, scale factor, benchmark binary); a later run with the same
/// key must reproduce them. The binary is part of the key so that a changed
/// program, whose images may legitimately differ, starts a fresh record
/// instead of failing against an older build's.
void checkDigestRecord(const Options &O, const std::vector<uint64_t> &Digests,
                       Checks &C) {
  if (O.StateDir.empty())
    return;
  const uint64_t Binary = selfDigest();
  if (!C.expect(Binary != 0, "cannot read the benchmark binary to key the "
                             "digest record"))
    return;
  std::error_code EC;
  fs::create_directories(O.StateDir, EC);
  char Name[192];
  std::snprintf(Name, sizeof(Name), "digests-%s-%llu-%.6g-%016llx.txt",
                O.Workload.c_str(), (unsigned long long)O.Seed,
                O.ScaleFactor, (unsigned long long)Binary);
  fs::path Path = fs::path(O.StateDir) / Name;
  std::vector<uint64_t> Recorded;
  if (std::ifstream In{Path}) {
    unsigned long long D;
    while (In >> std::hex >> D)
      Recorded.push_back(D);
    C.expect(Recorded == Digests,
             "image digests differ from an earlier run with the same seed (" +
                 Path.string() + ")");
    return;
  }
  std::ofstream Out(Path);
  for (uint64_t D : Digests)
    Out << std::hex << D << "\n";
}

void addImageMetrics(MetricList &M, const ImageTotals &T) {
  M.add("text_bytes", static_cast<double>(T.TextBytes), "bytes");
  M.add("runtime_cycles", static_cast<double>(T.Cycles), "cycles");
  M.add("startup_pages", static_cast<double>(T.Pages), "pages");
}

/// Per-layer metrics this workload cannot produce, with the reason; they
/// are emitted as 0 so every run reports the same metric set.
void absent(MetricList &M, const std::string &Why,
            std::initializer_list<std::pair<const char *, const char *>>
                NamesAndUnits) {
  for (const auto &[Name, Unit] : NamesAndUnits) {
    M.add(Name, 0, Unit);
    std::fprintf(stderr, "perfbench: absent: %s (%s)\n", Name, Why.c_str());
  }
}

void printSelfTimes(const Tracer &T) {
  auto Self = T.selfTimes();
  std::vector<std::pair<double, std::string>> Rows;
  double Total = 0;
  for (const auto &[Name, S] : Self) {
    Rows.push_back({S, Name});
    Total += S;
  }
  std::sort(Rows.rbegin(), Rows.rend());
  std::fprintf(stderr, "perfbench: per-layer self time (busy seconds, all "
                       "traced builds)\n");
  for (const auto &[S, Name] : Rows)
    std::fprintf(stderr, "  %-34s %10.4f s %6.2f%%\n", Name.c_str(), S,
                 100.0 * ratio(S, Total));
}

//===--------------------------------------------------------------------===//
// plopti_cold and closed_profiled: passes over a fixed corpus
//===--------------------------------------------------------------------===//

struct AppInput {
  workload::AppSpec Spec;
  dex::App App;
  std::vector<workload::Invocation> Script;
  std::vector<workload::Invocation> ProfileScript;
};

/// The six paper presets at scales {2, 8, 32}, re-seeded from the run seed.
std::vector<workload::AppSpec> corpusSpecs(const Options &O, bool Closed) {
  std::vector<workload::AppSpec> Out;
  for (double Scale : {2.0, 8.0, 32.0})
    for (auto S : workload::paperApps(Scale * O.ScaleFactor)) {
      S.Seed = deriveSeed(O.Seed, 1, Out.size());
      if (Closed)
        workload::enableDeadCode(S);
      Out.push_back(std::move(S));
    }
  return Out;
}

/// Generates corpus app \p I and its scripts; adds the seconds makeApp took
/// to \p MakeApp.
AppInput makeInput(const workload::AppSpec &Spec, const Options &O,
                   std::size_t I, double &MakeApp) {
  AppInput In;
  In.Spec = Spec;
  const double T0 = nowSeconds();
  In.App = workload::makeApp(In.Spec);
  MakeApp += nowSeconds() - T0;
  In.Script =
      workload::makeScript(In.Spec, ScriptLength, deriveSeed(O.Seed, 2, I));
  In.ProfileScript = workload::makeScript(In.Spec, ProfileScriptLength,
                                          deriveSeed(O.Seed, 3, I));
  return In;
}

core::CalibroOptions ploptiOpts(const Options &O) {
  core::CalibroOptions B;
  B.EnableCto = B.EnableLtbo = true;
  B.LtboPartitions = 8;
  B.CompileThreads = O.Threads;
  B.LtboThreads = O.Threads;
  B.LayoutPageSize = LayoutPageSize;
  return B;
}

/// One finished build of the pass workloads.
struct PassBuild {
  core::BuildResult Final;
  std::optional<core::BuildStats> PreStats; ///< The profiled flow's pre-build.
  std::vector<uint8_t> Image;
};

/// One build: buildApp, or the Fig. 6 flow (pre-build, profiling run,
/// profiled build). With a tracer, the same public calls run through the
/// traced pipeline under a "build" root span.
Expected<PassBuild> buildOne(const AppInput &In,
                             const core::CalibroOptions &Opts, bool Profiled,
                             Tracer *T, LayerSink *L, double *Coverage) {
  PassBuild Out;
  profile::Profile Prof;
  core::CalibroOptions FinalOpts = Opts;
  if (!T) {
    if (Profiled) {
      auto Pre = core::buildApp(In.App, Opts);
      if (!Pre)
        return Pre.takeError();
      auto P = profileRun(Pre->Oat, In.ProfileScript);
      if (!P)
        return P.takeError();
      Out.PreStats = Pre->Stats;
      Prof = std::move(*P);
      FinalOpts.Profile = &Prof;
    }
    auto B = core::buildApp(In.App, FinalOpts);
    if (!B)
      return B.takeError();
    Out.Final = std::move(*B);
    Out.Image = oat::serializeOat(Out.Final.Oat);
    return Out;
  }

  const uint32_t Build = T->newBuild();
  ScopedSpan Root(*T, "build", 0, Build);
  if (Profiled) {
    {
      ScopedSpan S(*T, "profile.prebuild", Root.id(), Build);
      TraceContext Ctx{*T, S.id(), Build, *L};
      auto Pre = tracedBuildApp(In.App, Opts, Ctx);
      if (!Pre)
        return Pre.takeError();
      S.finish();
      ScopedSpan R(*T, "sim.profile_run", Root.id(), Build);
      auto P = profileRun(Pre->Oat, In.ProfileScript);
      if (!P)
        return P.takeError();
      Out.PreStats = Pre->Stats;
      Prof = std::move(*P);
    }
    FinalOpts.Profile = &Prof;
  }
  TraceContext Ctx{*T, Root.id(), Build, *L};
  auto B = tracedBuildApp(In.App, FinalOpts, Ctx);
  if (!B)
    return B.takeError();
  Out.Final = std::move(*B);
  {
    ScopedSpan S(*T, "oat.serialize", Root.id(), Build);
    Out.Image = oat::serializeOat(Out.Final.Oat);
  }
  const uint32_t RootId = Root.id();
  Root.finish();
  // Coverage: direct children of the root over the root's wall time.
  double RootWall = 0, Children = 0;
  for (const Span &Sp : T->spans()) {
    if (Sp.Build != Build)
      continue;
    if (Sp.Id == RootId)
      RootWall = Sp.seconds();
    else if (Sp.Parent == RootId)
      Children += Sp.seconds();
  }
  *Coverage = std::min(*Coverage, ratio(Children, RootWall));
  return Out;
}

void addLtboTimes(LayerSink &L, const core::OutlineStats &S) {
  L.add("core.ltbo.preprocess_s", S.PreprocessSeconds);
  L.add("core.ltbo.detect_s", S.BuildTreeSeconds);
  L.add("core.ltbo.select_s", S.SelectSeconds);
  L.add("core.ltbo.rewrite_s", S.RewriteSeconds);
  L.add("core.ltbo.window_merge_s", S.MergeSeconds);
}

/// The image-producing build's outlining, analysis and layout counters.
void addBuildCounters(LayerSink &L, const core::BuildStats &S) {
  const core::OutlineStats &O = S.Ltbo;
  L.add("core.ltbo.candidates_evaluated",
        static_cast<double>(O.CandidatesEvaluated));
  L.add("core.ltbo.sequences_outlined",
        static_cast<double>(O.SequencesOutlined));
  L.add("core.ltbo.insns_removed", static_cast<double>(O.InsnsRemoved));
  L.add("core.ltbo.methods_rejected", static_cast<double>(O.MethodsRejected));
  L.add("core.ltbo.hot_filtered_methods",
        static_cast<double>(O.HotFilteredMethods));
  L.add("suffixtree.symbols", static_cast<double>(O.SymbolCount));
  L.add("suffixtree.nodes", static_cast<double>(O.TreeNodes));
  L.peak("suffixtree.detect_peak_mb",
         static_cast<double>(O.DetectPeakBytes) / Mb);
  L.add("suffixtree.groups_sais", static_cast<double>(O.GroupsSaIs));
  L.add("suffixtree.groups_doubling",
        static_cast<double>(O.GroupsPrefixDoubling));
  L.add("analysis.methods_gced", static_cast<double>(O.MethodsGCed.size()));
  L.add("analysis.methods_merged",
        static_cast<double>(O.MethodsMergedIdentical + O.MethodsMergedThunk));
  L.add("layout.nodes", static_cast<double>(S.LayoutNodes));
  L.add("layout.edges", static_cast<double>(S.LayoutEdges));
  L.add("layout.cut_before", static_cast<double>(S.LayoutCutBefore));
  L.add("layout.cut_after", static_cast<double>(S.LayoutCutAfter));
}

//===--------------------------------------------------------------------===//
// The cache layer: a cold/warm/edited triple on plopti_cold's traced run
//===--------------------------------------------------------------------===//

/// A BuildCache that times the entry points of the store it wraps.
class TimedCache : public cache::BuildCache {
public:
  explicit TimedCache(const cache::BuildCache &Inner)
      : BuildCache(Inner.dir()), Inner(Inner) {}

  std::optional<cache::CachedMethod>
  loadMethod(const cache::Digest &Key) const override {
    Timed T(LoadNs);
    return Inner.loadMethod(Key);
  }
  void storeMethod(const cache::Digest &Key, const codegen::CompiledMethod &M,
                   uint32_t HirInsnsSimplified) const override {
    Timed T(StoreNs);
    Inner.storeMethod(Key, M, HirInsnsSimplified);
  }
  std::optional<cache::GroupSelections>
  loadGroup(const cache::Digest &Key) const override {
    Timed T(LoadNs);
    return Inner.loadGroup(Key);
  }
  void storeGroup(const cache::Digest &Key,
                  const cache::GroupSelections &G) const override {
    Timed T(StoreNs);
    Inner.storeGroup(Key, G);
  }
  cache::CacheAudit audit() const override { return Inner.audit(); }

  double loadSeconds() const { return seconds(LoadNs.load()); }
  double storeSeconds() const { return seconds(StoreNs.load()); }

private:
  /// Adds the lifetime of one entry call to a nanosecond counter.
  struct Timed {
    explicit Timed(std::atomic<uint64_t> &Ns) : Ns(Ns), T0(nowSeconds()) {}
    ~Timed() { Ns += static_cast<uint64_t>((nowSeconds() - T0) * 1e9); }
    std::atomic<uint64_t> &Ns;
    double T0;
  };

  const cache::BuildCache &Inner;
  mutable std::atomic<uint64_t> LoadNs{0}, StoreNs{0};
};

/// Bumps the first int constant of a seeded \p Fraction (at least one) of
/// the app's non-native, switch-free methods that have one.
void editApp(dex::App &App, double Fraction, uint64_t Seed) {
  std::vector<dex::Insn *> Sites;
  for (auto &F : App.Files)
    for (auto &M : F.Methods) {
      if (M.IsNative)
        continue;
      dex::Insn *First = nullptr;
      bool HasSwitch = false;
      for (auto &I : M.Code) {
        HasSwitch |= I.Opcode == dex::Op::Switch;
        if (!First && I.Opcode == dex::Op::ConstInt)
          First = &I;
      }
      if (First && !HasSwitch)
        Sites.push_back(First);
    }
  const std::size_t Want = std::min(
      Sites.size(),
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                   Fraction * App.numMethods()))));
  uint64_t R = Seed;
  for (std::size_t K = 0; K < Want; ++K) {
    R = splitmix(R);
    std::swap(Sites[K], Sites[K + R % (Sites.size() - K)]);
    Sites[K]->Imm += 1;
  }
}

const std::initializer_list<std::pair<const char *, const char *>>
    CacheMetricUnits = {{"cache.load_s", "s"},
                        {"cache.store_s", "s"},
                        {"cache.method_hit_rate", "ratio"},
                        {"cache.group_reuse_rate", "ratio"},
                        {"cache.files_written", "count"},
                        {"cache.bytes_written", "bytes"},
                        {"cache.evictions", "count"}};

void absentCache(MetricList &M) {
  absent(M, "no build cache on this workload; the cache builds run on "
            "plopti_cold's traced run",
         CacheMetricUnits);
}

/// The cache layer. No workload's timed phase builds through a cache (see
/// README.md), so plopti_cold's traced run adds, after its timed phase,
/// three cached builds per corpus app at scales 2 and 8 through one fresh
/// 8-shard, 8 MiB store (the daemon's ShardedBuildCache) in the state
/// directory: cold (every probe misses, every blob is stored), warm (every
/// probe hits, every group replays) and warm after a 1% edit (mostly
/// hits). The cold
/// and warm images must equal the uncached pass-0 image; the edited one
/// must equal an uncached build of the edited app. Times are busy seconds
/// in the store's entry points per cached build; counts are per cached
/// build; the rates are over the two warm builds.
void measureCache(const std::vector<AppInput> &Inputs,
                  const std::vector<uint64_t> &Digests,
                  const core::CalibroOptions &Opts, const Options &O,
                  Checks &C, RunReport &Rep, MetricList &M) {
  const fs::path Dir =
      fs::absolute(O.StateDir.empty() ? fs::temp_directory_path()
                                      : fs::path(O.StateDir)) /
      ("cache-" + std::to_string(getpid()));
  std::error_code EC;
  fs::remove_all(Dir, EC);
  auto Store = cache::ShardedBuildCache::open(Dir.string(), CacheShards,
                                               CacheBudget);
  if (!C.expect(static_cast<bool>(Store),
                "cache open: " + (Store ? "" : Store.message()))) {
    absentCache(M);
    return;
  }
  TimedCache Timed(**Store);
  core::CalibroOptions Cached = Opts;
  Cached.SharedCache = &Timed;
  std::size_t Builds = 0, Hits = 0, Probes = 0, Reused = 0, Groups = 0;
  // Builds App through the cache; its image must be Want. The warm builds
  // make up the hit and reuse rates.
  auto Build = [&](const dex::App &App, uint64_t Want, const std::string &What,
                   bool Warm) {
    auto B = core::buildApp(App, Cached);
    ++Builds;
    if (!C.expect(B && digestOf(oat::serializeOat(B->Oat)) == Want,
                  What + (B ? " equals the uncached image"
                              : ": " + B.message())) ||
        !Warm)
      return;
    Hits += B->Stats.CacheHits;
    Probes += B->Stats.CacheHits + B->Stats.CacheMisses;
    Reused += B->Stats.Ltbo.GroupsReused;
    Groups += B->Stats.Ltbo.GroupsReused + B->Stats.Ltbo.GroupsDetected;
  };
  for (std::size_t I = 0; I < std::min(CacheApps, Inputs.size()); ++I) {
    const std::string Name = Inputs[I].Spec.Name + "#" + std::to_string(I);
    Build(Inputs[I].App, Digests[I], Name + ": cold cached build", false);
    Build(Inputs[I].App, Digests[I], Name + ": warm cached build", true);
    dex::App Edited = Inputs[I].App;
    editApp(Edited, CacheEditFraction, deriveSeed(O.Seed, 4, I));
    auto Ref = core::buildApp(Edited, Opts);
    if (C.expect(static_cast<bool>(Ref),
                 Name + ": edited reference build: " +
                     (Ref ? "" : Ref.message())))
      Build(Edited, digestOf(oat::serializeOat(Ref->Oat)),
            Name + ": edited warm cached build", true);
  }
  const cache::ShardedCacheStats S = (*Store)->stats();
  gate(Rep, Hits > 0 && Hits < Probes,
       "the warm cached builds had both hits and misses");
  const double NB = std::max<double>(1, static_cast<double>(Builds));
  M.add("cache.load_s", Timed.loadSeconds() / NB, "s");
  M.add("cache.store_s", Timed.storeSeconds() / NB, "s");
  M.add("cache.method_hit_rate",
        ratio(static_cast<double>(Hits), static_cast<double>(Probes)),
        "ratio");
  M.add("cache.group_reuse_rate",
        ratio(static_cast<double>(Reused), static_cast<double>(Groups)),
        "ratio");
  M.add("cache.files_written",
        static_cast<double>(S.ResidentEntries + S.Evictions) / NB, "count");
  M.add("cache.bytes_written",
        static_cast<double>(S.ResidentBytes + S.EvictedBytes) / NB, "bytes");
  M.add("cache.evictions", static_cast<double>(S.Evictions), "count");
  Store->reset();
  fs::remove_all(Dir, EC);
}

RunReport runPassWorkload(const Options &O, bool Profiled) {
  Checks C;
  RunReport Rep;
  const auto Specs = corpusSpecs(O, Profiled);

  // Setup is interleaved with the builds: every pass generates each app
  // SetupRepeats times just before building it (outside the build's time)
  // and builds the last copy. One setup sample is one generation of the
  // whole corpus, so each sample is spread over a pass rather than taken
  // in one burst; setup_s is their median. Later passes also check that
  // the generator reproduces its inputs (their images must equal pass 0's).
  std::vector<AppInput> Inputs(Specs.size());
  std::vector<double> SetupTimes, MakeAppTimes;
  const core::CalibroOptions Opts = ploptiOpts(O);

  // Timed phase: whole passes over the corpus until the time is up. In a
  // trace run, odd passes go through the traced pipeline.
  std::optional<Tracer> T;
  if (O.Trace)
    T.emplace();
  LayerSink L;
  std::vector<double> Walls, TracedPassWalls, UntracedPassWalls;
  double CpuTotal = 0, Coverage = 1.0;
  std::vector<std::vector<double>> RssByApp(Inputs.size());
  std::size_t Methods = 0, TracedBuilds = 0;
  std::vector<uint64_t> Digests(Inputs.size(), 0);
  std::vector<oat::OatFile> Images(Inputs.size());
  std::size_t Outlined = 0, Gced = 0, LayoutArmed = 0;
  const double Steal0 = stealSeconds();
  const double Start = nowSeconds();
  for (std::size_t Pass = 0;
       Pass < MinPasses || nowSeconds() - Start < O.Seconds; ++Pass) {
    const bool Traced = O.Trace && Pass % 2 == 1;
    double PassWall = 0;
    std::vector<double> PassSetup(SetupRepeats, 0.0);
    std::vector<double> PassMakeApp(SetupRepeats, 0.0);
    for (std::size_t I = 0; I < Inputs.size(); ++I) {
      for (std::size_t R = 0; R < SetupRepeats; ++R) {
        const double T0 = nowSeconds();
        AppInput Fresh = makeInput(Specs[I], O, I, PassMakeApp[R]);
        PassSetup[R] += nowSeconds() - T0;
        Inputs[I] = std::move(Fresh);
      }
      trimHeap();
      RssProbe Rss;
      Rss.reset();
      const double Cpu0 = processCpuSeconds(), T0 = nowSeconds();
      auto B = buildOne(Inputs[I], Opts, Profiled, Traced ? &*T : nullptr, &L,
                        &Coverage);
      const double Wall = nowSeconds() - T0;
      CpuTotal += processCpuSeconds() - Cpu0;
      RssByApp[I].push_back(Rss.growthMb());
      Walls.push_back(Wall);
      PassWall += Wall;
      if (!C.expect(static_cast<bool>(B), Inputs[I].Spec.Name + ": build: " +
                                              (B ? "" : B.message())))
        continue;
      Methods += B->Final.Stats.NumMethods;
      const uint64_t D = digestOf(B->Image);
      if (Pass == 0) {
        Digests[I] = D;
        Images[I] = std::move(B->Final.Oat);
        Outlined += B->Final.Stats.Ltbo.SequencesOutlined;
        Gced += B->Final.Stats.Ltbo.MethodsGCed.size();
        LayoutArmed += B->Final.Stats.LayoutApplied;
      } else {
        C.expect(D == Digests[I],
                 Inputs[I].Spec.Name + ": image of pass " +
                     std::to_string(Pass) + (Traced ? " (traced)" : "") +
                     " differs from pass 0");
      }
      if (Traced) {
        ++TracedBuilds;
        if (B->PreStats)
          addLtboTimes(L, B->PreStats->Ltbo);
        addLtboTimes(L, B->Final.Stats.Ltbo);
        addBuildCounters(L, B->Final.Stats);
      }
    }
    (Traced ? TracedPassWalls : UntracedPassWalls).push_back(PassWall);
    SetupTimes.insert(SetupTimes.end(), PassSetup.begin(), PassSetup.end());
    MakeAppTimes.insert(MakeAppTimes.end(), PassMakeApp.begin(),
                        PassMakeApp.end());
    std::fprintf(stderr, "perfbench: pass %zu%s: %.3f s\n", Pass,
                 Traced ? " (traced)" : "", PassWall);
  }
  const double Steal = stealSeconds() - Steal0;

  // Untimed checks.
  std::vector<CheckedImage> Checked;
  for (std::size_t I = 0; I < Inputs.size(); ++I)
    if (!Images[I].Text.empty())
      Checked.push_back({Inputs[I].Spec.Name + "@" +
                             std::to_string(I / 6 ? (I / 12 ? 32 : 8) : 2),
                         &Inputs[I].App, &Inputs[I].Script, &Images[I]});
  ImageTotals Tot = checkImages(Checked, O, C);
  checkDigestRecord(O, Digests, C);
  checkRssResets(C);

  // Non-trivial corpus gates.
  gate(Rep, Checked.size() == Inputs.size() && !Inputs.empty(),
       "every corpus app produced an image");
  gate(Rep, Outlined > 0, "sequences_outlined > 0");
  if (Profiled) {
    gate(Rep, Gced > 0, "methods_gced > 0");
    gate(Rep, LayoutArmed == Inputs.size(), "layout applied on every build");
  }

  const double Builds = static_cast<double>(Walls.size());
  const double Frac = tailFraction(MinPasses * Inputs.size());
  MetricList M;
  // The cache builds run before the summary line so that their checks
  // count in its failed_frac.
  MetricList CacheMetrics;
  if (O.Trace && !Profiled)
    measureCache(Inputs, Digests, Opts, O, C, Rep, CacheMetrics);
  else if (O.Trace)
    absentCache(CacheMetrics);
  std::fprintf(stderr,
               "perfbench: %s: %zu builds in %zu passes, %zu setups, "
               "build_s_tail is p%.1f, steal %.2f cpu-s, failed_frac %.6g\n",
               O.Workload.c_str(), Walls.size(),
               Walls.size() / std::max<std::size_t>(1, Inputs.size()),
               SetupTimes.size(), 100.0 * Frac, Steal,
               ratio(static_cast<double>(C.Failed),
                     static_cast<double>(C.Attempted)));

  if (!O.Trace) {
    double BuildWall = 0;
    for (double W : Walls)
      BuildWall += W;
    M.add("setup_s", setupSeconds(SetupTimes), "s");
    M.add("build_s_p50", median(Walls), "s");
    M.add("build_s_tail", percentile(Walls, Frac), "s");
    M.add("methods_per_s", ratio(static_cast<double>(Methods), BuildWall),
          "1/s");
    M.add("cpu_s_per_build", ratio(CpuTotal, Builds), "s");
    // The largest per-app median: a single build's growth swings with
    // allocator state, the median over passes does not.
    double PeakRss = 0;
    for (const auto &V : RssByApp)
      PeakRss = std::max(PeakRss, median(V));
    M.add("peak_rss_mb", PeakRss, "MB");
    addImageMetrics(M, Tot);
  } else {
    const double NB = std::max<double>(1, static_cast<double>(TracedBuilds));
    auto Spans = T->spanTotals();
    auto Busy = T->busyTotals();
    auto PerBuild = [&](const std::string &Name, double V,
                        const char *Unit = "s") { M.add(Name, V / NB, Unit); };
    auto Sum = [&](const char *Name) { return L.Sum[Name]; };
    M.add("workload.make_app_s", median(MakeAppTimes), "s");
    PerBuild("dex.verify_s", Spans["dex.verify"]);
    PerBuild("dex.methods", Sum("dex.methods"), "count");
    PerBuild("hir.build_s", Busy["hir.build_s"]);
    for (const auto &P : {"constant_folding", "local_cse", "copy_propagation",
                          "dead_code_elim", "block_merge", "return_merge"}) {
      std::string Name = std::string("hir.pass.") + P + "_s";
      PerBuild(Name, Busy[Name]);
    }
    PerBuild("hir.insns", Sum("hir.insns"), "count");
    PerBuild("hir.insns_simplified", Sum("hir.insns_simplified"), "count");
    PerBuild("codegen.compile_s", Busy["codegen.compile_s"]);
    PerBuild("codegen.words", Sum("codegen.words"), "count");
    PerBuild("codegen.cto_call_sites", Sum("codegen.cto_call_sites"),
             "count");
    PerBuild("core.compile_s", Spans["core.compile"]);
    M.add("core.compile_parallel_eff",
          ratio(Sum("core.compile_busy_s"), Sum("core.compile_capacity_s")),
          "ratio");
    PerBuild("analysis.callgraph_s", Spans["analysis.callgraph"]);
    PerBuild("analysis.bind_s", Spans["analysis.bind"]);
    PerBuild("analysis.reach_s", Spans["analysis.reach"]);
    PerBuild("analysis.merge_s", Spans["analysis.merge"]);
    PerBuild("analysis.methods_gced", Sum("analysis.methods_gced"), "count");
    PerBuild("analysis.methods_merged", Sum("analysis.methods_merged"),
             "count");
    PerBuild("core.ltbo_s", Spans["core.ltbo"]);
    for (const char *Phase :
         {"core.ltbo.preprocess_s", "core.ltbo.detect_s", "core.ltbo.select_s",
          "core.ltbo.rewrite_s", "core.ltbo.window_merge_s"})
      PerBuild(Phase, Sum(Phase));
    PerBuild("core.ltbo.candidates_evaluated",
             Sum("core.ltbo.candidates_evaluated"), "count");
    PerBuild("core.ltbo.sequences_outlined",
             Sum("core.ltbo.sequences_outlined"), "count");
    PerBuild("core.ltbo.insns_removed", Sum("core.ltbo.insns_removed"),
             "count");
    M.add("core.ltbo.outline_yield",
          ratio(Sum("core.ltbo.sequences_outlined"),
                Sum("core.ltbo.candidates_evaluated")),
          "ratio");
    PerBuild("core.ltbo.methods_rejected", Sum("core.ltbo.methods_rejected"),
             "count");
    PerBuild("core.ltbo.hot_filtered_methods",
             Sum("core.ltbo.hot_filtered_methods"), "count");
    PerBuild("suffixtree.symbols", Sum("suffixtree.symbols"), "count");
    PerBuild("suffixtree.nodes", Sum("suffixtree.nodes"), "count");
    M.add("suffixtree.detect_peak_mb", L.Peak["suffixtree.detect_peak_mb"],
          "MB");
    PerBuild("suffixtree.groups_sais", Sum("suffixtree.groups_sais"), "count");
    PerBuild("suffixtree.groups_doubling", Sum("suffixtree.groups_doubling"),
             "count");
    M.Items.insert(M.Items.end(), CacheMetrics.Items.begin(),
                   CacheMetrics.Items.end());
    absent(M, "no compile service on this workload",
           {{"service.queue_wait_s_p50", "s"},
            {"service.queue_wait_s_tail", "s"},
            {"service.run_s_p50", "s"},
            {"service.rejected", "count"},
            {"service.arbiter_peak_mb", "MB"}});
    PerBuild("profile.prebuild_s", Spans["profile.prebuild"]);
    PerBuild("profile.select_hot_s", Spans["profile.select_hot"]);
    PerBuild("profile.hot_methods", Sum("profile.hot_methods"), "count");
    PerBuild("sim.profile_run_s", Spans["sim.profile_run"]);
    M.add("sim.insns", static_cast<double>(Tot.Insns), "count");
    PerBuild("layout.graph_s", Spans["layout.graph"]);
    PerBuild("layout.solve_s", Spans["layout.solve"]);
    PerBuild("layout.nodes", Sum("layout.nodes"), "count");
    PerBuild("layout.edges", Sum("layout.edges"), "count");
    M.add("layout.cut_ratio",
          ratio(Sum("layout.cut_after"), Sum("layout.cut_before")), "ratio");
    PerBuild("oat.link_s", Spans["oat.link"]);
    PerBuild("oat.serialize_s", Spans["oat.serialize"]);
    M.add("verify.oat_s",
          ratio(Tot.VerifySeconds, static_cast<double>(Checked.size())), "s");
    for (const char *Rss : {"core.compile_rss_mb", "analysis.rss_mb",
                            "core.ltbo_rss_mb", "layout.rss_mb",
                            "oat.link_rss_mb"})
      M.add(Rss, L.Peak[Rss], "MB");
    M.add("trace.span_coverage", TracedBuilds ? Coverage : 0, "ratio");
    double Tr = 0, Un = 0;
    for (std::size_t I = 0; I < TracedPassWalls.size(); ++I) {
      Tr += TracedPassWalls[I];
      Un += UntracedPassWalls[I];
    }
    M.add("trace.overhead_pct", 100.0 * (ratio(Tr, Un) - 1.0), "%");
    printSelfTimes(*T);
    if (!O.TracePath.empty() && !T->writeChromeTrace(O.TracePath))
      C.expect(false, "cannot write trace " + O.TracePath);
  }
  Rep.Metrics = std::move(M.Items);
  Rep.Attempted = C.Attempted;
  Rep.Failed = C.Failed;
  return Rep;
}

//===--------------------------------------------------------------------===//
// daemon_service
//===--------------------------------------------------------------------===//

/// What a client recorded for one job.
struct JobSample {
  std::size_t Index = 0;
  std::size_t AppIdx = 0;
  uint32_t Lane = 0;  ///< The client that ran it.
  double Start = 0;   ///< Submit time (nowSeconds()).
  double Wall = 0, Queue = 0, Run = 0, Serialize = 0;
  bool Ok = false;
  core::BuildStats Stats;
  uint64_t Grant = 0;
  uint64_t Digest = 0;
  std::shared_ptr<oat::OatFile> Oat; ///< Kept for the checked prefix only.
};

/// Job i builds app perm_{i/N}[i%N] of the N apps: every app once per
/// round, in a seeded order.
std::size_t jobApp(uint64_t Seed, std::size_t Index, std::size_t NApps) {
  std::vector<std::size_t> Perm(NApps);
  for (std::size_t I = 0; I < NApps; ++I)
    Perm[I] = I;
  uint64_t R = deriveSeed(Seed, 10, Index / NApps);
  for (std::size_t I = NApps; I > 1; --I) {
    R = splitmix(R);
    std::swap(Perm[I - 1], Perm[R % I]);
  }
  return Perm[Index % NApps];
}

Expected<std::unique_ptr<service::CompileService>>
startService(const Options &O) {
  service::ServiceOptions SO;
  SO.JobSlots = 2;
  SO.QueueDepth = 8;
  SO.Threads = O.Threads;
  SO.GlobalMemoryBudgetBytes = DaemonGlobalBudget;
  return service::CompileService::create(SO);
}

core::CalibroOptions daemonOpts() {
  core::CalibroOptions B;
  B.EnableCto = B.EnableLtbo = true;
  B.LtboPartitions = 0; // Auto-K from the arbitrated budget.
  return B;
}

RunReport runDaemon(const Options &O) {
  Checks C;
  RunReport Rep;
  std::vector<workload::AppSpec> Specs;
  for (std::size_t V = 0; V < DaemonVersions; ++V)
    for (auto S : workload::paperApps(2.0 * O.ScaleFactor)) {
      S.Seed = deriveSeed(O.Seed, 1, Specs.size());
      Specs.push_back(std::move(S));
    }

  // Setup: the apps and the service, several times before the timed phase
  // and again between its segments (into throwaway copies), so the samples
  // span the run; setup_s is their median.
  std::vector<double> SetupTimes, MakeAppTimes;
  auto SetUp = [&](std::vector<dex::App> &Apps,
                   std::unique_ptr<service::CompileService> &Svc) {
    Svc.reset();
    Apps.clear();
    std::vector<double> Busy(Specs.size(), 0.0);
    const double T0 = nowSeconds();
    Apps.resize(Specs.size());
    forEachParallel(Specs.size(), O.Threads, [&](std::size_t I) {
      const double B0 = nowSeconds();
      Apps[I] = workload::makeApp(Specs[I]);
      Busy[I] = nowSeconds() - B0;
    });
    MakeAppTimes.push_back(sum(Busy));
    auto Started = startService(O);
    SetupTimes.push_back(nowSeconds() - T0);
    if (!C.expect(static_cast<bool>(Started),
                  "service start: " + (Started ? "" : Started.message())))
      return false;
    Svc = std::move(*Started);
    return true;
  };
  std::vector<dex::App> Apps;
  std::unique_ptr<service::CompileService> Svc;
  for (int R = 0; R < DaemonSetupRepeats; ++R) {
    if (!SetUp(Apps, Svc)) {
      Rep.Attempted = C.Attempted;
      Rep.Failed = C.Failed;
      return Rep;
    }
  }

  // Timed phase: two closed-loop clients, in segments. Time, CPU and RSS
  // are taken over the segments only, not the setups between them.
  std::mutex M;
  std::size_t NextJob = 0;
  std::vector<JobSample> Samples;
  std::atomic<uint64_t> Rejected{0};
  const core::CalibroOptions Build = daemonOpts();
  double Phase = 0, Cpu = 0, PeakRss = 0, SegStart = 0, SegUntil = 0;
  bool LastSeg = false;
  auto Client = [&](uint32_t Lane) {
    for (;;) {
      JobSample S;
      {
        std::lock_guard<std::mutex> Lock(M);
        if (Phase + nowSeconds() - SegStart >= SegUntil &&
            (!LastSeg || NextJob >= DaemonMinJobs))
          return;
        S.Index = NextJob++;
      }
      S.AppIdx = jobApp(O.Seed, S.Index, Apps.size());
      S.Lane = Lane;
      service::JobSpec Spec;
      Spec.Name = Specs[S.AppIdx].Name + "#" + std::to_string(S.Index);
      Spec.App = &Apps[S.AppIdx];
      Spec.Build = Build;
      const double T0 = nowSeconds();
      auto H = Svc->submit(std::move(Spec));
      if (!H) {
        ++Rejected;
        std::fprintf(stderr, "perfbench: job %zu rejected: %s\n", S.Index,
                     H.message().c_str());
        continue;
      }
      const service::JobRecord &R = (*H)->wait();
      const double T1 = nowSeconds();
      std::vector<uint8_t> Image;
      if (R.Ok)
        Image = oat::serializeOat((*H)->oat());
      const double T2 = nowSeconds();
      S.Start = T0;
      S.Wall = T2 - T0;
      S.Queue = R.QueueSeconds;
      S.Run = R.BuildSeconds;
      S.Serialize = T2 - T1;
      S.Ok = R.Ok;
      S.Stats = R.Stats;
      S.Grant = R.GrantedBudgetBytes;
      S.Digest = digestOf(Image);
      if (!R.Ok)
        std::fprintf(stderr, "perfbench: job %zu failed: %s\n", S.Index,
                     R.ErrorMessage.c_str());
      if (S.Index < DaemonCheckedJobs && R.Ok)
        S.Oat = std::make_shared<oat::OatFile>(std::move((*H)->oat()));
      std::lock_guard<std::mutex> Lock(M);
      Samples.push_back(std::move(S));
    }
  };
  for (int Seg = 0; Seg < DaemonSegments; ++Seg) {
    SegUntil = O.Seconds * (Seg + 1) / DaemonSegments;
    LastSeg = Seg + 1 == DaemonSegments;
    trimHeap();
    RssProbe Rss;
    Rss.reset();
    const double Cpu0 = processCpuSeconds();
    SegStart = nowSeconds();
    std::thread C1(Client, 1), C2(Client, 2);
    C1.join();
    C2.join();
    Phase += nowSeconds() - SegStart;
    Cpu += processCpuSeconds() - Cpu0;
    PeakRss = std::max(PeakRss, Rss.growthMb());
    std::vector<dex::App> Apps2;
    std::unique_ptr<service::CompileService> Svc2;
    for (int R = 0; R < DaemonSetupRepeats; ++R)
      if (!SetUp(Apps2, Svc2))
        break;
  }
  const service::ServiceStats SS = Svc->stats();
  std::sort(Samples.begin(), Samples.end(),
            [](const JobSample &A, const JobSample &B) {
              return A.Index < B.Index;
            });

  // Untimed checks: every job was accepted and succeeded; every job of the
  // checked prefix equals a serial buildApp of its app at the job's
  // effective options (its granted budget, no pool), so concurrent jobs of
  // one app agree; each distinct image is verified and behaviour-checked.
  C.expect(Rejected == 0, "no job rejected (" +
                              std::to_string(Rejected.load()) + " were)");
  std::map<std::pair<std::size_t, uint64_t>, uint64_t> SerialDigest;
  std::vector<CheckedImage> Checked;
  std::vector<std::size_t> CheckedApps;
  std::vector<uint64_t> Digests;
  std::size_t Outlined = 0, Windows = 0, Methods = 0;
  for (const JobSample &S : Samples) {
    C.expect(S.Ok, "job " + std::to_string(S.Index) + " succeeded");
    Methods += S.Stats.NumMethods;
    if (S.Index >= DaemonCheckedJobs || !S.Oat)
      continue;
    Digests.push_back(S.Digest);
    Outlined += S.Stats.Ltbo.SequencesOutlined;
    Windows += S.Stats.Ltbo.DetectWindows;
    auto Key = std::make_pair(S.AppIdx, S.Grant);
    if (!SerialDigest.count(Key)) {
      core::CalibroOptions Serial = Build;
      Serial.MemoryBudgetBytes = S.Grant;
      auto B = core::buildApp(Apps[S.AppIdx], Serial);
      SerialDigest[Key] = B ? digestOf(oat::serializeOat(B->Oat)) : 0;
      Checked.push_back({Specs[S.AppIdx].Name + "#" + std::to_string(S.Index),
                         &Apps[S.AppIdx], nullptr, S.Oat.get()});
      CheckedApps.push_back(S.AppIdx);
    }
    C.expect(SerialDigest[Key] == S.Digest,
             "job " + std::to_string(S.Index) +
                 ": daemon image equals the serial build");
  }
  std::vector<std::vector<workload::Invocation>> Scripts(Checked.size());
  for (std::size_t I = 0; I < Checked.size(); ++I) {
    Scripts[I] = workload::makeScript(Specs[CheckedApps[I]], ScriptLength,
                                      deriveSeed(O.Seed, 2, CheckedApps[I]));
    Checked[I].Script = &Scripts[I];
  }
  ImageTotals Tot = checkImages(Checked, O, C);
  checkDigestRecord(O, Digests, C);
  checkRssResets(C);
  gate(Rep, Digests.size() == DaemonCheckedJobs,
       "every checked job has an image");
  gate(Rep, Outlined > 0, "sequences_outlined > 0");
  gate(Rep, Windows > 0, "windowed linking ran");
  gate(Rep, SS.ArbiterPeakBytes > 0, "the arbiter granted budgets");

  std::vector<double> Walls, Queues, Runs;
  for (const JobSample &S : Samples) {
    Walls.push_back(S.Wall);
    Queues.push_back(S.Queue);
    Runs.push_back(S.Run);
  }
  const double Frac = tailFraction(DaemonMinJobs);
  const double Jobs = static_cast<double>(Samples.size());
  std::fprintf(stderr,
               "perfbench: %s: %zu jobs in %.2f s, build_s_tail is p%.1f, "
               "failed_frac %.6g\n",
               O.Workload.c_str(), Samples.size(), Phase, 100.0 * Frac,
               ratio(static_cast<double>(C.Failed),
                     static_cast<double>(C.Attempted)));

  MetricList Mx;
  if (!O.Trace) {
    Mx.add("setup_s", setupSeconds(SetupTimes), "s");
    Mx.add("build_s_p50", median(Walls), "s");
    Mx.add("build_s_tail", percentile(Walls, Frac), "s");
    Mx.add("methods_per_s", ratio(static_cast<double>(Methods), Phase), "1/s");
    Mx.add("cpu_s_per_build", ratio(Cpu, Jobs), "s");
    Mx.add("peak_rss_mb", PeakRss, "MB");
    addImageMetrics(Mx, Tot);
  } else {
    // The service builds inside compileApp/linkApp; the layer view comes
    // from its job records.
    LayerSink L;
    double Covered = 0, JobWall = 0;
    for (const JobSample &S : Samples) {
      const core::BuildStats &B = S.Stats;
      Covered += S.Queue + S.Run + S.Serialize;
      JobWall += S.Wall;
      L.add("dex.methods", static_cast<double>(B.NumMethods));
      L.add("hir.insns_simplified", static_cast<double>(B.HirInsnsSimplified));
      L.add("codegen.cto_call_sites", static_cast<double>(B.CtoCallSites));
      L.add("core.compile_s", B.CompileSeconds);
      L.add("core.ltbo_s", B.LtboSeconds);
      L.add("oat.link_s", B.LinkSeconds);
      L.add("oat.serialize_s", S.Serialize);
      addLtboTimes(L, B.Ltbo);
      addBuildCounters(L, B);
    }
    auto PerJob = [&](const std::string &Name, const char *Unit = "s") {
      Mx.add(Name, ratio(L.Sum[Name], Jobs), Unit);
    };
    Mx.add("workload.make_app_s", median(MakeAppTimes), "s");
    absent(Mx, "the service verifies inside compileApp",
           {{"dex.verify_s", "s"}});
    PerJob("dex.methods", "count");
    absent(Mx, "the service compiles inside compileApp; no per-pass hook",
           {{"hir.build_s", "s"},
            {"hir.pass.constant_folding_s", "s"},
            {"hir.pass.local_cse_s", "s"},
            {"hir.pass.copy_propagation_s", "s"},
            {"hir.pass.dead_code_elim_s", "s"},
            {"hir.pass.block_merge_s", "s"},
            {"hir.pass.return_merge_s", "s"},
            {"hir.insns", "count"}});
    PerJob("hir.insns_simplified", "count");
    absent(Mx, "the service compiles inside compileApp",
           {{"codegen.compile_s", "s"}, {"codegen.words", "count"}});
    PerJob("codegen.cto_call_sites", "count");
    PerJob("core.compile_s");
    absent(Mx, "the pool is shared by concurrent jobs",
           {{"core.compile_parallel_eff", "ratio"}});
    absent(Mx, "open world: no GC or merge; the call graph is untimed inside "
               "compileApp",
           {{"analysis.callgraph_s", "s"},
            {"analysis.bind_s", "s"},
            {"analysis.reach_s", "s"},
            {"analysis.merge_s", "s"}});
    PerJob("analysis.methods_gced", "count");
    PerJob("analysis.methods_merged", "count");
    PerJob("core.ltbo_s");
    for (const char *Phase :
         {"core.ltbo.preprocess_s", "core.ltbo.detect_s", "core.ltbo.select_s",
          "core.ltbo.rewrite_s", "core.ltbo.window_merge_s"})
      PerJob(Phase);
    PerJob("core.ltbo.candidates_evaluated", "count");
    PerJob("core.ltbo.sequences_outlined", "count");
    PerJob("core.ltbo.insns_removed", "count");
    Mx.add("core.ltbo.outline_yield",
           ratio(L.Sum["core.ltbo.sequences_outlined"],
                 L.Sum["core.ltbo.candidates_evaluated"]),
           "ratio");
    PerJob("core.ltbo.methods_rejected", "count");
    PerJob("core.ltbo.hot_filtered_methods", "count");
    PerJob("suffixtree.symbols", "count");
    PerJob("suffixtree.nodes", "count");
    Mx.add("suffixtree.detect_peak_mb", L.Peak["suffixtree.detect_peak_mb"],
           "MB");
    PerJob("suffixtree.groups_sais", "count");
    PerJob("suffixtree.groups_doubling", "count");
    absentCache(Mx);
    Mx.add("service.queue_wait_s_p50", median(Queues), "s");
    Mx.add("service.queue_wait_s_tail", percentile(Queues, Frac), "s");
    Mx.add("service.run_s_p50", median(Runs), "s");
    Mx.add("service.rejected", static_cast<double>(SS.JobsRejected), "count");
    Mx.add("service.arbiter_peak_mb",
           static_cast<double>(SS.ArbiterPeakBytes) / Mb, "MB");
    absent(Mx, "no profile on this workload",
           {{"profile.prebuild_s", "s"},
            {"profile.select_hot_s", "s"},
            {"profile.hot_methods", "count"},
            {"sim.profile_run_s", "s"}});
    Mx.add("sim.insns", static_cast<double>(Tot.Insns), "count");
    absent(Mx, "no profile, so layout does not arm",
           {{"layout.graph_s", "s"},
            {"layout.solve_s", "s"},
            {"layout.nodes", "count"},
            {"layout.edges", "count"},
            {"layout.cut_ratio", "ratio"}});
    PerJob("oat.link_s");
    PerJob("oat.serialize_s");
    Mx.add("verify.oat_s",
           ratio(Tot.VerifySeconds, static_cast<double>(Checked.size())), "s");
    absent(Mx, "stages of concurrent jobs overlap; only the run peak is "
               "attributable",
           {{"core.compile_rss_mb", "MB"},
            {"analysis.rss_mb", "MB"},
            {"core.ltbo_rss_mb", "MB"},
            {"layout.rss_mb", "MB"},
            {"oat.link_rss_mb", "MB"}});
    Mx.add("trace.span_coverage", ratio(Covered, JobWall), "ratio");
    absent(Mx, "job spans come from the service's job records, which every "
               "run keeps",
           {{"trace.overhead_pct", "%"}});
    // The job spans: queue wait, run and serialization per job.
    Tracer T;
    for (const JobSample &S : Samples) {
      const uint32_t B = T.newBuild();
      const double T0 = S.Start, T1 = T0 + S.Wall;
      Span Root{"job", T.newSpanId(), 0, B, S.Lane, T0, T1};
      T.record({"service.queue", T.newSpanId(), Root.Id, B, S.Lane, T0,
                T0 + S.Queue});
      T.record({"service.run", T.newSpanId(), Root.Id, B, S.Lane,
                T0 + S.Queue, T0 + S.Queue + S.Run});
      T.record({"oat.serialize", T.newSpanId(), Root.Id, B, S.Lane,
                T1 - S.Serialize, T1});
      T.record(std::move(Root));
    }
    printSelfTimes(T);
    if (!O.TracePath.empty() && !T.writeChromeTrace(O.TracePath))
      C.expect(false, "cannot write trace " + O.TracePath);
  }
  Svc->shutdown();
  Rep.Metrics = std::move(Mx.Items);
  Rep.Attempted = C.Attempted;
  Rep.Failed = C.Failed;
  return Rep;
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {
      "plopti_cold", "closed_profiled", "daemon_service"};
  return Names;
}

RunReport perfbench::runWorkload(const Options &O) {
  // Temporary files (the outliner's windowed spill store) stay inside the
  // state directory.
  if (!O.StateDir.empty()) {
    fs::path Tmp = fs::absolute(fs::path(O.StateDir) / "tmp");
    std::error_code EC;
    fs::create_directories(Tmp, EC);
    setenv("TMPDIR", Tmp.c_str(), 1);
  }
  if (O.Workload == "plopti_cold")
    return runPassWorkload(O, /*Profiled=*/false);
  if (O.Workload == "closed_profiled")
    return runPassWorkload(O, /*Profiled=*/true);
  return runDaemon(O);
}
