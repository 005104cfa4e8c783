//===- perfbench/Pipeline.cpp - Traced build pipeline ---------------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
//
// Mirrors core::compileApp and core::linkApp (src/core/Calibro.cpp) call
// for call. Any divergence shows up as a non-identical image in the traced
// run's byte-identity check.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analysis/Merge.h"
#include "codegen/CodeGenerator.h"
#include "hir/Passes.h"
#include "layout/Layout.h"
#include "oat/Linker.h"
#include "support/ThreadPool.h"
#include "verify/OatVerifier.h"

#include <set>
#include <unordered_map>
#include <unordered_set>

using namespace calibro;
using namespace perfbench;

namespace {

/// Metric name of one HIR pass: "constant-folding" ->
/// "hir.pass.constant_folding_s".
std::string passMetric(std::string Name) {
  for (char &C : Name)
    if (C == '-')
      C = '_';
  return "hir.pass." + Name + "_s";
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// The compile stage: per-method HGraph -> passes -> codegen on a private
/// pool, with per-layer busy time summed per method.
Expected<core::CompiledApp> tracedCompile(const dex::App &App,
                                          const core::CalibroOptions &Opts,
                                          TraceContext &Ctx) {
  Tracer &T = Ctx.T;
  LayerSink &L = Ctx.Layers;
  {
    ScopedSpan S(T, "dex.verify", Ctx.Parent, Ctx.Build);
    if (auto E = dex::verifyApp(App))
      return E;
  }

  ScopedSpan CompileSpan(T, "core.compile", Ctx.Parent, Ctx.Build);
  RssProbe Rss;
  Rss.reset();
  const double Start = nowSeconds();
  core::CompiledApp Result;
  Result.AppName = App.Name;
  core::BuildStats &Stats = Result.Stats;
  std::vector<const dex::Method *> Order;
  Order.reserve(App.numMethods());
  App.forEachMethod([&](const dex::Method &M) { Order.push_back(&M); });
  const std::size_t N = Order.size();
  Stats.NumMethods = N;
  codegen::CtoStubCache StubCache;
  codegen::CodeGenerator Gen({.EnableCto = Opts.EnableCto}, StubCache);
  std::vector<codegen::CompiledMethod> Methods(N);
  std::vector<std::size_t> Simplified(N, 0), HirInsns(N, 0);
  std::vector<std::string> Errors(N);
  auto Pipeline = hir::defaultPipeline();
  // Per-method busy seconds by layer: [0] HGraph build, [1, P] the passes,
  // [P + 1] codegen, [P + 2] the whole method.
  const std::size_t P = Pipeline.size();
  std::vector<std::vector<double>> Busy(P + 3, std::vector<double>(N, 0));

  auto CompileOne = [&](std::size_t I) {
    const dex::Method &M = *Order[I];
    const double T0 = nowSeconds();
    double T1 = T0;
    if (M.IsNative) {
      Methods[I] = Gen.compileNative(M);
    } else {
      auto G = hir::buildHGraph(M);
      T1 = nowSeconds();
      Busy[0][I] = T1 - T0;
      if (!G) {
        Errors[I] = G.message();
        return;
      }
      HirInsns[I] = G->numInsns();
      for (std::size_t K = 0; K < P; ++K) {
        Simplified[I] += Pipeline[K].Run(*G);
        const double T2 = nowSeconds();
        Busy[1 + K][I] = T2 - T1;
        T1 = T2;
      }
      Methods[I] = Gen.compile(*G);
    }
    const double TEnd = nowSeconds();
    Busy[P + 1][I] = TEnd - T1;
    Busy[P + 2][I] = TEnd - T0;
  };

  std::size_t Threads = 1;
  if (Opts.CompileThreads == 1) {
    for (std::size_t I = 0; I < N; ++I)
      CompileOne(I);
  } else {
    ThreadPool Pool(Opts.CompileThreads);
    Threads = Pool.numThreads();
    Pool.parallelFor(N, CompileOne);
  }

  for (std::size_t I = 0; I < N; ++I) {
    if (!Errors[I].empty())
      return makeError(Errors[I]);
    Stats.HirInsnsSimplified += Simplified[I];
    Stats.NumNativeMethods += Methods[I].Side.IsNative;
    L.add("hir.insns", static_cast<double>(HirInsns[I]));
    L.add("codegen.words", static_cast<double>(Methods[I].Code.size()));
  }
  for (const auto &M : Methods)
    for (const auto &R : M.Relocs)
      if (R.Kind == codegen::RelocKind::CtoStub)
        ++Stats.CtoCallSites;
  Result.Methods = std::move(Methods);
  Result.Stubs = StubCache.takeStubs();
  const double Wall = nowSeconds() - Start;
  L.peak("core.compile_rss_mb", Rss.growthMb());

  T.addBusy(CompileSpan.id(), "hir.build_s", sum(Busy[0]));
  for (std::size_t K = 0; K < P; ++K)
    T.addBusy(CompileSpan.id(), passMetric(Pipeline[K].Name),
              sum(Busy[1 + K]));
  T.addBusy(CompileSpan.id(), "codegen.compile_s", sum(Busy[P + 1]));
  L.add("core.compile_busy_s", sum(Busy[P + 2]));
  L.add("core.compile_capacity_s", Wall * static_cast<double>(Threads));
  L.add("dex.methods", static_cast<double>(N));
  L.add("hir.insns_simplified", static_cast<double>(Stats.HirInsnsSimplified));
  L.add("codegen.cto_call_sites", static_cast<double>(Stats.CtoCallSites));
  CompileSpan.finish();

  analysis::CallGraphOptions GOpts;
  GOpts.Strict = Opts.StrictCallGraph;
  ScopedSpan GraphSpan(T, "analysis.callgraph", Ctx.Parent, Ctx.Build);
  auto G = analysis::buildCallGraph(App, GOpts);
  if (!G)
    return G.takeError();
  Result.Graph = std::move(*G);
  Result.HasAnalysis = true;
  return Result;
}

/// The link stage: GC -> merge -> LTBO -> layout -> link.
Expected<core::BuildResult> tracedLink(core::CompiledApp App,
                                       const core::CalibroOptions &Opts,
                                       TraceContext &Ctx) {
  Tracer &T = Ctx.T;
  LayerSink &L = Ctx.Layers;
  RssProbe Rss;
  core::BuildResult Result;
  core::BuildStats &Stats = Result.Stats;
  Stats = std::move(App.Stats);

  std::unordered_set<uint32_t> MergePinned;
  std::vector<oat::MergeAliasRef> Aliases;
  std::vector<oat::MergeThunkRef> MergeThunks;
  std::vector<uint32_t> MethodsGCed;
  uint64_t GcBytes = 0;
  std::size_t MergedIdentical = 0, MergedThunk = 0;
  uint64_t MergeSavedBytes = 0;
  std::size_t GraphAnomalies = 0, RepairedEdges = 0;

  const bool ClosedWorld = App.HasAnalysis && !App.Graph.Entrypoints.empty();
  if (ClosedWorld && (Opts.EnableGc || Opts.EnableMerge)) {
    Rss.reset();
    {
      ScopedSpan S(T, "analysis.bind", Ctx.Parent, Ctx.Build);
      auto B = analysis::bindBinaryEdges(App.Graph, App.Methods,
                                         Opts.StrictCallGraph);
      if (!B)
        return B.takeError();
      RepairedEdges = B->RepairedEdges;
      GraphAnomalies = App.Graph.Anomalies.size();
    }

    if (Opts.EnableGc) {
      ScopedSpan S(T, "analysis.reach", Ctx.Parent, Ctx.Build);
      analysis::Reachability Reach = analysis::computeReachability(App.Graph);
      if (!Reach.Dead.empty()) {
        std::unordered_set<uint32_t> DeadSet(Reach.Dead.begin(),
                                             Reach.Dead.end());
        std::vector<codegen::CompiledMethod> Kept;
        Kept.reserve(App.Methods.size());
        for (auto &M : App.Methods) {
          if (DeadSet.count(M.MethodIdx)) {
            GcBytes += M.codeSizeBytes();
            MethodsGCed.push_back(M.MethodIdx);
          } else {
            Kept.push_back(std::move(M));
          }
        }
        App.Methods = std::move(Kept);
      }
    }

    if (Opts.EnableMerge) {
      ScopedSpan S(T, "analysis.merge", Ctx.Parent, Ctx.Build);
      analysis::MergePlan Plan = analysis::planMerge(App.Methods);
      if (!Plan.Aliases.empty() || !Plan.Thunks.empty()) {
        std::unordered_map<uint32_t, uint32_t> AliasCanon;
        AliasCanon.reserve(Plan.Aliases.size());
        for (const auto &A : Plan.Aliases)
          AliasCanon.emplace(A.MethodIdx, A.CanonMethodIdx);
        std::vector<codegen::CompiledMethod> Kept;
        Kept.reserve(App.Methods.size());
        for (auto &M : App.Methods) {
          auto It = AliasCanon.find(M.MethodIdx);
          if (It != AliasCanon.end())
            Aliases.push_back({M.MethodIdx, std::move(M.Name), It->second});
          else
            Kept.push_back(std::move(M));
        }
        App.Methods = std::move(Kept);

        std::unordered_map<uint32_t, std::size_t> Pos;
        Pos.reserve(App.Methods.size());
        for (std::size_t I = 0; I < App.Methods.size(); ++I)
          Pos.emplace(App.Methods[I].MethodIdx, I);
        for (std::size_t TI = 0; TI < Plan.Thunks.size(); ++TI) {
          const analysis::MergeThunk &Th = Plan.Thunks[TI];
          auto It = Pos.find(Th.MethodIdx);
          if (It == Pos.end())
            return makeError("merge plan names unknown method " +
                             std::to_string(Th.MethodIdx));
          analysis::makeThunk(App.Methods[It->second], Th.EntryByteOff / 4,
                              static_cast<uint32_t>(TI));
          MergeThunks.push_back(
              {Th.MethodIdx, Th.CanonMethodIdx, Th.EntryByteOff});
        }
        MergePinned.insert(Plan.Pinned.begin(), Plan.Pinned.end());
        MergedIdentical = Plan.Aliases.size();
        MergedThunk = Plan.Thunks.size();
        MergeSavedBytes = Plan.SavedBytes;
      }
    }
    L.peak("analysis.rss_mb", Rss.growthMb());
  }

  std::vector<codegen::OutlinedFunc> Outlined;
  if (Opts.EnableLtbo) {
    std::set<uint32_t> Hot;
    core::OutlinerOptions OOpts;
    OOpts.MinSeqLen = Opts.MinSeqLen;
    OOpts.MaxSeqLen = Opts.MaxSeqLen;
    OOpts.Partitions = Opts.LtboPartitions;
    OOpts.Threads = Opts.LtboThreads;
    OOpts.MemoryBudgetBytes = Opts.MemoryBudgetBytes;
    OOpts.Detector = Opts.LtboDetector;
    OOpts.Strict = Opts.StrictSideInfo;
    if (Opts.Profile) {
      ScopedSpan S(T, "profile.select_hot", Ctx.Parent, Ctx.Build);
      Hot = profile::selectHotMethods(*Opts.Profile, Opts.HotCoverage);
      OOpts.HotMethods = &Hot;
    }
    if (!MergePinned.empty())
      OOpts.PinnedMethods = &MergePinned;
    ScopedSpan S(T, "core.ltbo", Ctx.Parent, Ctx.Build);
    Rss.reset();
    auto R = core::runLtbo(App.Methods, OOpts);
    if (!R)
      return R.takeError();
    L.peak("core.ltbo_rss_mb", Rss.growthMb());
    Outlined = std::move(R->Funcs);
    Stats.Ltbo = R->Stats;
    Stats.GroupsReused = R->Stats.GroupsReused;
    L.add("profile.hot_methods", static_cast<double>(Hot.size()));
  }

  Stats.Ltbo.MethodsGCed = std::move(MethodsGCed);
  Stats.Ltbo.GcBytes = GcBytes;
  Stats.Ltbo.MethodsMergedIdentical = MergedIdentical;
  Stats.Ltbo.MethodsMergedThunk = MergedThunk;
  Stats.Ltbo.MergeSavedBytes = MergeSavedBytes;
  Stats.Ltbo.CallGraphAnomalies = GraphAnomalies;
  Stats.Ltbo.RepairedEdges = RepairedEdges;

  oat::LinkInput In;
  In.AppName = App.AppName;
  In.BaseAddress = Opts.BaseAddress;
  In.Methods = std::move(App.Methods);
  In.Stubs = std::move(App.Stubs);
  In.Outlined = std::move(Outlined);
  In.Aliases = std::move(Aliases);
  In.MergeThunks = std::move(MergeThunks);
  Stats.CtoStubCount = In.Stubs.size();

  if (Opts.EnableLayout && Opts.Profile && ClosedWorld) {
    layout::LayoutOptions LOpts;
    LOpts.PageSize = Opts.LayoutPageSize;
    LOpts.Threads = Opts.LtboThreads;
    Rss.reset();
    layout::AffinityGraph AG;
    {
      ScopedSpan S(T, "layout.graph", Ctx.Parent, Ctx.Build);
      AG = layout::buildAffinityGraph(In, App.Graph, *Opts.Profile);
    }
    ScopedSpan S(T, "layout.solve", Ctx.Parent, Ctx.Build);
    layout::LayoutResult LR = layout::computeLayout(AG, LOpts);
    L.peak("layout.rss_mb", Rss.growthMb());
    Stats.LayoutApplied = true;
    Stats.LayoutNodes = LR.Nodes;
    Stats.LayoutEdges = LR.Edges;
    Stats.LayoutWarmNodes = LR.WarmNodes;
    Stats.LayoutCutBefore = LR.CutBefore;
    Stats.LayoutCutAfter = LR.CutAfter;
    In.Layout = std::move(LR.Plan);
  }

  {
    ScopedSpan S(T, "oat.link", Ctx.Parent, Ctx.Build);
    Rss.reset();
    auto O = oat::link(In);
    if (!O)
      return O.takeError();
    L.peak("oat.link_rss_mb", Rss.growthMb());
    Result.Oat = std::move(*O);
    // The link input and what is left of the compiled app die inside the
    // span, as they do at the end of linkApp.
    In = oat::LinkInput();
    App = core::CompiledApp();
  }
  if (Opts.VerifyOutput) {
    ScopedSpan S(T, "verify.oat", Ctx.Parent, Ctx.Build);
    if (auto E = verify::verifyOatFile(Result.Oat))
      return E;
  }
  Stats.TextBytes = Result.Oat.textBytes();
  return Result;
}

} // namespace

Expected<core::BuildResult>
perfbench::tracedBuildApp(const dex::App &App,
                          const core::CalibroOptions &Opts,
                          TraceContext &Ctx) {
  if (Opts.Pool || Opts.SharedCache || !Opts.CacheDir.empty())
    return makeError("traced pipeline: pool and cache options are not traced");
  auto Compiled = tracedCompile(App, Opts, Ctx);
  if (!Compiled)
    return Compiled.takeError();
  return tracedLink(std::move(*Compiled), Opts, Ctx);
}
