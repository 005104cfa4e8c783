//===- core/Outliner.cpp - Linking-time binary outlining (LTBO.2) ----------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#include "core/Outliner.h"

#include "aarch64/Encoder.h"
#include "aarch64/PcRel.h"
#include "core/Selection.h"
#include "suffixtree/SuffixArray.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <memory>

using namespace calibro;
using namespace calibro::core;
using namespace calibro::codegen;

namespace {

/// Rewrites one method given its selected occurrences (sorted, disjoint):
/// replaces each occurrence with a relocated `bl`, then remaps and patches
/// every piece of metadata (paper §3.3.4 and §3.5).
Error rewriteMethod(CompiledMethod &M, std::vector<MethodOcc> Occs) {
  std::sort(Occs.begin(), Occs.end(),
            [](const MethodOcc &A, const MethodOcc &B) {
              return A.WordStart < B.WordStart;
            });

  std::size_t NumWords = M.Code.size();
  std::vector<uint32_t> NewOffOfWord(NumWords + 1, 0);
  std::vector<uint32_t> NewCode;
  NewCode.reserve(NumWords);
  std::vector<Relocation> NewRelocs;

  const uint32_t BlWord = a64::encode(a64::Insn{.Op = a64::Opcode::Bl});

  std::size_t OI = 0;
  for (std::size_t W = 0; W < NumWords;) {
    uint32_t NewOff = static_cast<uint32_t>(NewCode.size() * 4);
    if (OI < Occs.size() && W == Occs[OI].WordStart) {
      const MethodOcc &O = Occs[OI];
      for (uint32_t K = 0; K < O.LenWords; ++K)
        NewOffOfWord[W + K] = NewOff;
      NewCode.push_back(BlWord);
      NewRelocs.push_back({NewOff, RelocKind::OutlinedFunc, O.FuncId});
      W += O.LenWords;
      ++OI;
      continue;
    }
    NewOffOfWord[W] = NewOff;
    NewCode.push_back(M.Code[W]);
    ++W;
  }
  NewOffOfWord[NumWords] = static_cast<uint32_t>(NewCode.size() * 4);

  // Removals can break the 8-byte alignment of the trailing literal pool
  // (64-bit ldr-literal loads require it). Re-pad with one NOP in front of
  // the pool and shift everything at or past the pool start.
  uint32_t PoolStart = ~uint32_t(0);
  for (const auto &D : M.Side.EmbeddedData)
    PoolStart = std::min(PoolStart, NewOffOfWord[D.Offset / 4]);
  uint32_t PoolShift = 0;
  if (PoolStart != ~uint32_t(0) && PoolStart % 8 != 0) {
    NewCode.insert(NewCode.begin() + PoolStart / 4,
                   a64::encode(a64::Insn{.Op = a64::Opcode::Nop}));
    PoolShift = 4;
  }

  auto remap = [&](uint32_t OldOff) {
    uint32_t Off = NewOffOfWord[OldOff / 4];
    return Off >= PoolStart ? Off + PoolShift : Off;
  };

  // Carry the original relocations over; `bl` words are always separators,
  // so none of them can sit inside a removed region.
  for (const auto &R : M.Relocs)
    NewRelocs.push_back({remap(R.Offset), R.Kind, R.TargetId});
  std::sort(NewRelocs.begin(), NewRelocs.end(),
            [](const Relocation &A, const Relocation &B) {
              return A.Offset < B.Offset;
            });

  // Patch PC-relative instructions against their targets' new offsets.
  std::vector<PcRelRecord> NewPcRel;
  NewPcRel.reserve(M.Side.PcRelRecords.size());
  for (const auto &R : M.Side.PcRelRecords) {
    uint32_t NewInsn = remap(R.InsnOffset);
    uint32_t NewTarget = remap(R.TargetOffset);
    uint32_t &Word = NewCode[NewInsn / 4];
    auto Patched = a64::retargetWord(Word, NewInsn, NewTarget);
    if (!Patched)
      return makeError("method '" + M.Name +
                       "': pc-relative patch failed: " + Patched.message());
    Word = *Patched;
    NewPcRel.push_back({NewInsn, NewTarget});
  }

  for (auto &T : M.Side.TerminatorOffsets)
    T = remap(T);
  for (auto &D : M.Side.EmbeddedData)
    D.Offset = remap(D.Offset);
  // NewOffOfWord has NumWords+1 entries, so remap() handles End offsets up
  // to and including codeSizeBytes() — and applies PoolShift uniformly
  // (an end-of-code End that sits past an inserted pool NOP must shift
  // with the pool, or the range would under-cover the last instruction).
  for (auto &S : M.Side.SlowPathRanges) {
    uint32_t End = remap(S.End);
    S.Begin = remap(S.Begin);
    S.End = End;
  }
  for (auto &E : M.Map.Entries)
    E.NativePcOffset = remap(E.NativePcOffset);

  M.Side.PcRelRecords = std::move(NewPcRel);
  M.Relocs = std::move(NewRelocs);
  M.Code = std::move(NewCode);
  return Error::success();
}

/// Phase A output for one candidate method: its separators, computed once
/// up front (in parallel) so the per-group sequence assembly below is a
/// cheap copy loop.
struct MethodPrep {
  std::vector<bool> Sep;
  /// Content digest (code + side info), computed only when detection-result
  /// reuse is on. Recomputed HERE, from the method actually being linked:
  /// a digest carried over from an earlier pipeline stage could go stale if
  /// anything mutated the methods in between, and a stale digest could
  /// replay a wrong cached selection.
  cache::Digest Content;
  /// Side-info validation outcome. A faulted method is skipped by the
  /// prep (Sep stays empty) and excluded from outlining — or, in strict
  /// mode, aborts the run.
  codegen::SideInfoDiag Diag;
};

/// Estimated peak detect-phase bytes per sequence word: 8 B text + 8 B
/// SeqPos provenance, plus the suffix-array construction arrays and
/// interval table at their construction peak. Calibrated against
/// table5_memory's DetectPeakBytes on the paper-app corpus; deliberately a
/// little high so a window's real peak lands under, not over, its estimate. The window planner and the
/// auto-partition chooser size groups with it.
constexpr std::size_t DetectBytesPerWord = 64;

/// Cold Phase B for one assembled group (paper §3.3.2–3.3.3): suffix-array
/// detection, then ranking and greedy claiming. \p BuildTimer started
/// before sequence assembly, which counts as construction time.
cache::GroupSelections detectGroup(Sequence &Seq, const OutlinerOptions &Opts,
                                   OutlineStats &Stats,
                                   const Timer &BuildTimer) {
  // The text moves into the array (no second copy) and is freed by
  // releaseWorkingSet() below.
  st::SuffixArray Sa(std::move(Seq.Text));
  Stats.TreeNodes += Sa.numNodes();
  Stats.BuildTreeSeconds += BuildTimer.seconds();

  Timer RankTimer;
  std::vector<Candidate> Ranked =
      rankCandidates(Sa, Opts.MinSeqLen, Opts.MaxSeqLen);
  Stats.CandidatesEvaluated += Ranked.size();
  const double RankSeconds = RankTimer.seconds();

  // The detect-phase working set peaks here: the full suffix array plus
  // this group's provenance and candidate arrays. Record it, then drop the
  // stored text — claiming reads occurrence positions only. Neither the
  // sampling nor the release is selection work, so both stay untimed.
  Stats.DetectPeakBytes =
      std::max(Stats.DetectPeakBytes,
               Sa.workingSetBytes() + Seq.Pos.capacity() * sizeof(SeqPos) +
                   Ranked.capacity() * sizeof(Candidate));
  Sa.releaseWorkingSet();

  Timer ClaimTimer;
  cache::GroupSelections Sel =
      claimCandidates(Sa, Ranked, Seq.InteriorForbidden);
  Stats.SelectSeconds += RankSeconds + ClaimTimer.seconds();
  return Sel;
}

} // namespace

Expected<OutlineResult> core::runLtbo(std::vector<CompiledMethod> &Methods,
                                      const OutlinerOptions &Opts) {
  const bool Windowed = Opts.MemoryBudgetBytes > 0;
  if ((Opts.Partitions == 0 && !Windowed) ||
      Opts.Partitions > MaxPartitions || Opts.MinSeqLen < 2 ||
      Opts.MaxSeqLen < Opts.MinSeqLen)
    return makeError("runLtbo: invalid options");

  OutlineResult Result;

  // Step 1 (paper §3.3.1): choose candidate methods.
  std::vector<std::size_t> Candidates;
  for (std::size_t Row = 0; Row < Methods.size(); ++Row) {
    const auto &M = Methods[Row];
    if (M.Side.IsNative) {
      ++Result.Stats.ExcludedNative;
      continue;
    }
    if (M.Side.HasIndirectJump) {
      ++Result.Stats.ExcludedIndirectJump;
      continue;
    }
    if (Opts.PinnedMethods && Opts.PinnedMethods->count(M.MethodIdx)) {
      ++Result.Stats.ExcludedMergePinned;
      continue;
    }
    Candidates.push_back(Row);
  }
  Result.Stats.CandidateMethods = Candidates.size();

  // One pool serves every phase; group tasks never call back into it, so
  // there is no nested-wait deadlock. An effective thread count of 1 —
  // Threads == 1, or any request on a single-core machine — stays pool-free
  // and runs every phase inline on the calling thread: oversubscribing a
  // CPU-bound pipeline only buys scheduling overhead (the measured
  // 8-threads-slower-than-1 regression), never throughput. A daemon job
  // instead injects the service-wide pool (Opts.Pool) and its fairness
  // group, so concurrent links share one set of workers round-robin.
  std::unique_ptr<ThreadPool> OwnedPool;
  ThreadPool *Pool = Opts.Pool;
  const ThreadPool::GroupId PoolGroup = Pool ? Opts.PoolGroup : 0;
  if (!Pool && Opts.Threads > 1 &&
      ThreadPool::effectiveThreads(Opts.Threads) > 1) {
    OwnedPool = std::make_unique<ThreadPool>(Opts.Threads);
    Pool = OwnedPool.get();
  }
  if (Pool && Pool->numThreads() == 1)
    Pool = nullptr; // Inline path; a 1-worker pool adds only handshakes.

  // Phase A: per-method preprocessing — side-info validation first, then
  // separators, the decode-heavy analysis — in parallel over ALL
  // candidates, before any sequence is assembled. Each candidate
  // writes only its own slot, and the degradation/error scan below walks
  // slots in candidate order afterwards, so rejections (and the strict-mode
  // error: the lowest candidate index's) are identical for any scheduling.
  Timer PreprocessTimer;
  std::vector<MethodPrep> Preps(Candidates.size());
  auto PrepOne = [&](std::size_t I) {
    const CompiledMethod &M = Methods[Candidates[I]];
    bool Hot = Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx);
    MethodPrep &P = Preps[I];
    P.Diag = codegen::validateSideInfo(M);
    if (P.Diag)
      return; // Invalid: never fed to detection, links verbatim.
    P.Sep = computeSeparators(M, {.SlowPathsOnly = Hot});
    if (Opts.Cache)
      P.Content = cache::methodContentDigest(M);
  };
  if (Pool) {
    Pool->parallelForIn(PoolGroup, Candidates.size(), PrepOne);
  } else {
    for (std::size_t I = 0; I < Candidates.size(); ++I)
      PrepOne(I);
  }
  // Graceful degradation (or strict fail-fast) over the validation
  // outcomes. Accepted keeps the surviving candidate indices in input
  // order; on a fully clean run it equals 0..Candidates.size()-1 and the
  // partition below is byte-identical to the no-validation pipeline.
  std::vector<std::size_t> Accepted;
  Accepted.reserve(Candidates.size());
  for (std::size_t I = 0; I < Candidates.size(); ++I) {
    const CompiledMethod &M = Methods[Candidates[I]];
    if (Preps[I].Diag) {
      const codegen::SideInfoDiag &D = Preps[I].Diag;
      if (Opts.Strict)
        return makeError(ErrCat::SideInfo,
                         "ltbo: method '" + M.Name + "': invalid side info: " +
                             codegen::sideInfoFaultName(D.Fault) + " " +
                             D.Detail);
      ++Result.Stats.MethodsRejected;
      ++Result.Stats.RejectedByFault[static_cast<std::size_t>(D.Fault)];
      Result.Rejected.push_back({M.MethodIdx, M.Name, D.Fault, D.Detail});
      continue;
    }
    if (Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx))
      ++Result.Stats.HotFilteredMethods;
    Accepted.push_back(I);
  }
  Result.Stats.PreprocessSeconds = PreprocessTimer.seconds();
  Result.Stats.PreprocessThreads = Pool ? Pool->numThreads() : 1;

  // PlOpti (paper §3.4.1): simple even partition of the accepted candidate
  // methods. Groups hold candidate indices so Phase B can reach the Phase A
  // output. Partitions == 0 (auto, budget required) derives the smallest K
  // whose estimated per-group detect working set fits the budget — the
  // round-robin split is near-even in words, so TotalWords / K estimates a
  // group. Capped at MaxPartitions.
  uint32_t K = Opts.Partitions;
  if (K == 0) {
    uint64_t TotalWords = 0;
    for (std::size_t I : Accepted)
      TotalWords += Methods[Candidates[I]].Code.size() + 1;
    uint64_t Need =
        (TotalWords * DetectBytesPerWord + Opts.MemoryBudgetBytes - 1) /
        Opts.MemoryBudgetBytes;
    K = static_cast<uint32_t>(std::clamp<uint64_t>(Need, 1, MaxPartitions));
  }
  Result.Stats.PartitionsUsed = K;
  std::vector<std::vector<std::size_t>> Groups(K);
  std::vector<std::size_t> GroupPositions(K, 0); // Words + one per method.
  for (std::size_t A = 0; A < Accepted.size(); ++A) {
    Groups[A % K].push_back(Accepted[A]);
    GroupPositions[A % K] += Methods[Candidates[Accepted[A]]].Code.size() + 1;
  }

  // Incremental reuse: key each group by the content digests of its member
  // set (plus the options that shape detection; the hot-bit changes a
  // member's separators, so it is part of the member's identity). All
  // stored selections are prefetched BEFORE Phase B, which makes hit/miss
  // a pure function of pre-existing cache state: two identically-keyed
  // groups in one run both replay or neither does, regardless of how Phase
  // B tasks interleave with this run's own stores.
  std::vector<cache::Digest> GroupKeys(Opts.Cache ? K : 0);
  std::vector<std::unique_ptr<cache::GroupSelections>> GroupCached(K);
  if (Opts.Cache) {
    for (uint32_t G = 0; G < K; ++G) {
      if (Groups[G].empty())
        continue;
      cache::Hasher H;
      H.u32(cache::CacheFormatVersion);
      H.u32(Opts.MinSeqLen);
      H.u32(Opts.MaxSeqLen);
      for (std::size_t I : Groups[G]) {
        const CompiledMethod &M = Methods[Candidates[I]];
        H.digest(Preps[I].Content);
        H.u8(Opts.HotMethods && Opts.HotMethods->count(M.MethodIdx) ? 1 : 0);
      }
      GroupKeys[G] = H.finish();
      if (auto Sel = Opts.Cache->loadGroup(GroupKeys[G]))
        GroupCached[G] =
            std::make_unique<cache::GroupSelections>(std::move(*Sel));
    }
  }

  // Phase B: detection + selection per group, concurrently across the
  // groups of one window. Each task touches only its own output slots and
  // reads shared state, so results are identical for any thread count, and
  // every group's outputs stay in memory until Phase C consumes them.
  std::vector<OutlineStats> GroupStats(K);
  std::vector<std::vector<OutlinedFunc>> GroupFuncs(K);
  std::vector<std::vector<RewriteWork>> GroupWork(K);

  // One group, cold or warm: assemble its sequence (paper §3.3.2), then
  // either replay a cached selection that passes validation (all or
  // nothing, so a stale or corrupt entry can cost time but never change
  // output) or detect and select afresh (storing the result when a cache is
  // set). Both reach the outlined functions through the same commit, so a
  // warm build is byte-identical to a cold one.
  auto RunOne = [&](std::size_t G) {
    OutlineStats &St = GroupStats[G];
    Timer BuildTimer;
    Sequence Seq;
    Seq.reserve(GroupPositions[G]);
    for (std::size_t I : Groups[G])
      Seq.append(Methods[Candidates[I]], Candidates[I], Preps[I].Sep,
                 /*ForbidBranchTargets=*/true);
    St.SymbolCount += Seq.Pos.size();

    cache::GroupSelections Detected;
    const cache::GroupSelections *Sel = GroupCached[G].get();
    if (Sel && validateSelections(Seq, *Sel, Opts.MinSeqLen, Opts.MaxSeqLen)) {
      ++St.GroupsReused;
    } else {
      ++St.GroupsDetected;
      Detected = detectGroup(Seq, Opts, St, BuildTimer);
      // Store even an empty selection: "this group outlines nothing" is as
      // reusable as any other result.
      if (Opts.Cache)
        Opts.Cache->storeGroup(GroupKeys[G], Detected);
      Sel = &Detected;
    }
    Timer CommitTimer;
    commitSelections(Methods, Seq, *Sel, static_cast<uint32_t>(G),
                     GroupFuncs[G], GroupWork[G], St);
    St.SelectSeconds += CommitTimer.seconds();
  };

  // Pack the non-empty groups, in ascending index order, into windows that
  // run one after another. Unbudgeted, one window holds them all. Under a
  // budget, each window's summed estimated working set fits it (greedy
  // first-fit-in-order, so the packing is a pure function of groups +
  // budget, never of scheduling); a single group that alone exceeds the
  // budget still runs, by itself, and is counted as an overrun instead of
  // failing the link.
  std::vector<std::vector<std::size_t>> Windows;
  uint64_t CurBytes = 0;
  std::size_t MaxWindowGroups = 0;
  for (uint32_t G = 0; G < K; ++G) {
    if (Groups[G].empty())
      continue;
    uint64_t Est = GroupPositions[G] * DetectBytesPerWord;
    if (!Windows.empty() &&
        (!Windowed || CurBytes + Est <= Opts.MemoryBudgetBytes)) {
      Windows.back().push_back(G);
      CurBytes += Est;
    } else {
      Windows.push_back({G});
      CurBytes = Est;
      if (Windowed && Est > Opts.MemoryBudgetBytes)
        ++Result.Stats.DetectBudgetOverruns;
    }
    MaxWindowGroups = std::max(MaxWindowGroups, Windows.back().size());
  }

  for (const std::vector<std::size_t> &W : Windows) {
    if (Pool && W.size() > 1) {
      Pool->parallelForIn(PoolGroup, W.size(),
                          [&](std::size_t I) { RunOne(W[I]); });
    } else {
      for (std::size_t G : W)
        RunOne(G);
    }
    if (!Windowed)
      continue;
    // Summed member peaks bound what this window held at once (groups in
    // one window run concurrently).
    std::size_t WindowPeak = 0;
    for (std::size_t G : W)
      WindowPeak += GroupStats[G].DetectPeakBytes;
    Result.Stats.DetectWindowPeakBytes =
        std::max(Result.Stats.DetectWindowPeakBytes, WindowPeak);
  }
  if (Windowed)
    Result.Stats.DetectWindows = Windows.size();
  if (Pool && MaxWindowGroups > 1)
    Result.Stats.DetectThreads =
        std::min<std::size_t>(Pool->numThreads(), MaxWindowGroups);

  for (std::size_t G = 0; G < K; ++G) {
    auto &S = GroupStats[G];
    Result.Stats.SequencesOutlined += S.SequencesOutlined;
    Result.Stats.OccurrencesReplaced += S.OccurrencesReplaced;
    Result.Stats.CandidatesEvaluated += S.CandidatesEvaluated;
    Result.Stats.InsnsRemoved += S.InsnsRemoved;
    Result.Stats.SymbolCount += S.SymbolCount;
    Result.Stats.TreeNodes += S.TreeNodes;
    Result.Stats.BuildTreeSeconds += S.BuildTreeSeconds;
    Result.Stats.SelectSeconds += S.SelectSeconds;
    Result.Stats.GroupsReused += S.GroupsReused;
    Result.Stats.GroupsDetected += S.GroupsDetected;
    Result.Stats.DetectPeakBytes =
        std::max(Result.Stats.DetectPeakBytes, S.DetectPeakBytes);
    for (auto &F : GroupFuncs[G])
      Result.Funcs.push_back(std::move(F));
  }
  Result.Stats.GroupsPrefixDoubling = Result.Stats.GroupsDetected;
  std::sort(Result.Funcs.begin(), Result.Funcs.end(),
            [](const OutlinedFunc &A, const OutlinedFunc &B) {
              return A.Id < B.Id;
            });

  // Phase C: rewrite fan-out across every selected method — even when
  // Partitions == 1. Work items are sorted by method row; each task rewrites
  // a distinct method and records any failure in its own slot, and the scan
  // below surfaces the LOWEST method index's error for any scheduling.
  Timer RewriteTimer;
  std::vector<RewriteWork> Work;
  for (auto &GW : GroupWork)
    for (auto &W : GW)
      Work.push_back(std::move(W));
  std::sort(Work.begin(), Work.end(),
            [](const RewriteWork &A, const RewriteWork &B) {
              return A.Row < B.Row;
            });
  std::vector<std::string> RewriteErrors(Work.size());
  auto RewriteOne = [&](std::size_t I) {
    if (auto E = rewriteMethod(Methods[Work[I].Row], std::move(Work[I].Occs)))
      RewriteErrors[I] = E.message();
  };
  if (Pool) {
    Pool->parallelForIn(PoolGroup, Work.size(), RewriteOne);
  } else {
    for (std::size_t I = 0; I < Work.size(); ++I)
      RewriteOne(I);
  }
  for (const std::string &E : RewriteErrors)
    if (!E.empty())
      return makeError(E);
  Result.Stats.RewriteSeconds = RewriteTimer.seconds();
  Result.Stats.RewriteThreads = Pool ? Pool->numThreads() : 1;

  return Result;
}
