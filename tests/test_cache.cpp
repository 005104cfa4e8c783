//===- tests/test_cache.cpp - Incremental build cache tests -----------------===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-build contract (ISSUE 5): a warm rebuild from an
/// unchanged input is byte-identical to a cold build while skipping
/// codegen and LTBO detection for every unchanged method/group; a
/// single-method edit invalidates exactly that method and its partition
/// group; hit/miss/reuse counters are deterministic for any thread count;
/// and every flavor of store damage (corrupt blob, truncated blob, stale
/// format version) degrades to a cache miss — never a crash, never a
/// build failure, never a divergent image.
///
//===----------------------------------------------------------------------===//

#include "cache/BuildCache.h"
#include "cache/Digest.h"
#include "core/Calibro.h"
#include "oat/Serialize.h"
#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace calibro;

namespace {

namespace fs = std::filesystem;

/// Self-cleaning cache directory under the system temp dir.
struct TempCacheDir {
  fs::path Path;
  explicit TempCacheDir(const std::string &Tag)
      : Path(fs::temp_directory_path() /
             ("calibro-test-cache-" + Tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(Path);
  }
  ~TempCacheDir() { fs::remove_all(Path); }
  std::string str() const { return Path.string(); }
};

workload::AppSpec testSpec() {
  workload::AppSpec Spec;
  Spec.Name = "cacheapp";
  Spec.Seed = 4421;
  Spec.NumWorkers = 40;
  Spec.NumUtilities = 20;
  return Spec;
}

core::CalibroOptions cacheOpts(const std::string &Dir) {
  core::CalibroOptions Opts;
  Opts.EnableCto = true;
  Opts.EnableLtbo = true;
  Opts.LtboPartitions = 4;
  Opts.LtboThreads = 2;
  Opts.CompileThreads = 2;
  Opts.CacheDir = Dir;
  return Opts;
}

/// Content digest of each compiled method, in row order.
std::vector<cache::Digest> contentDigests(const core::CompiledApp &C) {
  std::vector<cache::Digest> Out;
  for (const auto &M : C.Methods)
    Out.push_back(cache::methodContentDigest(M));
  return Out;
}

/// Bumps the first ConstInt immediate of the first outlining-candidate
/// method (non-native, no switch — so it stays in its LTBO group), and
/// returns that method's global index.
std::optional<uint32_t> churnOneMethod(dex::App &App) {
  for (auto &F : App.Files)
    for (auto &M : F.Methods) {
      if (M.IsNative)
        continue;
      bool HasSwitch = false;
      for (const auto &I : M.Code)
        HasSwitch |= I.Opcode == dex::Op::Switch;
      if (HasSwitch)
        continue;
      for (auto &I : M.Code)
        if (I.Opcode == dex::Op::ConstInt) {
          I.Imm += 1;
          return M.Idx;
        }
    }
  return std::nullopt;
}

/// All blobs under \p Dir (a store's m/ or g/, fan-out included), sorted
/// for determinism.
std::vector<fs::path> listBlobs(const fs::path &Dir) {
  std::vector<fs::path> Out;
  for (const auto &E : fs::recursive_directory_iterator(Dir))
    if (E.is_regular_file() && E.path().extension() == ".bin")
      Out.push_back(E.path());
  std::sort(Out.begin(), Out.end());
  return Out;
}

void flipByteInFile(const fs::path &P, std::size_t Offset) {
  std::fstream F(P, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(bool(F)) << P;
  F.seekg(static_cast<std::streamoff>(Offset));
  char C = 0;
  F.get(C);
  F.seekp(static_cast<std::streamoff>(Offset));
  F.put(static_cast<char>(C ^ 0x40));
}

} // namespace

TEST(CacheDigest, SourceKeyIsDeterministicAndInputSensitive) {
  dex::App App = workload::makeApp(testSpec());
  const dex::Method *M = App.findMethod(0);
  ASSERT_NE(M, nullptr);

  EXPECT_EQ(cache::methodSourceKey(*M, true), cache::methodSourceKey(*M, true));
  // The CTO flag changes what codegen produces, so it must key the entry.
  EXPECT_FALSE(cache::methodSourceKey(*M, true) ==
               cache::methodSourceKey(*M, false));

  dex::Method Edited = *M;
  bool Bumped = false;
  for (auto &I : Edited.Code)
    if (I.Opcode == dex::Op::ConstInt) {
      I.Imm += 1;
      Bumped = true;
      break;
    }
  if (Bumped) {
    EXPECT_FALSE(cache::methodSourceKey(Edited, true) ==
                 cache::methodSourceKey(*M, true));
  }
}

TEST(CacheStore, MethodBlobRoundtripAndAudit) {
  TempCacheDir Dir("roundtrip");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Compiled = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  EXPECT_EQ(Compiled->Stats.CacheMisses, App.numMethods());
  EXPECT_EQ(Compiled->Stats.CacheHits, 0u);

  // A second handle on the same store must return entries that compare
  // equal, field for field, to what the compiler just produced.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  std::size_t Row = 0;
  App.forEachMethod([&](const dex::Method &M) {
    auto E = (*Cache)->loadMethod(cache::methodSourceKey(M, Opts.EnableCto));
    ASSERT_TRUE(E.has_value()) << M.Name;
    EXPECT_TRUE(E->Method == Compiled->Methods[Row]) << M.Name;
    ++Row;
  });

  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, App.numMethods());
  EXPECT_EQ(A.MethodCorrupt, 0u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_GT(A.TotalBytes, 0u);
}

TEST(CacheWarm, WarmRebuildIsByteIdenticalAndSkipsWork) {
  TempCacheDir Dir("warm");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  // Reference: the same configuration with no cache at all.
  auto NoCacheOpts = Opts;
  NoCacheOpts.CacheDir.clear();
  auto Ref = core::buildApp(App, NoCacheOpts);
  ASSERT_TRUE(bool(Ref)) << Ref.message();
  const std::vector<uint8_t> RefBytes = oat::serializeOat(Ref->Oat);

  // Cold: populates the store, and caching itself must not change the image.
  auto ColdC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = contentDigests(*ColdC);
  auto Cold = core::linkApp(std::move(*ColdC), Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), RefBytes);
  EXPECT_EQ(Cold->Stats.Ltbo.GroupsReused, 0u);
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  EXPECT_GT(NumGroups, 0u);
  EXPECT_GT(Cold->Stats.Ltbo.SequencesOutlined, 0u);

  // Warm: every method probe hits, every group replays, output identical.
  auto WarmC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(WarmC)) << WarmC.message();
  EXPECT_EQ(WarmC->Stats.CacheHits, App.numMethods());
  EXPECT_EQ(WarmC->Stats.CacheMisses, 0u);
  EXPECT_EQ(contentDigests(*WarmC), ColdDigests);
  auto Warm = core::linkApp(std::move(*WarmC), Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 0u);
  EXPECT_EQ(Warm->Stats.GroupsReused, NumGroups);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), RefBytes);
  // Replayed groups build no suffix array.
  EXPECT_EQ(Warm->Stats.Ltbo.TreeNodes, 0u);
  EXPECT_EQ(Warm->Stats.Ltbo.CandidatesEvaluated, 0u);
  // But the invariant outlining counters must match the cold run exactly.
  EXPECT_EQ(Warm->Stats.Ltbo.SequencesOutlined,
            Cold->Stats.Ltbo.SequencesOutlined);
  EXPECT_EQ(Warm->Stats.Ltbo.OccurrencesReplaced,
            Cold->Stats.Ltbo.OccurrencesReplaced);
  EXPECT_EQ(Warm->Stats.Ltbo.InsnsRemoved, Cold->Stats.Ltbo.InsnsRemoved);
  EXPECT_EQ(Warm->Stats.Ltbo.SymbolCount, Cold->Stats.Ltbo.SymbolCount);
}

TEST(CacheWarm, SingleMethodEditInvalidatesExactlyItsEntryAndGroup) {
  TempCacheDir Dir("edit");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto ColdC = core::compileApp(App, Opts);
  ASSERT_TRUE(bool(ColdC)) << ColdC.message();
  const std::vector<cache::Digest> ColdDigests = contentDigests(*ColdC);
  auto Cold = core::linkApp(std::move(*ColdC), Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  ASSERT_GT(NumGroups, 1u);

  dex::App Edited = App;
  auto EditedIdx = churnOneMethod(Edited);
  ASSERT_TRUE(EditedIdx.has_value());

  // The edited app built with no cache is the byte-identity reference.
  auto NoCacheOpts = Opts;
  NoCacheOpts.CacheDir.clear();
  auto Ref = core::buildApp(Edited, NoCacheOpts);
  ASSERT_TRUE(bool(Ref)) << Ref.message();

  auto WarmC = core::compileApp(Edited, Opts);
  ASSERT_TRUE(bool(WarmC)) << WarmC.message();
  EXPECT_EQ(WarmC->Stats.CacheMisses, 1u);
  EXPECT_EQ(WarmC->Stats.CacheHits, App.numMethods() - 1);

  // The recompiled method's content really changed; everything else is
  // digest-identical to the cold build.
  const std::vector<cache::Digest> WarmDigests = contentDigests(*WarmC);
  ASSERT_EQ(WarmDigests.size(), ColdDigests.size());
  std::size_t Changed = 0;
  for (std::size_t I = 0; I < ColdDigests.size(); ++I) {
    if (WarmC->Methods[I].MethodIdx == *EditedIdx) {
      EXPECT_FALSE(WarmDigests[I] == ColdDigests[I]);
      ++Changed;
    } else {
      EXPECT_TRUE(WarmDigests[I] == ColdDigests[I]);
    }
  }
  EXPECT_EQ(Changed, 1u);

  // Exactly the edited method's partition group re-runs detection.
  auto Warm = core::linkApp(std::move(*WarmC), Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 1u);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups - 1);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Ref->Oat));
}

TEST(CacheWarm, CountersAreDeterministicForAnyThreadCount) {
  TempCacheDir Dir("threads");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::vector<uint8_t> ColdBytes = oat::serializeOat(Cold->Oat);

  std::optional<core::BuildStats> First;
  for (uint32_t Threads : {1u, 4u, 8u}) {
    auto T = Opts;
    T.CompileThreads = Threads;
    T.LtboThreads = Threads;
    auto Warm = core::buildApp(App, T);
    ASSERT_TRUE(bool(Warm)) << "threads " << Threads << ": " << Warm.message();
    EXPECT_EQ(oat::serializeOat(Warm->Oat), ColdBytes) << Threads;
    if (!First) {
      First = Warm->Stats;
      continue;
    }
    EXPECT_EQ(Warm->Stats.CacheHits, First->CacheHits) << Threads;
    EXPECT_EQ(Warm->Stats.CacheMisses, First->CacheMisses) << Threads;
    EXPECT_EQ(Warm->Stats.GroupsReused, First->GroupsReused) << Threads;
    EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, First->Ltbo.GroupsDetected)
        << Threads;
  }
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->CacheHits, App.numMethods());
  EXPECT_EQ(First->CacheMisses, 0u);
}

TEST(CacheDamage, CorruptAndTruncatedBlobsDegradeToMisses) {
  TempCacheDir Dir("damage");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  const std::vector<uint8_t> ColdBytes = oat::serializeOat(Cold->Oat);

  auto MethodBlobs = listBlobs(Dir.Path / "m");
  auto GroupBlobs = listBlobs(Dir.Path / "g");
  ASSERT_EQ(MethodBlobs.size(), App.numMethods());
  ASSERT_GT(GroupBlobs.size(), 0u);

  // Flip one payload byte in one method blob, truncate another to a stub,
  // and flip a byte in one group blob.
  flipByteInFile(MethodBlobs[0], fs::file_size(MethodBlobs[0]) / 2);
  fs::resize_file(MethodBlobs[1], fs::file_size(MethodBlobs[1]) / 2);
  flipByteInFile(GroupBlobs[0], fs::file_size(GroupBlobs[0]) / 2);

  // The audit sees exactly the damaged entries.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodCorrupt, 2u);
  EXPECT_EQ(A.GroupCorrupt, 1u);

  // The warm build treats all three as misses and still reproduces the
  // cold image bit for bit.
  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.CacheMisses, 2u);
  EXPECT_EQ(Warm->Stats.CacheHits, App.numMethods() - 2);
  EXPECT_GE(Warm->Stats.Ltbo.GroupsDetected, 1u);
  EXPECT_EQ(oat::serializeOat(Warm->Oat), ColdBytes);

  // The rebuild re-stored every damaged entry: the store is clean again.
  cache::CacheAudit After = (*Cache)->audit();
  EXPECT_EQ(After.MethodCorrupt, 0u);
  EXPECT_EQ(After.GroupCorrupt, 0u);
}

TEST(CacheDamage, FormatVersionMismatchPurgesTheStore) {
  TempCacheDir Dir("version");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  ASSERT_GT(listBlobs(Dir.Path / "m").size(), 0u);

  {
    std::ofstream V(Dir.Path / "VERSION", std::ios::trunc);
    V << "calibro-cache 999\n";
  }

  // Reopening a stale-format store discards every entry and restamps.
  auto Cache = cache::BuildCache::open(Dir.str());
  ASSERT_TRUE(bool(Cache)) << Cache.message();
  cache::CacheAudit A = (*Cache)->audit();
  EXPECT_EQ(A.MethodEntries, 0u);
  EXPECT_EQ(A.GroupEntries, 0u);

  auto Rebuild = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Rebuild)) << Rebuild.message();
  EXPECT_EQ(Rebuild->Stats.CacheHits, 0u);
  EXPECT_EQ(Rebuild->Stats.CacheMisses, App.numMethods());
  EXPECT_EQ(oat::serializeOat(Rebuild->Oat), oat::serializeOat(Cold->Oat));
}

//===----------------------------------------------------------------------===//
// The byte budget (the daemon's --cache-budget) and the repair rule
//===----------------------------------------------------------------------===//

namespace {

cache::GroupSelections testGroup(uint32_t Tag) {
  cache::GroupSelections G;
  G.Funcs.push_back({4, 100 + Tag, {Tag, Tag + 7, Tag + 19}});
  return G;
}

/// The on-disk size of one testGroup blob, measured on a throwaway store.
uint64_t groupBlobBytes() {
  TempCacheDir Dir("budget-probe");
  auto C = cache::BuildCache::open(Dir.str());
  EXPECT_TRUE(bool(C)) << C.message();
  (*C)->storeGroup({1, 1}, testGroup(1));
  return (*C)->stats().ResidentBytes;
}

} // namespace

TEST(CacheBudget, LruEvictionRespectsBudgetRecencyAndAuditStaysClean) {
  const uint64_t S = groupBlobBytes();
  ASSERT_GT(S, 0u);

  // Budget for two blobs (and change).
  TempCacheDir Dir("budget-lru");
  auto C = cache::BuildCache::open(Dir.str(), 2 * S + S / 2);
  ASSERT_TRUE(bool(C)) << C.message();

  cache::Digest D1{1, 0}, D2{2, 0}, D3{3, 0};
  (*C)->storeGroup(D1, testGroup(1));
  (*C)->storeGroup(D2, testGroup(2));
  EXPECT_EQ((*C)->stats().Evictions, 0u);

  // Touch D1 so D2 becomes the LRU victim of the next store.
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  (*C)->storeGroup(D3, testGroup(3));

  cache::CacheStats St = (*C)->stats();
  EXPECT_EQ(St.Evictions, 1u);
  EXPECT_EQ(St.EvictedBytes, S);
  EXPECT_LE(St.ResidentBytes, (*C)->budgetBytes());
  EXPECT_TRUE((*C)->loadGroup(D1).has_value());
  EXPECT_FALSE((*C)->loadGroup(D2).has_value()) << "victim was not the LRU";
  EXPECT_TRUE((*C)->loadGroup(D3).has_value());

  // Eviction removed the blob AND its index entry: the store audits clean.
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, 2u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_EQ(A.MethodCorrupt, 0u);
}

TEST(CacheBudget, AdoptionRebuildsIndexAndTrimsToTightenedBudget) {
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("budget-adopt");
  {
    auto C = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(C)) << C.message();
    for (uint32_t I = 0; I < 8; ++I)
      (*C)->storeGroup({I, 0}, testGroup(I));
    EXPECT_EQ((*C)->stats().ResidentEntries, 8u);
  }
  // A daemon restart reopens the fleet cache with a budget: the adopted
  // index must trim immediately, and what remains must audit clean.
  auto C = cache::BuildCache::open(Dir.str(), 4 * S);
  ASSERT_TRUE(bool(C)) << C.message();
  cache::CacheStats St = (*C)->stats();
  EXPECT_LE(St.ResidentBytes, 4 * S);
  EXPECT_LT(St.ResidentEntries, 8u);
  EXPECT_GT(St.ResidentEntries, 0u);
  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.GroupEntries, St.ResidentEntries);
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(CacheBudget, ConcurrentStoresAndLoadsKeepTheIndexEqualToTheDisk) {
  // Four writers over overlapping keys in a store that fits about three
  // blobs: every store evicts, and loads race the unlinks. A load that
  // loses the race is a miss; nothing may crash, and the index must end up
  // naming exactly the blobs on disk, within the budget.
  const uint64_t S = groupBlobBytes();
  TempCacheDir Dir("budget-race");
  auto C = cache::BuildCache::open(Dir.str(), 3 * S);
  ASSERT_TRUE(bool(C)) << C.message();
  const cache::BuildCache &Store = **C;
  std::vector<std::thread> Writers;
  for (uint32_t T = 0; T < 4; ++T)
    Writers.emplace_back([&Store, T] {
      for (uint32_t I = 0; I < 200; ++I) {
        uint32_t Key = (I * 7 + T) % 16;
        Store.storeGroup({Key, 0}, testGroup(Key));
        if (auto G = Store.loadGroup({(Key + 1) % 16, 0})) {
          EXPECT_EQ(G->Funcs.at(0).SeqLen, 4u);
        }
      }
    });
  for (auto &W : Writers)
    W.join();

  cache::CacheStats St = Store.stats();
  cache::CacheAudit A = Store.audit();
  EXPECT_GT(St.Evictions, 0u);
  EXPECT_LE(St.ResidentBytes, 3 * S);
  EXPECT_EQ(A.GroupEntries, St.ResidentEntries);
  EXPECT_EQ(A.TotalBytes, St.ResidentBytes);
  EXPECT_EQ(A.GroupCorrupt, 0u);
}

TEST(CacheDamage, CorruptBlobIsRewrittenByTheNextStore) {
  // The repair rule: a store always writes, so the miss that a corrupt
  // entry causes is followed by a store that replaces it. Run on a budgeted
  // store, where the damaged key is resident in the index.
  TempCacheDir Dir("repair");
  auto C = cache::BuildCache::open(Dir.str(), 1ull << 20);
  ASSERT_TRUE(bool(C)) << C.message();

  dex::App App = workload::makeApp(testSpec());
  core::CalibroOptions NoCache = cacheOpts("");
  auto Compiled = core::compileApp(App, NoCache);
  ASSERT_TRUE(bool(Compiled)) << Compiled.message();
  const codegen::CompiledMethod &M = Compiled->Methods.at(0);
  const cache::Digest MKey{11, 0}, GKey{12, 0};
  (*C)->storeMethod(MKey, M, 3);
  (*C)->storeGroup(GKey, testGroup(12));

  for (const std::string &P : {(*C)->methodPath(MKey), (*C)->groupPath(GKey)})
    flipByteInFile(P, fs::file_size(P) / 2);
  EXPECT_EQ((*C)->audit().MethodCorrupt, 1u);
  EXPECT_EQ((*C)->audit().GroupCorrupt, 1u);

  // Miss, store, hit.
  EXPECT_FALSE((*C)->loadMethod(MKey).has_value());
  EXPECT_FALSE((*C)->loadGroup(GKey).has_value());
  (*C)->storeMethod(MKey, M, 3);
  (*C)->storeGroup(GKey, testGroup(12));
  auto CM = (*C)->loadMethod(MKey);
  ASSERT_TRUE(CM.has_value()) << "the store did not rewrite the method blob";
  EXPECT_TRUE(CM->Method == M);
  EXPECT_EQ(CM->HirInsnsSimplified, 3u);
  auto G = (*C)->loadGroup(GKey);
  ASSERT_TRUE(G.has_value()) << "the store did not rewrite the group blob";
  EXPECT_EQ(G->Funcs.at(0).Positions, (std::vector<uint32_t>{12, 19, 31}));

  cache::CacheAudit A = (*C)->audit();
  EXPECT_EQ(A.MethodCorrupt, 0u);
  EXPECT_EQ(A.GroupCorrupt, 0u);
  EXPECT_EQ((*C)->stats().ResidentEntries, 2u);
}

TEST(CacheWarm, WindowedBuildStoresAndReplaysEveryGroup) {
  // A budget changes only how Phase B is scheduled, never what reaches the
  // cache: the cold windowed build stores every group it detects, the warm
  // windowed build replays all of them, and both images match the
  // unbudgeted build byte for byte.
  TempCacheDir Dir("windowed-cache");
  dex::App App = workload::makeApp(testSpec());
  auto Opts = cacheOpts(Dir.str());
  Opts.MemoryBudgetBytes = 1 << 14;

  auto Cold = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Cold)) << Cold.message();
  EXPECT_GT(Cold->Stats.Ltbo.DetectWindows, 1u);
  EXPECT_EQ(Cold->Stats.Ltbo.GroupsReused, 0u);
  const std::size_t NumGroups = Cold->Stats.Ltbo.GroupsDetected;
  EXPECT_EQ(NumGroups, Cold->Stats.Ltbo.PartitionsUsed);
  {
    auto Store = cache::BuildCache::open(Dir.str());
    ASSERT_TRUE(bool(Store)) << Store.message();
    EXPECT_EQ((*Store)->audit().GroupEntries, NumGroups);
  }

  auto Warm = core::buildApp(App, Opts);
  ASSERT_TRUE(bool(Warm)) << Warm.message();
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsReused, NumGroups);
  EXPECT_EQ(Warm->Stats.Ltbo.GroupsDetected, 0u);

  core::CalibroOptions Mono = cacheOpts("");
  Mono.CacheDir.clear();
  auto Unbudgeted = core::buildApp(App, Mono);
  ASSERT_TRUE(bool(Unbudgeted)) << Unbudgeted.message();
  EXPECT_EQ(oat::serializeOat(Cold->Oat), oat::serializeOat(Unbudgeted->Oat));
  EXPECT_EQ(oat::serializeOat(Warm->Oat), oat::serializeOat(Unbudgeted->Oat));
}
