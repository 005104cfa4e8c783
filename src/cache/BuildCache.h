//===- cache/BuildCache.h - On-disk incremental build cache -----*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, versioned, content-addressed store that makes rebuild cost
/// proportional to the size of the change instead of the size of the app
/// (the incremental-build discipline of BOLT-style post-link optimizers).
/// Two entry kinds live under the cache directory:
///
///   <dir>/VERSION          format stamp; a mismatch empties the cache
///   <dir>/m/<h>/<key>.bin  compiled-method blob, keyed by the SOURCE
///                          digest of the dex method
///                          (cache::methodSourceKey) — a hit skips HIR
///                          construction and codegen entirely
///   <dir>/g/<h>/<key>.bin  canonical LTBO candidate selection of one
///                          partition group, keyed by the digest of the
///                          group's member CONTENT digests — a hit skips
///                          suffix-structure construction and detection
///
/// <h> is the key's first hex digit. The 16-way fan-out keeps concurrent
/// writers (the daemon's jobs, the compile-phase pool) from queueing on one
/// directory's lock: on ext4 a cold daemon pass of table8 ran 2.5x slower
/// with every blob in one directory.
///
/// Correctness stance: the cache is an accelerator, never an authority.
/// Every blob carries a magic, the format version, and a trailing content
/// checksum; loads are bounds-checked, method blobs flow through
/// SideInfoValidator, and ANY anomaly — truncation, corruption, version
/// skew, validation failure — degrades to a miss so the cold path
/// recomputes. A corrupt cache can cost time; it can never crash the build
/// or change its output (verify::FaultInjector's cache-mutation kinds
/// enforce exactly this).
///
/// Writes go to a unique temp file followed by an atomic rename, so
/// concurrent builders (and the compile-phase thread pool) never observe a
/// half-written entry. A store always writes, even when the key is already
/// on disk: that is what rewrites a corrupt entry on the next miss.
///
/// One store serves calibro-dex2oat and the compile daemon alike. Opened
/// with a byte budget, it also keeps a resident index (adopted from the
/// directory at open) and evicts least-recently-touched entries until the
/// store fits the budget again. Eviction only unlinks: a load maps its
/// blob before decoding, so an unlink after the map cannot hurt the read,
/// and one before it is an ordinary miss.
///
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_BUILDCACHE_H
#define CALIBRO_CACHE_BUILDCACHE_H

#include "cache/Digest.h"
#include "codegen/CompiledMethod.h"
#include "support/Error.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace calibro {
namespace cache {

/// Version of every on-disk encoding this subsystem owns (blob layouts,
/// digest recipes, the VERSION stamp). Bump on any change; old caches are
/// then discarded wholesale rather than misread.
inline constexpr uint32_t CacheFormatVersion = 2;

/// A compiled-method blob recovered from the store.
struct CachedMethod {
  codegen::CompiledMethod Method;
  /// HIR simplification count of the original compile, preserved so warm
  /// BuildStats match cold ones.
  uint32_t HirInsnsSimplified = 0;
};

/// One cached candidate of a group's canonical selection, in
/// selection-emission order (the order OutlinedFunc ids are assigned in).
struct CachedSelection {
  uint32_t SeqLen = 0;                 ///< Sequence length in instructions.
  uint64_t Benefit = 0;                ///< Benefit recorded at selection.
  std::vector<uint32_t> Positions;     ///< Claimed text positions, ascending.
};

/// The canonical selection of one partition group.
struct GroupSelections {
  std::vector<CachedSelection> Funcs;
};

/// Aggregate health report of a cache directory (calibro-oatdump
/// --cache-audit).
struct CacheAudit {
  uint64_t MethodEntries = 0;
  uint64_t MethodCorrupt = 0;
  uint64_t GroupEntries = 0;
  uint64_t GroupCorrupt = 0;
  uint64_t TotalBytes = 0;
  /// False when VERSION is missing or names another format; every entry is
  /// then counted corrupt, since this build cannot read any of them.
  bool Stamped = true;
};

/// Counters of one open store. Hits and misses count every probe; the
/// eviction and residency counters are kept only by a budgeted store, and
/// an unbudgeted one reports residency from a directory walk.
struct CacheStats {
  uint64_t MethodHits = 0;
  uint64_t MethodMisses = 0;
  uint64_t GroupHits = 0;
  uint64_t GroupMisses = 0;
  uint64_t Evictions = 0;
  uint64_t EvictedBytes = 0;
  /// Blob bytes in the store right now.
  uint64_t ResidentBytes = 0;
  /// Blob entries in the store right now.
  uint64_t ResidentEntries = 0;
};

/// Handle to one cache directory. Thread-safe: loads touch only immutable
/// renamed files, stores are temp-file + atomic-rename, and a budgeted
/// store's resident index sits behind one mutex.
///
/// The entry operations are virtual so drop-in wrappers (a timing wrapper
/// in perfbench/) can stand in anywhere a BuildCache flows: compile-stage
/// method probes, LTBO group store and replay.
class BuildCache {
public:
  /// Opens (creating if needed) the store at \p Dir. A missing or
  /// mismatched VERSION stamp empties the store and restamps it. Fails only
  /// when the directory cannot be created or written.
  ///
  /// \p BudgetBytes caps the summed blob bytes (0 = unbounded). A budgeted
  /// store adopts the directory's entries into its resident index in sorted
  /// key order, so the first recency ranking is deterministic, and trims to
  /// the budget before returning. An unbudgeted store does not scan.
  static Expected<std::unique_ptr<BuildCache>> open(const std::string &Dir,
                                                    uint64_t BudgetBytes = 0);

  /// Scans every entry under \p Dir, validating each blob end to end.
  /// Read-only: creates, purges and stamps nothing, so a store stamped by
  /// another format survives its audit (reported as !Stamped).
  static CacheAudit auditDir(const std::string &Dir);

  virtual ~BuildCache();

  const std::string &dir() const { return Root; }

  /// Loads the compiled-method blob keyed by \p Key. Returns nullopt on
  /// miss OR on any validation failure (corrupt, truncated, version-skewed,
  /// side info rejected by SideInfoValidator) — callers recompute.
  virtual std::optional<CachedMethod> loadMethod(const Digest &Key) const;

  /// Stores \p M (with its \p HirInsnsSimplified count) under \p Key.
  /// Best-effort: I/O failure is swallowed (the cache just stays cold).
  virtual void storeMethod(const Digest &Key, const codegen::CompiledMethod &M,
                           uint32_t HirInsnsSimplified) const;

  /// Loads a group-selection blob. Structural validation only — the
  /// outliner re-validates every position against the live text before
  /// replaying (and falls back to detection on any violation).
  virtual std::optional<GroupSelections> loadGroup(const Digest &Key) const;

  /// Stores a group's canonical selection under \p Key. Best-effort.
  virtual void storeGroup(const Digest &Key, const GroupSelections &G) const;

  /// auditDir() of this store.
  virtual CacheAudit audit() const;

  /// Counter snapshot (monotonic counters + current residency).
  CacheStats stats() const;

  uint64_t budgetBytes() const { return Budget; }

  /// On-disk path of the method / group blob for \p Key (whether or not an
  /// entry exists). Public so tests can stat and damage entries without
  /// re-deriving the layout.
  std::string methodPath(const Digest &Key) const;
  std::string groupPath(const Digest &Key) const;

protected:
  explicit BuildCache(std::string Root);

private:
  struct ResidentIndex;

  /// Counts a probe and, on a hit in a budgeted store, refreshes the
  /// entry's recency.
  void touch(char Kind, const Digest &Key, bool Hit) const;

  /// Enters a just-written blob into the resident index and evicts until
  /// the store fits its budget. No-op for an unbudgeted store.
  void recordStore(char Kind, const Digest &Key) const;

  std::string Root;
  uint64_t Budget = 0;
  /// Present only when Budget != 0.
  std::unique_ptr<ResidentIndex> Index;
  mutable std::atomic<uint64_t> MethodHits{0}, MethodMisses{0};
  mutable std::atomic<uint64_t> GroupHits{0}, GroupMisses{0};
};

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_BUILDCACHE_H
