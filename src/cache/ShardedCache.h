//===- cache/ShardedCache.h - Compatibility shim over BuildCache -*- C++ -*-===//
//
// Part of the Calibro project.
//
//===----------------------------------------------------------------------===//

#ifndef CALIBRO_CACHE_SHARDEDCACHE_H
#define CALIBRO_CACHE_SHARDEDCACHE_H

#include "cache/BuildCache.h"

namespace calibro {
namespace cache {

// Kept only because perfbench/ uses it; the one store is BuildCache.
struct ShardedBuildCache {
  static Expected<std::unique_ptr<BuildCache>>
  open(const std::string &Dir, uint32_t /*Shards*/, uint64_t BudgetBytes = 0) {
    return BuildCache::open(Dir, BudgetBytes);
  }
};
using ShardedCacheStats = CacheStats;

} // namespace cache
} // namespace calibro

#endif // CALIBRO_CACHE_SHARDEDCACHE_H
