#ifndef COLOSSAL_SERVICE_RESULT_CACHE_H_
#define COLOSSAL_SERVICE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/colossal_miner.h"
#include "obs/metrics.h"
#include "service/request.h"

namespace colossal {

struct ResultCacheOptions {
  // Maximum cached results; least-recently-used beyond that. 0 disables
  // caching entirely (every Get misses, Put is a no-op).
  int64_t max_entries = 256;
  // Registry the cache's colossal_result_cache_* metrics live in; the
  // cache owns a private one when null.
  MetricsRegistry* metrics = nullptr;
};

struct ResultCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t evictions = 0;
  int64_t entries = 0;
};

// LRU cache of finished mining results, keyed by (dataset fingerprint,
// canonical options hash). Pattern-Fusion is deterministic given
// (dataset, canonical options), so a hit is byte-identical to a fresh
// run. Entries store the canonical options and verify them on lookup,
// so a 64-bit hash collision degrades to a miss, never a wrong answer.
// Thread-safe; results are shared immutably (shared_ptr), so eviction
// never invalidates a response already handed out.
class ResultCache {
 public:
  explicit ResultCache(const ResultCacheOptions& options = {});

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Returns the cached result for (key, canonical options), or null on a
  // miss. A hit refreshes the entry's LRU position. `count` false skips
  // the hit/miss counters: a second look by a caller whose first Get
  // already counted, so one request never counts twice.
  std::shared_ptr<const ColossalMiningResult> Get(
      const ResultCacheKey& key, const ColossalMinerOptions& canonical,
      bool count = true);

  // Inserts (or refreshes) an entry. `canonical` must be the canonical
  // options the key's options_hash was computed from.
  void Put(const ResultCacheKey& key, const ColossalMinerOptions& canonical,
           std::shared_ptr<const ColossalMiningResult> result);

  // Snapshot of the cache's registry metrics. Counters are atomic, so
  // the snapshot is per-field consistent even while workers mine.
  ResultCacheStats stats() const;

 private:
  struct Entry {
    ColossalMinerOptions canonical;
    std::shared_ptr<const ColossalMiningResult> result;
    std::list<ResultCacheKey>::iterator lru_position;
  };

  const ResultCacheOptions options_;
  std::unique_ptr<MetricsRegistry> owned_metrics_;  // when options.metrics null
  Counter* hits_;
  Counter* misses_;
  Counter* evictions_;
  Gauge* entries_gauge_;
  mutable std::mutex mutex_;
  std::unordered_map<ResultCacheKey, Entry, ResultCacheKeyHash> entries_;
  std::list<ResultCacheKey> lru_;  // MRU first
};

}  // namespace colossal

#endif  // COLOSSAL_SERVICE_RESULT_CACHE_H_
