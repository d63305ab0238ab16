// The traced run: replays the workload's requests in this process by
// calling each module's public functions in pipeline order, with spans
// recorded around every call, then probes the layers the replay does
// not isolate (kernels, ball queries, the service, the transports).
// Spans live in memory; the per-layer metrics are computed from them
// when the run ends. Nothing inside the library is instrumented.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <random>
#include <thread>

#include "common/bitvector.h"
#include "core/colossal_miner.h"
#include "core/pattern_distance.h"
#include "core/pattern_fusion.h"
#include "data/snapshot_io.h"
#include "driver.h"
#include "net/http_server.h"
#include "net/tcp_server.h"
#include "obs/trace.h"
#include "service/dispatch.h"
#include "service/mining_service.h"
#include "service/request.h"
#include "shard/shard_manifest.h"
#include "shard/sharded_miner.h"

namespace perfbench {

using colossal::Pattern;
using colossal::Status;
using colossal::StatusOr;
using colossal::TransactionDatabase;

namespace {

// The bound obs.unaccounted_pct is checked against: child spans must
// cover all but this share of the replayed requests' time.
constexpr double kUnaccountedBoundPct = 5.0;

struct Span {
  const char* name;
  int64_t start = 0, end = 0;
  int parent = -1;
  int64_t request = 0;
};

// In-memory span store. Disabled, it records nothing, so the same
// replay code runs traced and untraced.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  int Begin(const char* name, int parent, int64_t request) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = now;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, int64_t request)
      : tracer_(tracer), id_(tracer.Begin(name, parent, request)) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void End() {
    tracer_.End(id_);
    id_ = -1;
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// Every dataset the run touches, loaded once before anything is timed
// (the data layer has its own probe).
struct Data {
  std::map<std::string, std::shared_ptr<const TransactionDatabase>> dbs;
  std::map<std::string, colossal::ShardManifest> manifests;

  Status Add(const std::string& path) {
    if (dbs.count(path) > 0 || manifests.count(path) > 0) return Status::Ok();
    if (colossal::IsShardManifestFile(path)) {
      StatusOr<colossal::ShardManifest> manifest =
          colossal::ReadShardManifestFile(path);
      if (!manifest.ok()) return manifest.status();
      for (const colossal::ShardInfo& shard : manifest->shards) {
        Status added = Add(shard.path);
        if (!added.ok()) return added;
      }
      manifests[path] = *std::move(manifest);
      return Status::Ok();
    }
    StatusOr<TransactionDatabase> db = colossal::LoadDatabaseFile(path, "auto");
    if (!db.ok()) return db.status();
    dbs[path] =
        std::make_shared<const TransactionDatabase>(*std::move(db));
    return Status::Ok();
  }
};

// What one replayed cold request produced.
struct Mined {
  std::string payload;
  int64_t pool_patterns = 0;
  int iterations = 0;
  double pool_ms = -1, fusion_ms = -1;  // span-free timings (ms)
  double shard_ms = -1, phase1_ms = -1, stitch_ms = -1;
  int fanout = 0;
};

// ShardedMiner over preloaded shards; the pin's deleter tracks how
// many shards are held at once, which is the fan-out actually reached.
StatusOr<colossal::ColossalMiningResult> MineSharded(
    const Data& data, const colossal::ShardManifest& manifest,
    const colossal::ColossalMinerOptions& options, int64_t budget,
    colossal::RequestTrace* trace, int* fanout, Tracer& tracer, int parent,
    int64_t request) {
  auto active = std::make_shared<std::atomic<int>>(0);
  auto peak = std::make_shared<std::atomic<int>>(0);
  colossal::ShardResidencyOptions residency;
  residency.budget_bytes = budget;
  residency.trace = trace;
  colossal::ShardedMiner miner(
      manifest,
      [&data, active, peak, &tracer, parent, request](
          const std::string& path,
          int64_t) -> StatusOr<colossal::LoadedShard> {
        ScopedSpan span(tracer, "shard.get", parent, request);
        auto it = data.dbs.find(path);
        if (it == data.dbs.end()) return Status::NotFound(path);
        const int now = ++*active;
        int seen = peak->load();
        while (now > seen && !peak->compare_exchange_weak(seen, now)) {
        }
        std::shared_ptr<void> pin(nullptr, [active](void*) { --*active; });
        return colossal::LoadedShard{it->second,
                                     colossal::FingerprintDatabase(*it->second),
                                     pin};
      },
      residency);
  StatusOr<colossal::ColossalMiningResult> result =
      miner.Mine(options, colossal::ShardMergeMode::kExact);
  *fanout = peak->load();
  return result;
}

class Replayer {
 public:
  Replayer(const Workload& workload, Data& data, colossal::MiningService& service)
      : workload_(workload), data_(data), service_(service) {}

  // One request in pipeline order under a root span. Cold lines mine
  // through the library; hot lines are cache hits on `service_`.
  StatusOr<Mined> Run(const Op& op, Tracer& tracer, int64_t request,
                      std::vector<Pattern>* capture_pool) {
    ScopedSpan root(tracer, "request", -1, request);
    Mined out;
    colossal::MineRequest request_model;
    colossal::ColossalMinerOptions exec;
    const TransactionDatabase* db = nullptr;
    const colossal::ShardManifest* manifest = nullptr;
    {
      ScopedSpan span(tracer, "service.parse", root.id(), request);
      StatusOr<colossal::MineRequest> parsed =
          colossal::ParseRequestLine(op.line);
      if (!parsed.ok()) return parsed.status();
      request_model = *std::move(parsed);
      auto db_it = data_.dbs.find(request_model.dataset_path);
      auto manifest_it = data_.manifests.find(request_model.dataset_path);
      if (db_it != data_.dbs.end()) db = db_it->second.get();
      if (manifest_it != data_.manifests.end()) manifest = &manifest_it->second;
      if (db == nullptr && manifest == nullptr) {
        return Status::NotFound(request_model.dataset_path);
      }
      StatusOr<colossal::CanonicalRequest> canonical =
          colossal::CanonicalizeRequestForSize(
              db != nullptr ? db->num_transactions()
                            : manifest->num_transactions,
              request_model.options);
      if (!canonical.ok()) return canonical.status();
      exec = canonical->options;
      // The server's per-request thread count: the request's, else the
      // service default of 1.
      exec.num_threads =
          request_model.options.num_threads > 0 ? request_model.options.num_threads : 1;
      exec.shard_parallelism = request_model.options.shard_parallelism;
    }
    colossal::MiningResponse response;
    if (!op.cold) {
      ScopedSpan span(tracer, "service.hit", root.id(), request);
      response = service_.Mine(request_model);
      if (!response.status.ok()) return response.status;
      if (response.source != colossal::ResponseSource::kCache) {
        return Status::Internal("hot key was not a cache hit: " + op.line);
      }
    } else if (db != nullptr) {
      int64_t t0 = NowNs();
      StatusOr<std::vector<Pattern>> pool = [&] {
        ScopedSpan span(tracer, "mining.pool_build", root.id(), request);
        StatusOr<std::vector<Pattern>> built = colossal::BuildInitialPool(
            *db, exec.min_support_count, exec.initial_pool_max_size,
            exec.pool_miner, exec.num_threads, nullptr, exec.constraints);
        out.pool_ms = static_cast<double>(NowNs() - t0) / 1e6;
        if (built.ok() && capture_pool != nullptr) *capture_pool = *built;
        return built;
      }();
      if (!pool.ok()) return pool.status();
      out.pool_patterns = static_cast<int64_t>(pool->size());
      t0 = NowNs();
      StatusOr<colossal::ColossalMiningResult> result = [&] {
        ScopedSpan span(tracer, "core.fusion", root.id(), request);
        return colossal::FuseColossalFromPool(db->num_transactions(),
                                              *std::move(pool), exec);
      }();
      if (!result.ok()) return result.status();
      out.fusion_ms = static_cast<double>(NowNs() - t0) / 1e6;
      out.iterations = result->iterations;
      response.result = std::make_shared<const colossal::ColossalMiningResult>(
          *std::move(result));
    } else {
      colossal::RequestTrace trace;
      const int64_t t0 = NowNs();
      ScopedSpan span(tracer, "shard.mine", root.id(), request);
      StatusOr<colossal::ColossalMiningResult> result =
          MineSharded(data_, *manifest, exec, workload_.registry_budget_bytes(),
                      &trace, &out.fanout, tracer, span.id(), request);
      span.End();
      if (!result.ok()) return result.status();
      out.shard_ms = static_cast<double>(NowNs() - t0) / 1e6;
      out.phase1_ms = trace.nanos(colossal::TracePhase::kPoolMine) / 1e6;
      out.stitch_ms = trace.nanos(colossal::TracePhase::kStitch) / 1e6;
      out.fusion_ms = trace.nanos(colossal::TracePhase::kFusion) / 1e6;
      out.pool_patterns = result->initial_pool_size;
      out.iterations = result->iterations;
      response.result = std::make_shared<const colossal::ColossalMiningResult>(
          *std::move(result));
    }
    ScopedSpan span(tracer, "service.serialize", root.id(), request);
    out.payload = colossal::RenderPatternsPayload(response);
    return out;
  }

 private:
  const Workload& workload_;
  Data& data_;
  colossal::MiningService& service_;
};

// Request time its direct child spans leave uncovered, summed over
// every request span, as a share of the summed request time. Weighting
// by time keeps a single preempted microsecond-scale hit from reading
// as a gap in the pipeline.
double UnaccountedShare(const std::vector<Span>& spans) {
  std::map<int, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& span : spans) {
    if (span.parent >= 0) children[span.parent].push_back({span.start, span.end});
  }
  int64_t total = 0, uncovered = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[static_cast<int>(i)];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, reach = spans[i].start;
    for (const auto& [begin, end] : kids) {
      const int64_t from = std::max(begin, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    total += spans[i].end - spans[i].start;
    uncovered += spans[i].end - spans[i].start - covered;
  }
  return total > 0 ? static_cast<double>(uncovered) / static_cast<double>(total)
                   : 0.0;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    json_.Raw(name, JsonObject().Num("value", value).Str("unit", unit).str());
  }
  std::string str() const { return json_.str(); }

 private:
  JsonObject json_;
};

template <typename F>
double TimeUs(int reps, F&& body) {
  const int64_t t0 = NowNs();
  for (int i = 0; i < reps; ++i) body();
  return static_cast<double>(NowNs() - t0) / 1e3 / reps;
}

}  // namespace

int RunTraced(const Workload& workload, double seconds) {
  Status generated = workload.Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "traced: %s\n", generated.ToString().c_str());
    return 1;
  }
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  int64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& what) {
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  };
  Metrics metrics;

  // --- data: every file the workload's server loads -------------------------
  Data data;
  std::vector<std::string> files;
  for (const DatasetFile& file : workload.datasets()) {
    if (file.sharded) {
      StatusOr<colossal::ShardManifest> manifest =
          colossal::ReadShardManifestFile(file.path);
      if (!manifest.ok()) return 1;
      for (const colossal::ShardInfo& shard : manifest->shards) {
        files.push_back(shard.path);
      }
    } else {
      files.push_back(file.path);
    }
  }
  std::vector<double> load_ms, load_bytes;
  for (const std::string& path : files) {
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
      const int64_t t0 = NowNs();
      StatusOr<TransactionDatabase> db = colossal::LoadDatabaseFile(path, "auto");
      reps.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (!db.ok()) {
        fail("load " + path + ": " + db.status().ToString());
        break;
      }
    }
    load_ms.push_back(Median(reps));
    load_bytes.push_back(static_cast<double>(std::filesystem::file_size(path)));
  }
  metrics.Add("data.load_ms", Mean(load_ms), "ms");
  metrics.Add("data.bytes", Mean(load_bytes), "bytes");
  for (const DatasetFile& file : workload.datasets()) {
    Status added = data.Add(file.path);
    if (added.ok()) added = data.Add(file.parent_path);
    if (!added.ok()) {
      std::fprintf(stderr, "traced: %s\n", added.ToString().c_str());
      return 1;
    }
  }
  if (!data.Add(workload.shard_twin()).ok()) return 1;

  // The in-process service, configured like the workload's server.
  colossal::MiningServiceOptions service_options;
  service_options.registry.memory_budget_bytes = workload.registry_budget_bytes();
  colossal::MiningService service(service_options);
  std::vector<std::string> hot_payloads;
  for (const std::string& line : workload.hot_lines()) {
    StatusOr<colossal::MineRequest> request = colossal::ParseRequestLine(line);
    colossal::MiningResponse response = service.Mine(*request);
    if (!response.status.ok()) {
      fail("hot key: " + response.status.ToString());
      hot_payloads.push_back("");
      continue;
    }
    hot_payloads.push_back(colossal::RenderPatternsPayload(response));
  }

  // --- the replay: untraced and traced passes over the same ops -------------
  Replayer replayer(workload, data, service);
  Tracer traced(true);
  std::vector<Pattern> pool;  // the first cold request's initial pool
  std::string first_line, first_payload;
  std::vector<double> pool_ms, fusion_ms, iterations, pool_patterns, shard_ms,
      phase1_ms, stitch_ms, fanout;
  double untraced_ns = 0, traced_ns = 0;
  // Ops in the order the wire run interleaves its connections, in
  // batches of about 1% of a hot_mixed connection's stream.
  const int batch_ops = workload.cold_only() ? 1 : 100;
  std::vector<int64_t> next(static_cast<size_t>(workload.connections()), 0);
  const int64_t replay_end = NowNs() + static_cast<int64_t>(seconds * 0.5e9);
  int64_t request_id = 0;
  {
    // Lazy set-up (thread pools, allocator arenas) before any timing.
    Op primer;
    primer.line = workload.PrimerLine(0);
    Tracer off(false);
    if (!replayer.Run(primer, off, 0, nullptr).ok()) fail("primer failed");
  }
  for (int batch = 0; batch < 2 || NowNs() < replay_end; ++batch) {
    std::vector<Op> ops;
    for (int c = 0; c < workload.connections(); ++c) {
      for (int k = 0; k < batch_ops; ++k) ops.push_back(workload.NextOp(c, next[c]++));
    }
    // The untraced pass runs first on even batches and second on odd
    // ones, so warm-up and drift fall on both sides alike.
    std::vector<std::string> untraced_payloads;
    const auto untraced_pass = [&] {
      Tracer off(false);
      const int64_t t0 = NowNs();
      for (const Op& op : ops) {
        StatusOr<Mined> mined = replayer.Run(op, off, 0, nullptr);
        untraced_payloads.push_back(mined.ok() ? mined->payload : "");
      }
      untraced_ns += static_cast<double>(NowNs() - t0);
    };
    if (batch % 2 == 0) untraced_pass();
    const int64_t t0 = NowNs();
    std::vector<std::string> traced_payloads;
    for (const Op& op : ops) {
      ++attempted;
      const bool capture = op.cold && first_line.empty();
      StatusOr<Mined> mined =
          replayer.Run(op, traced, ++request_id, capture ? &pool : nullptr);
      if (!mined.ok()) {
        fail(op.line + ": " + mined.status().ToString());
        continue;
      }
      traced_payloads.push_back(mined->payload);
      if (!op.cold) {
        const size_t h = static_cast<size_t>(std::atoi(op.key.c_str() + 1));
        if (mined->payload != hot_payloads[h]) fail("hit differs: " + op.line);
        continue;
      }
      if (capture) {
        first_line = op.line;
        first_payload = mined->payload;
      }
      if (mined->pool_ms >= 0) pool_ms.push_back(mined->pool_ms);
      fusion_ms.push_back(mined->fusion_ms);
      iterations.push_back(mined->iterations);
      pool_patterns.push_back(static_cast<double>(mined->pool_patterns));
      if (mined->shard_ms >= 0) {
        shard_ms.push_back(mined->shard_ms);
        phase1_ms.push_back(mined->phase1_ms);
        stitch_ms.push_back(mined->stitch_ms);
        fanout.push_back(mined->fanout);
      }
    }
    traced_ns += static_cast<double>(NowNs() - t0);
    if (batch % 2 == 1) untraced_pass();
    if (traced_payloads != untraced_payloads) {
      fail("traced and untraced replays differ");
    }
  }

  // The replay pipeline must equal the library's one-call pipeline.
  Oracle oracle(workload, nproc);
  {
    ++attempted;
    StatusOr<Oracle::Answer> answer = oracle.Mine(first_line);
    if (!answer.ok() || answer->payload != first_payload) {
      fail("replayed mine differs from MineColossal: " + first_line);
    }
  }
  StatusOr<colossal::MineRequest> first_request =
      colossal::ParseRequestLine(first_line);
  if (!first_request.ok()) return 1;
  const std::string parent = workload.ParentOf(first_request->dataset_path);
  const TransactionDatabase& parent_db = *data.dbs.at(parent);
  StatusOr<colossal::ColossalMinerOptions> canonical =
      colossal::CanonicalizeMinerOptions(parent_db, first_request->options);
  if (!canonical.ok()) return 1;

  // --- mining: the pool build over the (parent) dataset ---------------------
  if (pool_ms.empty()) {  // sharded: the pool is built inside phase 1
    for (int r = 0; r < 3; ++r) {
      const int64_t t0 = NowNs();
      StatusOr<std::vector<Pattern>> built = colossal::BuildInitialPool(
          parent_db, canonical->min_support_count,
          canonical->initial_pool_max_size, canonical->pool_miner,
          first_request->options.num_threads, nullptr, canonical->constraints);
      pool_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (!built.ok()) return 1;
      if (pool.empty()) pool = *std::move(built);
    }
  }
  metrics.Add("mining.pool_build_ms", Median(pool_ms), "ms");
  metrics.Add("mining.pool_patterns", Mean(pool_patterns), "count");
  metrics.Add("core.fusion_ms", Median(fusion_ms), "ms");
  metrics.Add("core.fusion_iterations", Mean(iterations), "count");

  // --- core: ball queries and single fusions over the captured pool ---------
  {
    const double radius = colossal::BallRadius(canonical->tau);
    std::mt19937_64 rng(workload.seed());
    std::vector<double> ball_us, ball_sizes, fuse_us;
    int64_t merged = 0, offered = 0;
    for (int j = 0; j < 24; ++j) {
      const int64_t center = static_cast<int64_t>(rng() % pool.size());
      const int64_t t0 = NowNs();
      std::vector<int64_t> ball =
          colossal::BallQuery(pool, pool[static_cast<size_t>(center)], radius);
      ball_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      ball_sizes.push_back(static_cast<double>(ball.size()));
      if (j >= 12) continue;
      std::shuffle(ball.begin(), ball.end(), rng);
      const int64_t t1 = NowNs();
      colossal::FusionOutcome outcome = colossal::FuseOnce(
          pool, ball, center, canonical->min_support_count, canonical->tau, 0,
          nullptr, canonical->constraints.max_len);
      fuse_us.push_back(static_cast<double>(NowNs() - t1) / 1e3);
      merged += outcome.merged_count;
      offered += static_cast<int64_t>(ball.size());
    }
    metrics.Add("core.ball_query_us", Median(ball_us), "us");
    metrics.Add("core.ball_size_mean", Mean(ball_sizes), "count");
    metrics.Add("core.fuse_once_us", Median(fuse_us), "us");
    metrics.Add("core.merge_accept_ratio",
                offered > 0 ? static_cast<double>(merged) / offered : 0, "ratio");
  }

  // --- common: AndCount at the workload's row width -------------------------
  {
    const int64_t words = (pool[0].support_set.size_bits() + 63) / 64;
    const size_t pairs = std::min<size_t>(pool.size(), 64);
    int64_t sink = 0;
    const int reps = static_cast<int>(std::max<int64_t>(2000, 2000000 / words));
    std::vector<double> ns;
    for (int trial = 0; trial < 5; ++trial) {
      const int64_t t0 = NowNs();
      for (int r = 0; r < reps; ++r) {
        const size_t i = static_cast<size_t>(r) % pairs;
        sink += colossal::Bitvector::AndCount(pool[i].support_set,
                                              pool[pairs - 1 - i].support_set);
      }
      ns.push_back(static_cast<double>(NowNs() - t0) / reps);
    }
    if (sink < 0) std::fprintf(stderr, "%lld\n", static_cast<long long>(sink));
    metrics.Add("common.and_count_ns", Median(ns), "ns");
    // One AND and one popcount per 64-bit word; both operands are read.
    metrics.Add("common.and_count_words", static_cast<double>(words), "count");
    metrics.Add("common.and_count_bytes", static_cast<double>(2 * 8 * words),
                "bytes");
  }

  // --- shard: the sharded workload's own replay, or a sharded twin ----------
  if (shard_ms.empty()) {
    const std::string probe_line =
        workload.cold_only() ? first_line : workload.hot_lines().back();
    StatusOr<colossal::MineRequest> request =
        colossal::ParseRequestLine(probe_line);
    const colossal::ShardManifest& manifest = data.manifests.at(workload.shard_twin());
    StatusOr<colossal::ColossalMinerOptions> options =
        colossal::CanonicalizeMinerOptionsForSize(manifest.num_transactions,
                                                  request->options);
    if (!options.ok()) return 1;
    options->num_threads = request->options.num_threads;
    options->shard_parallelism = 2;
    colossal::RequestTrace trace;
    int reached = 0;
    Tracer off(false);
    ++attempted;
    const int64_t t0 = NowNs();
    StatusOr<colossal::ColossalMiningResult> result =
        MineSharded(data, manifest, *options, 0, &trace, &reached, off, -1, 0);
    shard_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    phase1_ms.push_back(trace.nanos(colossal::TracePhase::kPoolMine) / 1e6);
    stitch_ms.push_back(trace.nanos(colossal::TracePhase::kStitch) / 1e6);
    fanout.push_back(reached);
    colossal::MiningResponse response;
    if (result.ok()) {
      response.result = std::make_shared<const colossal::ColossalMiningResult>(
          *std::move(result));
    }
    const std::string expected =
        workload.cold_only() ? first_payload : hot_payloads.back();
    if (colossal::RenderPatternsPayload(response) != expected) {
      fail("sharded twin differs from the unsharded answer: " + probe_line);
    }
  }
  metrics.Add("shard.mine_ms", Median(shard_ms), "ms");
  metrics.Add("shard.phase1_ms", Median(phase1_ms), "ms");
  metrics.Add("shard.stitch_ms", Median(stitch_ms), "ms");
  metrics.Add("shard.fanout", Mean(fanout), "count");

  // --- service: the workload's mix through the in-process service -----------
  {
    const colossal::ResultCacheStats cache_before = service.cache_stats();
    const colossal::DatasetRegistryStats registry_before =
        service.registry_stats();
    std::atomic<int64_t> mined{0}, coalesced{0}, completed{0}, rejected{0};
    std::atomic<int64_t> service_failed{0};
    const int ops_per_conn = workload.cold_only() ? 2 : 300;
    std::vector<std::thread> threads;
    for (int c = 0; c < workload.connections(); ++c) {
      threads.emplace_back([&, c] {
        // Continue each connection's stream past the replayed ops, so
        // the cold keys are fresh here too.
        for (int64_t i = next[c]; i < next[c] + ops_per_conn; ++i) {
          const Op op = workload.NextOp(c, i);
          StatusOr<colossal::MineRequest> request =
              colossal::ParseRequestLine(op.line);
          if (!request.ok()) {
            ++service_failed;
            continue;
          }
          colossal::MiningResponse response = service.Mine(*request);
          ++completed;
          if (response.status.code() ==
              colossal::StatusCode::kResourceExhausted) {
            ++rejected;
          } else if (!response.status.ok()) {
            ++service_failed;
          }
          if (response.source == colossal::ResponseSource::kMined) ++mined;
          if (response.source == colossal::ResponseSource::kCoalesced) {
            ++coalesced;
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    attempted += completed.load();
    if (service_failed > 0) fail("in-process service requests failed");
    const colossal::ResultCacheStats cache = service.cache_stats();
    const colossal::DatasetRegistryStats registry = service.registry_stats();
    const int64_t hits = cache.hits - cache_before.hits;
    const int64_t misses = cache.misses - cache_before.misses;
    metrics.Add("service.cache_hit_ratio",
                hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
                "ratio");
    metrics.Add("service.coalesced_ratio",
                completed > 0 ? static_cast<double>(coalesced) / completed : 0,
                "ratio");
    metrics.Add("service.registry_loads_per_mine",
                mined > 0 ? static_cast<double>(registry.loads -
                                                registry_before.loads) /
                                mined
                          : 0,
                "ratio");
    metrics.Add("service.admission_rejected", static_cast<double>(rejected),
                "count");
  }
  // The key every service and net probe below repeats. On the cold
  // workloads the replay mined it outside the service, so the first
  // Mine below caches it.
  const std::string hit_line =
      workload.cold_only() ? first_line : workload.hot_lines().front();
  StatusOr<colossal::MineRequest> hit_request =
      colossal::ParseRequestLine(hit_line);
  {
    const colossal::ShardManifest* manifest = nullptr;
    int64_t rows = 0;
    if (auto it = data.dbs.find(hit_request->dataset_path); it != data.dbs.end()) {
      rows = it->second->num_transactions();
    } else {
      manifest = &data.manifests.at(hit_request->dataset_path);
      rows = manifest->num_transactions;
    }
    std::vector<double> parse_us;
    for (int trial = 0; trial < 5; ++trial) {
      parse_us.push_back(TimeUs(400, [&] {
        StatusOr<colossal::MineRequest> request =
            colossal::ParseRequestLine(hit_line);
        StatusOr<colossal::CanonicalRequest> canonical_request =
            colossal::CanonicalizeRequestForSize(rows, request->options);
        if (!canonical_request.ok()) std::abort();
      }));
    }
    metrics.Add("service.parse_us", Median(parse_us), "us");
    // Timed Mine calls are cache hits on the key.
    colossal::MiningResponse response = service.Mine(*hit_request);
    std::vector<double> hit_us;
    for (int trial = 0; trial < 5; ++trial) {
      hit_us.push_back(TimeUs(200, [&] {
        colossal::MiningResponse again = service.Mine(*hit_request);
        if (again.source != colossal::ResponseSource::kCache) std::abort();
      }));
    }
    metrics.Add("service.hit_us", Median(hit_us), "us");
    std::string payload;
    std::vector<double> serialize_us;
    for (int trial = 0; trial < 5; ++trial) {
      serialize_us.push_back(TimeUs(50, [&] {
        payload = colossal::RenderPatternsPayload(response);
      }));
    }
    metrics.Add("service.serialize_us", Median(serialize_us), "us");
    metrics.Add("service.payload_bytes", static_cast<double>(payload.size()),
                "bytes");
  }

  // --- net: wire hits against in-process front ends over `service` ----------
  {
    colossal::TcpServerOptions tcp_options;
    tcp_options.num_threads = nproc;
    colossal::TcpServer tcp(
        tcp_options,
        [&service](const std::string& line) {
          return colossal::FrameTcpReply(
              colossal::DispatchServeLine(service, line, "tcp"), true);
        },
        [&service](const Status& status) {
          return colossal::FrameTcpError(service, status);
        });
    colossal::HttpServerOptions http_options;
    http_options.num_threads = nproc;
    colossal::HttpServer http(
        http_options, [&service](const colossal::HttpRequest& request) {
          return colossal::HandleHttpRequest(service, request, true);
        });
    if (!tcp.Start().ok() || !http.Start().ok()) return 1;
    StatusOr<std::unique_ptr<WireClient>> tcp_client =
        WireClient::Dial(Transport::kTcp, tcp.port());
    StatusOr<std::unique_ptr<WireClient>> http_client =
        WireClient::Dial(Transport::kHttp, http.port());
    if (!tcp_client.ok() || !http_client.ok()) return 1;
    std::vector<double> local_us, tcp_us, http_us;
    std::string local_payload;
    for (int r = 0; r < 400; ++r) {
      int64_t t0 = NowNs();
      colossal::ServeOutcome outcome =
          colossal::DispatchServeLine(service, hit_line, "local");
      local_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      local_payload = outcome.patterns_payload;
      t0 = NowNs();
      StatusOr<WireReply> over_tcp = (*tcp_client)->Call(hit_line);
      tcp_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      t0 = NowNs();
      StatusOr<WireReply> over_http = (*http_client)->Call(hit_line);
      http_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (r % 100 == 0) {
        ++attempted;
        if (!over_tcp.ok() || !over_http.ok() ||
            over_tcp->payload != local_payload ||
            over_http->payload != local_payload) {
          fail("wire payload differs from DispatchServeLine");
        }
      }
    }
    tcp_client->reset();
    http_client->reset();
    tcp.Shutdown();
    http.Shutdown();
    metrics.Add("net.tcp_overhead_us", Median(tcp_us) - Median(local_us), "us");
    metrics.Add("net.http_overhead_us", Median(http_us) - Median(local_us), "us");
  }

  // --- obs: tracing overhead and span accounting ----------------------------
  // The spans themselves go to spans.jsonl in the work directory.
  if (std::FILE* out = std::fopen("spans.jsonl", "w")) {
    for (const Span& span : traced.spans()) {
      std::fprintf(out, "%s\n",
                   JsonObject()
                       .Str("name", span.name)
                       .Int("start_ns", span.start)
                       .Int("end_ns", span.end)
                       .Int("parent", span.parent)
                       .Int("request", span.request)
                       .str()
                       .c_str());
    }
    std::fclose(out);
  }
  const double unaccounted_pct = 100.0 * UnaccountedShare(traced.spans());
  metrics.Add("obs.trace_overhead_pct",
              untraced_ns > 0 ? 100.0 * (traced_ns - untraced_ns) / untraced_ns
                              : 0,
              "%");
  metrics.Add("obs.unaccounted_pct", unaccounted_pct, "%");
  if (unaccounted_pct > kUnaccountedBoundPct) {
    fail("child spans leave " + std::to_string(unaccounted_pct) +
         "% of request time uncovered (bound " +
         std::to_string(kUnaccountedBoundPct) + "%)");
  }

  std::string failure_json = "[";
  for (size_t i = 0; i < failures.size(); ++i) {
    failure_json += (i > 0 ? ", " : "") + JsonString(failures[i]);
  }
  std::printf("%s\n", JsonObject()
                          .Str("workload", workload.name())
                          .Int("attempted", attempted)
                          .Int("failed", failed)
                          .Int("spans", static_cast<int64_t>(traced.spans().size()))
                          .Raw("metrics", metrics.str())
                          .Raw("failures", failure_json + "]")
                          .Raw("build", BuildStampJson())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace perfbench
