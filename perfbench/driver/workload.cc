#include "workload.h"

#include <algorithm>
#include <filesystem>

#include "data/generators.h"
#include "data/snapshot_io.h"
#include "data/transaction_database.h"
#include "shard/shard_planner.h"

namespace perfbench {

using colossal::LabeledDatabase;
using colossal::Status;
using colossal::StatusOr;

namespace {

// Request templates: the paper's configurations for each dataset.
// Fig. 9 (ALL / microarray) and Fig. 8 (Replace / program trace).
constexpr const char kMicroarrayOptions[] =
    " --min-support 30 --pool-size 2 --tau 0.5 --k 100";
constexpr const char kTraceOptions[] =
    " --sigma 0.03 --pool-size 3 --tau 0.5 --k 100";
// Diag+ (n=40, 20 extra rows) at σ = the extra rows: ~20 ms per mine.
constexpr const char kDiagPlusOptions[] =
    " --min-support 20 --pool-size 2 --tau 0.5 --k 100";

constexpr int kDiagPlusN = 40;
constexpr int kDiagPlusExtra = 20;

// hot_mixed: one op in kHotColdEvery is a cold diagplus mine; every
// kSharedEvery-th cold op of connections 0 and 1 (one TCP, one HTTP)
// is the same key, sent on both at once.
constexpr int kHotColdEvery = 100;
constexpr int kSharedEvery = 3;

constexpr const char kTraceX4[] = "trace_x4/trace.manifest";

DatasetFile Unsharded(const std::string& name) {
  return DatasetFile{name + ".snap", name + ".snap", false};
}

Status WriteSharded(const colossal::TransactionDatabase& db, int shards,
                    const std::string& dir, const std::string& name) {
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  if (error) return Status::Internal("mkdir " + dir + ": " + error.message());
  colossal::ShardPlanOptions plan;
  plan.num_shards = shards;
  StatusOr<std::vector<colossal::ShardRange>> ranges =
      colossal::PlanShards(db, plan);
  if (!ranges.ok()) return ranges.status();
  StatusOr<colossal::ShardWriteResult> written =
      colossal::WriteShardedSnapshots(db, *ranges, dir, name);
  return written.ok() ? Status::Ok() : written.status();
}

}  // namespace

const char* TransportName(Transport transport) {
  return transport == Transport::kTcp ? "tcp" : "http";
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::vector<std::string> Workload::server_args() const {
  if (registry_mb_ == 1024) return {};
  return {"--registry-mb", std::to_string(registry_mb_)};
}

StatusOr<Workload> Workload::Make(const std::string& name, uint64_t seed,
                                  int nproc) {
  Workload w;
  w.name_ = name;
  w.seed_ = seed;
  w.nproc_ = std::max(1, nproc);
  if (name == "cold_microarray") {
    w.transports_ = {Transport::kTcp};
    w.datasets_ = {Unsharded("microarray")};
    w.shard_twin_ = "microarray_x2/microarray.manifest";
    w.planted_["microarray.snap"] = colossal::MakeMicroarrayLike(seed).planted;
  } else if (name == "cold_sharded_trace") {
    w.transports_ = {Transport::kTcp, Transport::kTcp};
    w.datasets_ = {DatasetFile{kTraceX4, "trace.snap", true}};
    w.shard_twin_ = kTraceX4;
    // Below the four shards' summed resident + scratch estimate (about
    // 2 MB), so concurrent shard jobs wait for admission and shards are
    // evicted and reloaded across requests.
    w.registry_mb_ = 1;
    w.planted_["trace.snap"] = colossal::MakeProgramTraceLike(seed).planted;
  } else if (name == "hot_mixed") {
    const int conns = std::clamp(w.nproc_, 2, 4);
    for (int c = 0; c < conns; ++c) {
      w.transports_.push_back(c % 2 == 0 ? Transport::kTcp : Transport::kHttp);
    }
    w.datasets_ = {Unsharded("diagplus"), Unsharded("trace")};
    w.shard_twin_ = kTraceX4;
    w.cold_every_ = kHotColdEvery;
    w.planted_["diagplus.snap"] =
        colossal::MakeDiagPlus(kDiagPlusN, kDiagPlusExtra).planted;
    w.planted_["trace.snap"] = colossal::MakeProgramTraceLike(seed).planted;
    // The hot set: four diagplus keys across the three request modes,
    // and two trace keys (mined with every core during warm-up).
    const uint64_t base = Mix64(seed ^ 0x686f74) >> 2;  // fits int64
    for (int h = 0; h < 4; ++h) {
      std::string line = std::string("--in diagplus.snap") + kDiagPlusOptions +
                         " --seed " + std::to_string(base + h);
      if (h == 2) line += " --top-k 10";
      if (h == 3) line += " --exclude 1,2,3";
      w.hot_lines_.push_back(line);
    }
    for (int h = 0; h < 2; ++h) {
      w.hot_lines_.push_back(std::string("--in trace.snap") + kTraceOptions +
                             " --threads " + std::to_string(w.nproc_) +
                             " --seed " + std::to_string(base + 10 + h));
    }
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (want cold_microarray, "
                                   "cold_sharded_trace or hot_mixed)");
  }
  return w;
}

Status Workload::Generate() const {
  for (const DatasetFile& file : datasets_) {
    const std::string parent = file.parent_path;
    LabeledDatabase labeled;
    if (parent == "microarray.snap") {
      labeled = colossal::MakeMicroarrayLike(seed_);
    } else if (parent == "trace.snap") {
      labeled = colossal::MakeProgramTraceLike(seed_);
    } else {
      labeled = colossal::MakeDiagPlus(kDiagPlusN, kDiagPlusExtra);
    }
    Status written = colossal::WriteSnapshotFile(labeled.db, parent);
    // The trace's 4 shards are the sharded workload's data and every
    // trace workload's shard twin; the microarray's twin has 2.
    if (written.ok() && parent == "trace.snap") {
      written = WriteSharded(labeled.db, 4, "trace_x4", "trace");
    } else if (written.ok() && parent == "microarray.snap") {
      written = WriteSharded(labeled.db, 2, "microarray_x2", "microarray");
    }
    if (!written.ok()) return written;
  }
  return Status::Ok();
}

std::vector<std::string> Workload::LoadLines() const {
  // --max-len 1 keeps the pool to single items and fusion to nothing,
  // so the line costs a dataset load (every shard, for a manifest) and
  // almost no mining. Its key is never sent again.
  std::vector<std::string> lines;
  for (const DatasetFile& file : datasets_) {
    lines.push_back("--in " + file.path +
                    " --min-support 30 --max-len 1 --k 1 --seed 0");
  }
  return lines;
}

std::string Workload::ColdLine(int conn, int64_t cold_index,
                               bool shared) const {
  // Seeds are distinct per (connection, index) by construction; shared
  // keys draw from their own range so they never equal an unshared one.
  const uint64_t lane = shared ? 255 : static_cast<uint64_t>(conn);
  const uint64_t seed = (Mix64(seed_) & 0x3fffffULL) << 40 | lane << 32 |
                        static_cast<uint64_t>(cold_index);
  const std::string seed_flag = " --seed " + std::to_string(seed);
  if (name_ == "cold_microarray") {
    return std::string("--in microarray.snap") + kMicroarrayOptions +
           " --threads " + std::to_string(nproc_) + seed_flag;
  }
  if (name_ == "cold_sharded_trace") {
    return "--in " + datasets_[0].path + kTraceOptions +
           " --threads 2 --shard-parallelism 2" + seed_flag;
  }
  // hot_mixed: plain, top-k and constrained modes in turn. Excluded
  // items come from the Diag block, never the planted pattern.
  std::string line = std::string("--in diagplus.snap") + kDiagPlusOptions +
                     seed_flag;
  switch (cold_index % 3) {
    case 1:
      line += " --top-k " + std::to_string(5 + Mix64(seed) % 20);
      break;
    case 2: {
      const uint64_t r = Mix64(seed);
      const int a = static_cast<int>(r % kDiagPlusN);
      const int b = static_cast<int>((r >> 16) % kDiagPlusN);
      line += " --exclude " + std::to_string(std::min(a, b)) +
              (a == b ? "" : "," + std::to_string(std::max(a, b)));
      break;
    }
    default:
      break;
  }
  return line;
}

std::string Workload::PrimerLine(int conn) const {
  return ColdLine(conn, int64_t{1} << 31, false);
}

Op Workload::NextOp(int conn, int64_t i) const {
  Op op;
  if (cold_every_ > 1 && i % cold_every_ != cold_every_ / 2) {
    // A hit: walk the hot set with a per-connection stride offset.
    const int64_t h = (i * 5 + conn) % static_cast<int64_t>(hot_lines_.size());
    op.cold = false;
    op.line = hot_lines_[static_cast<size_t>(h)];
    op.key = "h" + std::to_string(h);
    return op;
  }
  op.cold_index = cold_every_ > 1 ? i / cold_every_ : i;
  op.shared = cold_every_ > 1 && conn < 2 && op.cold_index % kSharedEvery == 0;
  op.line = ColdLine(conn, op.cold_index, op.shared);
  op.key = op.shared ? "s" + std::to_string(op.cold_index)
                     : "c" + std::to_string(conn) + "." +
                           std::to_string(op.cold_index);
  return op;
}

std::vector<Op> Workload::OracleSample(int per_conn) const {
  std::vector<Op> sample;
  for (int c = 0; c < connections(); ++c) {
    int taken = 0;
    for (int64_t i = 0; taken < per_conn; ++i) {
      Op op = NextOp(c, i);
      if (!op.cold) continue;
      ++taken;
      // A shared key appears on two connections; re-mine it once.
      if (op.shared && c > 0) continue;
      sample.push_back(std::move(op));
    }
  }
  return sample;
}

const std::vector<colossal::Itemset>& Workload::Planted(
    const std::string& parent_path) const {
  static const std::vector<colossal::Itemset> kNone;
  auto it = planted_.find(parent_path);
  return it == planted_.end() ? kNone : it->second;
}

std::string Workload::ParentOf(const std::string& path) const {
  for (const DatasetFile& file : datasets_) {
    if (file.path == path) return file.parent_path;
  }
  return path;
}

}  // namespace perfbench
