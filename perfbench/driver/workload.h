// The benchmark's workloads: which datasets each one generates, which
// server flags it needs, and the request stream every connection sends.
// Everything here is a pure function of (workload name, seed, nproc),
// so the wire run, the oracle and the traced run replay the same keys.
#ifndef PERFBENCH_DRIVER_WORKLOAD_H_
#define PERFBENCH_DRIVER_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/itemset.h"
#include "common/status.h"

namespace perfbench {

enum class Transport { kTcp, kHttp };

const char* TransportName(Transport transport);

// One dataset file a workload's requests name with --in. Paths are
// relative to the work directory every process of a run uses as cwd.
struct DatasetFile {
  std::string path;         // snapshot or shard manifest
  std::string parent_path;  // unsharded snapshot of the same content
  bool sharded = false;
};

// One request of a connection's stream.
struct Op {
  bool cold = true;  // false: a hit on the hot set
  std::string line;  // the request line sent on the wire
  // Identity of the request for the oracle and the hit check: cold
  // keys are "c<conn>.<index>" (or "s<index>" when shared between two
  // connections), hot keys "h<index>".
  std::string key;
  // hot_mixed: the key goes out on two connections at once.
  bool shared = false;
  int64_t cold_index = -1;  // position among this connection's cold ops
};

class Workload {
 public:
  // Fails on an unknown name. `nproc` caps connection counts and sets
  // the microarray request's --threads.
  static colossal::StatusOr<Workload> Make(const std::string& name,
                                           uint64_t seed, int nproc);

  const std::string& name() const { return name_; }
  uint64_t seed() const { return seed_; }
  int connections() const { return static_cast<int>(transports_.size()); }
  Transport transport(int conn) const { return transports_[conn]; }
  bool cold_only() const { return hot_lines_.empty(); }

  // Writes every dataset file into the current directory.
  colossal::Status Generate() const;

  const std::vector<DatasetFile>& datasets() const { return datasets_; }
  // The server's dataset registry budget, and the flags that set it on
  // `colossal_serve listen` (none: the server default).
  int64_t registry_budget_bytes() const { return registry_mb_ << 20; }
  std::vector<std::string> server_args() const;

  // A sharded twin of the workload's data (for the sharded workload,
  // its own manifest), which the traced run's shard probe mines.
  const std::string& shard_twin() const { return shard_twin_; }

  // Lines that make the server warm: one cheap load per dataset, then
  // every hot key (which mines and caches it).
  std::vector<std::string> LoadLines() const;
  const std::vector<std::string>& hot_lines() const { return hot_lines_; }

  // Cold workloads: an untimed first mine per connection, on a key the
  // stream never sends.
  std::string PrimerLine(int conn) const;

  // The i-th op of connection `conn` (deterministic, unbounded).
  Op NextOp(int conn, int64_t i) const;

  // The cold ops the oracle re-mines: the first `per_conn` cold ops of
  // every connection, in (conn, index) order. Always sent when each
  // connection completes at least that many cold ops.
  std::vector<Op> OracleSample(int per_conn) const;

  // Planted colossal patterns of the dataset a key's request mines,
  // keyed by DatasetFile::parent_path.
  const std::vector<colossal::Itemset>& Planted(
      const std::string& parent_path) const;

  // The unsharded parent a request line's --in names.
  std::string ParentOf(const std::string& path) const;

 private:
  std::string ColdLine(int conn, int64_t cold_index, bool shared) const;

  std::string name_;
  uint64_t seed_ = 0;
  int nproc_ = 1;
  std::vector<Transport> transports_;
  std::vector<DatasetFile> datasets_;
  int64_t registry_mb_ = 1024;  // colossal_serve's default
  std::string shard_twin_;
  std::vector<std::string> hot_lines_;
  // One cold op every `cold_every` ops (1 = every op is cold).
  int cold_every_ = 1;
  std::map<std::string, std::vector<colossal::Itemset>> planted_;
};

// 64-bit mix (SplitMix64 finalizer) for deriving per-request seeds.
uint64_t Mix64(uint64_t x);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOAD_H_
