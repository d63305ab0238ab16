// Shared pieces of perfbench_driver: the subcommands, a tiny JSON
// writer, latency summaries and the in-process oracle.
#ifndef PERFBENCH_DRIVER_DRIVER_H_
#define PERFBENCH_DRIVER_DRIVER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/itemset.h"
#include "common/status.h"
#include "data/transaction_database.h"
#include "workload.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Appends `key: value` members to one flat JSON object.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string JsonString(const std::string& value);

// Median, p99 and the tail: the highest percentile with at least ten
// samples beyond it (nearest rank). `values` need not be sorted.
struct Summary {
  int64_t n = 0;
  double p50 = 0, p99 = 0, tail = 0, tail_pct = 0;
};
Summary Summarize(std::vector<double> values);
std::string SummaryJson(const Summary& summary);

// The build and host facts every report carries.
std::string BuildStampJson();

// Re-mines request lines in-process with MineColossal on the unsharded
// parent datasets (loaded once each) and renders the payload the wire
// would carry. Exact sharding is byte-identical to unsharded mining,
// so the parent answers sharded requests too.
class Oracle {
 public:
  explicit Oracle(const Workload& workload, int threads)
      : workload_(workload), threads_(threads) {}

  struct Answer {
    std::string payload;
    std::vector<colossal::Itemset> patterns;
    std::string parent;
  };
  colossal::StatusOr<Answer> Mine(const std::string& line);

  // Share of the parent's planted patterns present exactly among
  // `answer.patterns`; -1 when the dataset plants none.
  double Recall(const Answer& answer) const;

 private:
  const Workload& workload_;
  const int threads_;
  std::map<std::string, std::shared_ptr<const colossal::TransactionDatabase>>
      dbs_;
};

// One reply off the wire, TCP counted framing or HTTP/1.1 alike.
struct WireReply {
  bool ok = false;      // "ok ..." header / HTTP 200
  int http_status = 0;  // 0 on TCP
  std::string source;   // "mined" | "cache" | "coalesced"
  std::string header;   // status line (TCP) or X-Colossal-Response
  std::string payload;
};

// A blocking keep-alive client connection to colossal_serve listen.
class WireClient {
 public:
  static colossal::StatusOr<std::unique_ptr<WireClient>> Dial(
      Transport transport, int port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  // Sends one request line and reads its whole reply.
  colossal::StatusOr<WireReply> Call(const std::string& line);

 private:
  WireClient(Transport transport, int fd);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct DriveOptions {
  double seconds = 10;
  // Cold workloads: length of the hit phase after the window.
  double hit_seconds = 2;
  int tcp_port = 0;
  int http_port = 0;
  int server_pid = 0;
  int oracle_per_conn = 4;
};

// Subcommands; each prints one JSON object on stdout and returns the
// process exit code.
int RunGen(const Workload& workload);
int RunDrive(const Workload& workload, const DriveOptions& options);
int RunTraced(const Workload& workload, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_DRIVER_H_
