// The untraced wire run: a closed loop per connection against a warm
// `colossal_serve listen`, then the oracle over a fixed sample.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <barrier>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "driver.h"
#include "net/socket_io.h"

namespace perfbench {

using colossal::Status;
using colossal::StatusOr;

// --- WireClient --------------------------------------------------------------

struct WireClient::Impl {
  Impl(Transport t, int f) : transport(t), fd(f), reader(f) {}
  Transport transport;
  int fd;
  colossal::SocketReader reader;
};

WireClient::WireClient(Transport transport, int fd)
    : impl_(std::make_unique<Impl>(transport, fd)) {}

WireClient::~WireClient() { ::close(impl_->fd); }

StatusOr<std::unique_ptr<WireClient>> WireClient::Dial(Transport transport,
                                                       int port) {
  StatusOr<int> fd = colossal::DialTcp("127.0.0.1", port);
  if (!fd.ok()) return fd.status();
  const int one = 1;
  ::setsockopt(*fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<WireClient>(new WireClient(transport, *fd));
}

namespace {

std::string SourceOf(const std::string& header) {
  const size_t at = header.find("source=");
  if (at == std::string::npos) return "";
  const size_t end = header.find(' ', at);
  return header.substr(at + 7, end == std::string::npos ? std::string::npos
                                                        : end - (at + 7));
}

StatusOr<WireReply> ReadHttpReply(colossal::SocketReader& reader) {
  WireReply reply;
  StatusOr<std::string> status_line = reader.ReadLine();
  if (!status_line.ok()) return status_line.status();
  if (status_line->rfind("HTTP/", 0) != 0 ||
      status_line->find(' ') == std::string::npos) {
    return Status::Internal("malformed HTTP status line: " + *status_line);
  }
  reply.http_status =
      std::atoi(status_line->c_str() + status_line->find(' ') + 1);
  size_t content_length = 0;
  while (true) {
    StatusOr<std::string> line = reader.ReadLine();
    if (!line.ok()) return line.status();
    if (!line->empty() && line->back() == '\r') line->pop_back();
    if (line->empty()) break;
    const size_t colon = line->find(':');
    if (colon == std::string::npos) continue;
    std::string name = line->substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    const size_t value = line->find_first_not_of(' ', colon + 1);
    const std::string text =
        value == std::string::npos ? "" : line->substr(value);
    if (name == "content-length") {
      content_length = static_cast<size_t>(std::atoll(text.c_str()));
    } else if (name == "x-colossal-response") {
      reply.header = text;
    }
  }
  StatusOr<std::string> body = reader.ReadExact(content_length);
  if (!body.ok()) return body.status();
  reply.payload = *std::move(body);
  reply.ok = reply.http_status == 200;
  reply.source = SourceOf(reply.header);
  if (!reply.ok) reply.header = *status_line + " " + reply.payload;
  return reply;
}

}  // namespace

StatusOr<WireReply> WireClient::Call(const std::string& line) {
  if (impl_->transport == Transport::kHttp) {
    Status sent = colossal::WriteAll(
        impl_->fd, "POST /mine HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: " +
                       std::to_string(line.size()) + "\r\n\r\n" + line);
    if (!sent.ok()) return sent;
    return ReadHttpReply(impl_->reader);
  }
  Status sent = colossal::WriteAll(impl_->fd, line + "\n");
  if (!sent.ok()) return sent;
  StatusOr<colossal::TcpFrame> frame = colossal::ReadTcpFrame(impl_->reader);
  if (!frame.ok()) return frame.status();
  WireReply reply;
  reply.ok = frame->ok;
  reply.source = frame->source;
  reply.header = frame->header;
  reply.payload = std::move(frame->payload);
  if (!reply.ok) reply.header += " " + reply.payload;
  return reply;
}

// --- gen ---------------------------------------------------------------------

int RunGen(const Workload& workload) {
  Status generated = workload.Generate();
  if (!generated.ok()) {
    std::fprintf(stderr, "gen: %s\n", generated.ToString().c_str());
    return 1;
  }
  std::string args = "[";
  for (const std::string& arg : workload.server_args()) {
    args += (args.size() > 1 ? ", " : "") + JsonString(arg);
  }
  std::string load = "[";
  for (const std::string& line : workload.LoadLines()) {
    load += (load.size() > 1 ? ", " : "") + JsonString(line);
  }
  std::string hot = "[";
  for (const std::string& line : workload.hot_lines()) {
    hot += (hot.size() > 1 ? ", " : "") + JsonString(line);
  }
  std::printf("%s\n", JsonObject()
                          .Str("workload", workload.name())
                          .Int("connections", workload.connections())
                          .Raw("server_args", args + "]")
                          .Raw("load_lines", load + "]")
                          .Raw("hot_lines", hot + "]")
                          .Raw("build", BuildStampJson())
                          .str()
                          .c_str());
  return 0;
}

// --- drive -------------------------------------------------------------------

namespace {

// utime + stime of a process, in seconds (/proc/<pid>/stat fields 14-15).
double ProcessCpuSeconds(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t paren = stat.rfind(')');
  if (paren == std::string::npos) return -1;
  std::istringstream fields(stat.substr(paren + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i >= 14) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// The "VmHWM:" line of /proc/<pid>/status, in kB.
int64_t PeakRssKb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

// Connections 0 and 1 meet here before sending a shared key, so the
// second joins the first's mine in flight. A partner that stopped at
// the deadline is waited for only briefly.
class Rendezvous {
 public:
  void Meet(int64_t index) {
    std::unique_lock<std::mutex> lock(mutex_);
    const int arrived = ++arrived_[index];
    cv_.notify_all();
    if (arrived < 2) {
      cv_.wait_for(lock, std::chrono::milliseconds(250),
                   [&] { return arrived_[index] >= 2; });
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<int64_t, int> arrived_;
};

struct Sample {
  bool cold = false;
  Transport transport = Transport::kTcp;
  std::string source;
  double ms = 0;
  int64_t end_ns = 0;
};

// Hit latencies are summarized per slice of the hit window, and the
// report takes the median slice: a burst of interference from outside
// the benchmark then moves one slice, not the run's figure.
constexpr double kSliceSeconds = 0.5;

// Cold workloads: mine/hit segment pairs per run.
constexpr int kRounds = 4;

std::string SlicedHitJson(
    const std::vector<Sample>& hits,
    const std::vector<std::pair<int64_t, int64_t>>& segments) {
  std::vector<double> p50, p99, rate;
  for (const auto& [begin, end] : segments) {
    const double segment_s = static_cast<double>(end - begin) / 1e9;
    const int slices = std::max(1, static_cast<int>(segment_s / kSliceSeconds));
    const double slice_s = segment_s / slices;
    std::vector<std::vector<double>> by_slice(static_cast<size_t>(slices));
    for (const Sample& hit : hits) {
      if (hit.end_ns < begin || hit.end_ns > end) continue;
      const int index = static_cast<int>(
          static_cast<double>(hit.end_ns - begin) / 1e9 / slice_s);
      by_slice[static_cast<size_t>(std::min(index, slices - 1))].push_back(
          hit.ms);
    }
    for (const std::vector<double>& slice : by_slice) {
      const Summary summary = Summarize(slice);
      p50.push_back(summary.p50);
      p99.push_back(summary.p99);
      rate.push_back(static_cast<double>(slice.size()) / slice_s);
    }
  }
  return JsonObject()
      .Int("slices", static_cast<int64_t>(p50.size()))
      .Num("p50", Summarize(p50).p50)
      .Num("p99", Summarize(p99).p50)
      .Num("per_s", Summarize(rate).p50)
      .str();
}

struct ConnResult {
  std::vector<Sample> samples;      // the timed window
  std::vector<Sample> hit_samples;  // cold workloads: the hit phase
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t cold_sent = 0;
  std::vector<std::string> failures;
  // Payloads of the cold keys the oracle needs, and of every shared key
  // (both halves are compared).
  std::map<std::string, std::string> kept;
  // Cold workloads: the most recent mined (line, payload) pairs, which
  // the hit phases replay.
  std::vector<std::pair<std::string, std::string>> mined;
  int64_t next_op = 0;  // the op stream continues across rounds
  bool broken = false;  // dial or transport failure: no more requests
};

struct Shared {
  const Workload* workload = nullptr;
  int port_tcp = 0, port_http = 0;
  int64_t deadline_ns = 0;
  int64_t hit_deadline_ns = 0;
  int rounds = 1;
  // Every connection and the main thread meet here at each phase
  // boundary: ready, mine segment start/end, hit segment start/end.
  std::barrier<>* sync = nullptr;
  Rendezvous rendezvous;
  std::map<std::string, std::string> hot_payloads;  // key -> payload
  std::set<std::string> keep_keys;
};

// Mined keys each connection keeps for its hit phase: few enough that
// every connection's set stays inside the server's 256-entry cache.
constexpr size_t kHitPhaseKeys = 48;

void Fail(ConnResult& result, const std::string& what) {
  ++result.failed;
  if (result.failures.size() < 5) result.failures.push_back(what);
}

// The timed window: a closed loop over the connection's op stream.
void RunWindow(int conn, WireClient& client, Shared* shared,
               ConnResult* result) {
  const Transport transport = shared->workload->transport(conn);
  while (NowNs() < shared->deadline_ns) {
    const Op op = shared->workload->NextOp(conn, result->next_op++);
    if (op.shared) shared->rendezvous.Meet(op.cold_index);
    ++result->attempted;
    if (op.cold) ++result->cold_sent;
    const int64_t begin = NowNs();
    StatusOr<WireReply> reply = client.Call(op.line);
    const double ms = static_cast<double>(NowNs() - begin) / 1e6;
    if (!reply.ok()) {
      // A broken transport ends this connection's requests.
      Fail(*result, "transport: " + reply.status().ToString());
      result->broken = true;
      return;
    }
    if (!reply->ok) {
      Fail(*result, "status: " + reply->header);
      continue;
    }
    result->samples.push_back(
        Sample{op.cold, transport, reply->source, ms, NowNs()});
    if (!op.cold) {
      if (reply->payload != shared->hot_payloads.at(op.key)) {
        Fail(*result, "hit payload differs from its mine: " + op.line);
      }
      continue;
    }
    if (shared->workload->cold_only()) {
      result->mined.emplace_back(op.line, reply->payload);
      if (result->mined.size() > kHitPhaseKeys) {
        result->mined.erase(result->mined.begin());
      }
    }
    if (op.shared || shared->keep_keys.count(op.key) > 0) {
      result->kept[op.key] = std::move(reply->payload);
    }
  }
}

// Cold workloads only: replays the connection's own mined keys, now
// cached, and checks every hit against the payload of its mine.
void RunHitPhase(int conn, WireClient& client, Shared* shared,
                 ConnResult* result) {
  const Transport transport = shared->workload->transport(conn);
  for (size_t i = 0; !result->mined.empty() &&
                     NowNs() < shared->hit_deadline_ns;
       ++i) {
    const auto& [line, payload] = result->mined[i % result->mined.size()];
    ++result->attempted;
    const int64_t begin = NowNs();
    StatusOr<WireReply> reply = client.Call(line);
    const double ms = static_cast<double>(NowNs() - begin) / 1e6;
    if (!reply.ok()) {
      Fail(*result, "transport: " + reply.status().ToString());
      result->broken = true;
      return;
    }
    if (!reply->ok || reply->source != "cache" || reply->payload != payload) {
      Fail(*result, "hit phase: not the cached answer of " + line + ": " +
                        reply->header);
      continue;
    }
    result->hit_samples.push_back(
        Sample{false, transport, reply->source, ms, NowNs()});
  }
}

void RunConnection(int conn, Shared* shared, ConnResult* result) {
  const Transport transport = shared->workload->transport(conn);
  StatusOr<std::unique_ptr<WireClient>> client = WireClient::Dial(
      transport,
      transport == Transport::kTcp ? shared->port_tcp : shared->port_http);
  if (!client.ok()) {
    ++result->attempted;
    Fail(*result, "dial: " + client.status().ToString());
    result->broken = true;
  }
  // One untimed cold mine per connection first, so lazy set-up in the
  // server (thread pools, allocator arenas) is not charged to the window.
  if (!result->broken && shared->workload->cold_only()) {
    StatusOr<WireReply> primer =
        (*client)->Call(shared->workload->PrimerLine(conn));
    if (!primer.ok() || !primer->ok) {
      ++result->attempted;
      Fail(*result, "primer: " + (primer.ok() ? primer->header
                                              : primer.status().ToString()));
    }
  }
  shared->sync->arrive_and_wait();  // ready
  for (int round = 0; round < shared->rounds; ++round) {
    shared->sync->arrive_and_wait();  // mine segment starts
    if (!result->broken) RunWindow(conn, **client, shared, result);
    shared->sync->arrive_and_wait();  // mine segment done
    if (!shared->workload->cold_only()) continue;
    shared->sync->arrive_and_wait();  // hit segment starts
    if (!result->broken) RunHitPhase(conn, **client, shared, result);
    shared->sync->arrive_and_wait();  // hit segment done
  }
}

}  // namespace

int RunDrive(const Workload& workload, const DriveOptions& options) {
  Shared shared;
  shared.workload = &workload;
  shared.port_tcp = options.tcp_port;
  shared.port_http = options.http_port;
  int64_t failed = 0;
  std::vector<std::string> failures;

  // The hot payloads every hit is checked against; the warm-up already
  // mined these keys, and the oracle re-mines them below.
  {
    StatusOr<std::unique_ptr<WireClient>> client =
        WireClient::Dial(Transport::kTcp, options.tcp_port);
    if (!client.ok()) {
      std::fprintf(stderr, "drive: %s\n", client.status().ToString().c_str());
      return 1;
    }
    for (size_t h = 0; h < workload.hot_lines().size(); ++h) {
      StatusOr<WireReply> reply = (*client)->Call(workload.hot_lines()[h]);
      if (!reply.ok() || !reply->ok || reply->source != "cache") {
        std::fprintf(stderr, "drive: hot key %zu is not cached: %s\n", h,
                     reply.ok() ? reply->header.c_str()
                                : reply.status().ToString().c_str());
        return 1;
      }
      shared.hot_payloads["h" + std::to_string(h)] = reply->payload;
    }
  }
  const std::vector<Op> sample = workload.OracleSample(options.oracle_per_conn);
  for (const Op& op : sample) shared.keep_keys.insert(op.key);

  const int conns = workload.connections();
  // Cold workloads alternate mine and hit segments, so both sample the
  // whole run rather than one stretch of it.
  shared.rounds = workload.cold_only() ? kRounds : 1;
  std::barrier<> sync(conns + 1);
  shared.sync = &sync;
  std::vector<ConnResult> results(static_cast<size_t>(conns));
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(RunConnection, c, &shared, &results[c]);
  }
  sync.arrive_and_wait();  // ready
  double window_s = 0, server_cpu_s = 0;
  std::vector<std::pair<int64_t, int64_t>> hit_segments;
  for (int round = 0; round < shared.rounds; ++round) {
    const double cpu_begin = ProcessCpuSeconds(options.server_pid);
    const int64_t begin = NowNs();
    shared.deadline_ns =
        begin + static_cast<int64_t>(options.seconds / shared.rounds * 1e9);
    sync.arrive_and_wait();  // mine segment starts
    sync.arrive_and_wait();  // mine segment done
    const int64_t end = NowNs();
    server_cpu_s += ProcessCpuSeconds(options.server_pid) - cpu_begin;
    window_s += static_cast<double>(end - begin) / 1e9;
    if (!workload.cold_only()) {
      hit_segments.emplace_back(begin, end);
      continue;
    }
    shared.hit_deadline_ns =
        end + static_cast<int64_t>(options.hit_seconds / shared.rounds * 1e9);
    sync.arrive_and_wait();  // hit segment starts
    sync.arrive_and_wait();  // hit segment done
    hit_segments.emplace_back(end, NowNs());
  }
  for (std::thread& thread : threads) thread.join();
  const int64_t rss_kb = PeakRssKb(options.server_pid);

  // Tally.
  int64_t attempted = 0, cold_sent = 0, completed = 0;
  std::map<std::string, int64_t> sources;
  std::map<std::string, int64_t> by_transport;  // "tcp.cache" etc.
  std::vector<double> mine_ms, hit_ms;
  std::vector<Sample> hits;
  for (const ConnResult& result : results) {
    attempted += result.attempted;
    cold_sent += result.cold_sent;
    failed += result.failed;
    failures.insert(failures.end(), result.failures.begin(),
                    result.failures.end());
    for (const Sample& s : result.hit_samples) {
      hit_ms.push_back(s.ms);
      hits.push_back(s);
    }
    for (const Sample& s : result.samples) {
      ++completed;
      ++sources[s.source];
      ++by_transport[std::string(TransportName(s.transport)) + "." + s.source];
      if (s.cold && s.source == "mined") mine_ms.push_back(s.ms);
      if (!s.cold && s.source == "cache") {
        hit_ms.push_back(s.ms);
        hits.push_back(s);
      }
    }
  }

  // Shared keys: both connections must have received the same bytes.
  std::map<std::string, std::string> kept;
  for (const ConnResult& result : results) {
    for (const auto& [key, payload] : result.kept) {
      auto [it, inserted] = kept.emplace(key, payload);
      if (!inserted && it->second != payload) {
        ++failed;
        failures.push_back("shared key " + key + " answered differently");
      }
    }
  }

  // The oracle: re-mine the fixed sample and every hot key in-process.
  Oracle oracle(workload, static_cast<int>(std::thread::hardware_concurrency()));
  int64_t checked = 0, skipped = 0;
  double recall_sum = 0;
  int64_t recall_n = 0;
  const auto check = [&](const std::string& line, const std::string& wire) {
    StatusOr<Oracle::Answer> answer = oracle.Mine(line);
    ++checked;
    if (!answer.ok()) {
      ++failed;
      failures.push_back("oracle failed: " + answer.status().ToString());
      return;
    }
    if (answer->payload != wire) {
      ++failed;
      failures.push_back("payload differs from in-process mine: " + line);
    }
    const double recall = oracle.Recall(*answer);
    if (recall >= 0) {
      recall_sum += recall;
      ++recall_n;
    }
  };
  const int64_t oracle_begin = NowNs();
  for (const Op& op : sample) {
    auto it = kept.find(op.key);
    if (it == kept.end()) {
      ++skipped;  // the window ended before this key was sent
      continue;
    }
    check(op.line, it->second);
  }
  for (size_t h = 0; h < workload.hot_lines().size(); ++h) {
    check(workload.hot_lines()[h],
          shared.hot_payloads.at("h" + std::to_string(h)));
  }
  const double oracle_s = static_cast<double>(NowNs() - oracle_begin) / 1e9;

  std::string source_json = "{";
  for (const auto& [name, count] : sources) {
    source_json += (source_json.size() > 1 ? ", " : "") + JsonString(name) +
                   ": " + std::to_string(count);
  }
  std::string transport_json = "{";
  for (const auto& [name, count] : by_transport) {
    transport_json += (transport_json.size() > 1 ? ", " : "") +
                      JsonString(name) + ": " + std::to_string(count);
  }
  std::string failure_json = "[";
  for (size_t i = 0; i < failures.size() && i < 8; ++i) {
    failure_json += (i > 0 ? ", " : "") + JsonString(failures[i]);
  }
  std::printf(
      "%s\n",
      JsonObject()
          .Str("workload", workload.name())
          .Num("window_s", window_s)
          .Int("attempted", attempted)
          .Int("completed", completed)
          .Int("failed", failed)
          .Int("cold_sent", cold_sent)
          .Raw("sources", source_json + "}")
          .Raw("by_transport", transport_json + "}")
          .Raw("mine_ms", SummaryJson(Summarize(mine_ms)))
          .Raw("hit_ms", SummaryJson(Summarize(hit_ms)))
          .Raw("hit_sliced", SlicedHitJson(hits, hit_segments))
          .Num("server_cpu_s", server_cpu_s)
          .Int("server_vmhwm_kb", rss_kb)
          .Int("oracle_checked", checked)
          .Int("oracle_skipped", skipped)
          .Num("oracle_s", oracle_s)
          .Num("planted_recall",
               recall_n > 0 ? recall_sum / static_cast<double>(recall_n) : -1)
          .Raw("failures", failure_json + "]")
          .Raw("build", BuildStampJson())
          .str()
          .c_str());
  return 0;
}

}  // namespace perfbench
