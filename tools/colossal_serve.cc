// colossal_serve — batch/daemon front end to the mining service layer.
//
// Subcommands:
//   batch   --requests FILE [--out-dir DIR] [--threads N]
//           [--mining-threads N] [--shard-parallelism N]
//           [--cache-entries N] [--registry-mb N] [--csv]
//       Replays a file of request lines (one request per line, '#'
//       comments and blank lines ignored), fans them across the service
//       pool, and prints a per-request table (timing, cache source) plus
//       a summary. With --out-dir, request i's patterns are written to
//       DIR/response_<i>.txt in FIMI output format (DIR is created if
//       missing). --threads 1 makes
//       replay order deterministic (duplicates hit the result cache
//       instead of coalescing). Exits nonzero if any request failed.
//   daemon  [--mining-threads N] [--shard-parallelism N]
//           [--cache-entries N] [--registry-mb N] [--no-patterns]
//       Line-delimited request/response loop on stdin/stdout. Each input
//       line is a request (same grammar as batch), or one of:
//         stats       print registry/cache statistics (one line)
//         metrics     print the full Prometheus-style text exposition,
//                     terminated by a single '.' line
//         recent [n]  print the n most recent flight records as JSON,
//                     '.'-terminated (default 32)
//         trace <id>  print one flight record by request id as JSON
//         quit        exit
//       Responses are a header line (wrapped here)
//         ok source=<mined|cache|coalesced> patterns=N iterations=I
//            fingerprint=<hex> ms=<float> id=N
//       followed (unless --no-patterns) by the patterns and a single '.'
//       terminator line; errors print "error: <message> id=N". The id
//       is process-monotonic and keys the flight recorder.
//   listen  --port N [--host H] [--threads N] [--mining-threads N]
//           [--shard-parallelism N] [--cache-entries N] [--registry-mb N]
//           [--no-patterns] [--max-connections N] [--max-line-kb N]
//           [--http-port N] [--http-pipeline N]
//           [--max-inflight-mines N] [--max-inflight-mine-kb N]
//       The same request grammar served over TCP (net/tcp_server.h).
//       --port 0 picks a free port; the resolved one is printed as
//         listening host=H port=N
//       With --http-port (0 = auto again), an HTTP/1.1 front end
//       (net/http_server.h) serves alongside the TCP port over the same
//       MiningService and dispatch path — POST /mine (request line as
//       the body; the response body is byte-identical to the TCP
//       payload), GET /metrics, GET /stats, GET /healthz,
//       GET /debug/requests?n=K and GET /debug/requests/<id>
//       (flight-recorder JSON) — printed as
//         listening http host=H port=N
//       --max-inflight-mines / --max-inflight-mine-kb bound admission:
//       over-limit mines fail RESOURCE_EXHAUSTED (HTTP 429 with
//       Retry-After) instead of queueing; cache hits always serve.
//       Responses use counted framing so clients can stream large
//       results safely: every response is one status line ending in
//       bytes=B, followed by exactly B payload bytes —
//         ok source=... patterns=N iterations=I fingerprint=...
//            ms=F id=N bytes=B   (one line; B bytes of FIMI
//                                 patterns; 0 with --no-patterns)
//         error code=<CODE> id=N bytes=B   (B bytes of error message)
//         stats ... bytes=0
//         metrics bytes=B             (B bytes of exposition text)
//         recent bytes=B / trace bytes=B   (B bytes of flight-recorder
//                                           JSON)
//       Control words: stats, metrics, recent [n], trace <id>, quit/exit
//       (close this connection), shutdown (gracefully stop the whole
//       server). Use tools/colossal_client.cc as the reference client.
//
// Request dispatch for daemon and listen is one shared path
// (service/dispatch.h), so the two transports cannot drift.
//
// Request line grammar (see service/request.h):
//   --in FILE [--format fimi|matrix|snapshot|manifest|auto]
//   (--sigma F | --min-support N) [--tau F] [--k N] [--pool-size N]
//   [--pool-miner apriori] [--max-iterations N] [--attempts N]
//   [--retain N] [--seed S] [--threads N] [--shards exact]
//   [--shard-parallelism N] [--top-k N] [--include I1,I2,...]
//   [--exclude I1,I2,...] [--min-len N] [--max-len N]
//
// Cache semantics: results are keyed by (dataset content fingerprint,
// canonical options). Equivalent requests — e.g. --sigma 0.5 vs. the
// --min-support it denotes, or any --threads value — share one entry,
// and a repeated request is served from memory, bit-identical to a
// fresh mine.
//
// Sharded datasets: when FILE is a shard manifest (colossal_cli shard),
// the request mines shard by shard under the registry's memory budget.
// The result is byte-identical to unsharded mining of the parent and
// shares its cache entries; --shards exact only asserts that FILE is a
// manifest (--shards fuse was removed and is rejected). Phase-1
// per-shard mining fans out across --shard-parallelism concurrent shard
// jobs (request flag, or the service-level default set here; 0 = auto),
// capped by the residency governor so concurrently resident shards
// always fit --registry-mb; output is identical for any value.

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#if defined(__GLIBC__)  // defined by the standard headers above
#include <malloc.h>
#endif

#include "common/args.h"
#include "common/table_printer.h"
#include "core/pattern.h"
#include "mining/result_io.h"
#include "net/http_server.h"
#include "net/tcp_server.h"
#include "service/dispatch.h"
#include "service/mining_service.h"

namespace colossal {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

constexpr const char kUsage[] =
    "usage: colossal_serve batch --requests FILE [--out-dir DIR]\n"
    "           [--threads N] [--mining-threads N] [--shard-parallelism N]\n"
    "           [--cache-entries N] [--registry-mb N] [--csv]\n"
    "       colossal_serve daemon [--mining-threads N]\n"
    "           [--shard-parallelism N] [--cache-entries N]\n"
    "           [--registry-mb N] [--no-patterns]\n"
    "       colossal_serve listen --port N [--host H] [--threads N]\n"
    "           [--mining-threads N] [--shard-parallelism N]\n"
    "           [--cache-entries N] [--registry-mb N]\n"
    "           [--max-connections N] [--max-line-kb N] [--no-patterns]\n"
    "           [--http-port N] [--http-pipeline N]\n"
    "           [--max-inflight-mines N] [--max-inflight-mine-kb N]\n"
    "all subcommands also take --slow-request-ms T (log requests slower\n"
    "    than T ms as JSON lines; 0 logs every request, default off) and\n"
    "    --slow-log-file PATH (append slow-request lines there instead\n"
    "    of stderr)\n"
    "request lines: --in FILE (--sigma F | --min-support N) [--tau F]\n"
    "    [--k N] [--pool-size N] [--pool-miner apriori]\n"
    "    [--max-iterations N] [--attempts N] [--retain N] [--seed S]\n"
    "    [--threads N] [--format fimi|matrix|snapshot|manifest|auto]\n"
    "    [--shards exact] [--shard-parallelism N]   (shard manifests)\n"
    "    [--top-k N] [--include I1,I2,...] [--exclude I1,I2,...]\n"
    "    [--min-len N] [--max-len N]   (top-k / constrained mining)\n"
    "daemon/listen control words: stats (one-line counters), metrics\n"
    "    (Prometheus-style text exposition), recent [n] / trace <id>\n"
    "    (flight-recorder JSON), quit/exit, shutdown\n"
    "see the header of tools/colossal_serve.cc for details\n";

// Shared service knobs for both subcommands.
StatusOr<MiningServiceOptions> ServiceOptionsFromArgs(const Args& args) {
  MiningServiceOptions options;
  StatusOr<int64_t> threads = args.GetInt("threads", 0);
  if (!threads.ok()) return threads.status();
  StatusOr<int64_t> mining_threads = args.GetInt("mining-threads", 1);
  if (!mining_threads.ok()) return mining_threads.status();
  StatusOr<int64_t> shard_parallelism = args.GetInt("shard-parallelism", 0);
  if (!shard_parallelism.ok()) return shard_parallelism.status();
  StatusOr<int64_t> cache_entries = args.GetInt("cache-entries", 256);
  if (!cache_entries.ok()) return cache_entries.status();
  StatusOr<int64_t> registry_mb = args.GetInt("registry-mb", 1024);
  if (!registry_mb.ok()) return registry_mb.status();
  StatusOr<int64_t> max_inflight_mines = args.GetInt("max-inflight-mines", 0);
  if (!max_inflight_mines.ok()) return max_inflight_mines.status();
  StatusOr<int64_t> max_inflight_mine_kb =
      args.GetInt("max-inflight-mine-kb", 0);
  if (!max_inflight_mine_kb.ok()) return max_inflight_mine_kb.status();
  StatusOr<int64_t> slow_request_ms = args.GetInt("slow-request-ms", -1);
  if (!slow_request_ms.ok()) return slow_request_ms.status();
  if (*threads < 0 || *threads > kMaxExplicitThreads || *mining_threads < 0 ||
      *mining_threads > kMaxExplicitThreads || *shard_parallelism < 0 ||
      *shard_parallelism > kMaxExplicitThreads || *cache_entries < 0 ||
      *registry_mb < 1 || *max_inflight_mines < 0 ||
      *max_inflight_mine_kb < 0) {
    return Status::InvalidArgument(
        "--threads/--mining-threads/--shard-parallelism must be in [0, " +
        std::to_string(kMaxExplicitThreads) +
        "], --cache-entries >= 0, --registry-mb >= 1, "
        "--max-inflight-mines/--max-inflight-mine-kb >= 0");
  }
  options.num_threads = static_cast<int>(*threads);
  options.mining_threads = static_cast<int>(*mining_threads);
  options.shard_parallelism = static_cast<int>(*shard_parallelism);
  options.cache.max_entries = *cache_entries;
  options.registry.memory_budget_bytes = *registry_mb * (int64_t{1} << 20);
  options.max_inflight_mines = static_cast<int>(*max_inflight_mines);
  options.max_inflight_mine_bytes = *max_inflight_mine_kb * 1024;
  options.slow_request_ms = *slow_request_ms;
  options.slow_log_path = args.GetString("slow-log-file");
  return options;
}

int RunBatch(const Args& args) {
  Status known = args.CheckKnown({"requests", "out-dir", "threads",
                                  "mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb", "csv",
                                  "slow-request-ms", "slow-log-file"});
  if (!known.ok()) return Fail(known);
  const std::string requests_path = args.GetString("requests");
  if (requests_path.empty()) {
    return Fail(Status::InvalidArgument("batch requires --requests FILE"));
  }
  const std::string out_dir = args.GetString("out-dir");
  const bool csv = args.Has("csv");

  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args);
  if (!service_options.ok()) return Fail(service_options.status());

  StatusOr<std::vector<RequestFileLine>> lines =
      ReadRequestFile(requests_path);
  if (!lines.ok()) return Fail(lines.status());

  std::vector<MineRequest> requests;
  requests.reserve(lines->size());
  for (const RequestFileLine& line : *lines) {
    StatusOr<MineRequest> request = ParseRequestLine(line.text);
    if (!request.ok()) {
      return Fail(Status::InvalidArgument(
          requests_path + ":" + std::to_string(line.line_number) + ": " +
          request.status().message()));
    }
    requests.push_back(*std::move(request));
  }

  MiningService service(*service_options);
  std::vector<MiningResponse> responses = service.MineBatch(requests);

  TablePrinter table({"request", "dataset", "source", "registry", "patterns",
                      "iterations", "ms"});
  int64_t failed = 0;
  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const MiningResponse& response = responses[i];
    if (!response.status.ok()) ++failed;
    if (response.source == ResponseSource::kCache) ++cache_hits;
    if (response.source == ResponseSource::kCoalesced) ++coalesced;
    table.AddRow(
        {std::to_string(i + 1), requests[i].dataset_path,
         ResponseSourceName(response.source),
         response.status.ok() ? (response.dataset_registry_hit ? "hit"
                                                               : "load")
                              : "-",
         response.result ? std::to_string(response.result->patterns.size())
                         : "-",
         response.result ? std::to_string(response.result->iterations) : "-",
         TablePrinter::FormatDouble(response.seconds * 1e3, 3)});
    if (!response.status.ok()) {
      std::fprintf(stderr, "request %zu failed: %s\n", i + 1,
                   response.status.ToString().c_str());
    }
  }
  if (csv) {
    table.PrintCsv(std::cout);
  } else {
    table.Print(std::cout);
  }

  if (!out_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(out_dir, error);
    if (error) {
      return Fail(Status::Internal("cannot create --out-dir " + out_dir +
                                   ": " + error.message()));
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      if (!responses[i].result) continue;
      char name[48];  // room for any size_t
      std::snprintf(name, sizeof(name), "response_%04zu.txt", i + 1);
      const std::string path = out_dir + "/" + name;
      Status written = WritePatternsFile(
          ToFrequentItemsets(responses[i].result->patterns), path);
      if (!written.ok()) return Fail(written);
    }
    std::printf("wrote %zu response file(s) to %s\n", responses.size(),
                out_dir.c_str());
  }

  const ResultCacheStats cache = service.cache_stats();
  const DatasetRegistryStats registry = service.registry_stats();
  std::printf(
      "batch: %zu request(s), cache_hits=%lld coalesced=%lld failed=%lld "
      "cache_entries=%lld dataset_loads=%lld dataset_hits=%lld\n",
      responses.size(), static_cast<long long>(cache_hits),
      static_cast<long long>(coalesced), static_cast<long long>(failed),
      static_cast<long long>(cache.entries),
      static_cast<long long>(registry.loads),
      static_cast<long long>(registry.hits));
  return failed == 0 ? 0 : 1;
}

int RunDaemon(const Args& args) {
  Status known = args.CheckKnown({"mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb",
                                  "no-patterns", "max-inflight-mines",
                                  "max-inflight-mine-kb", "slow-request-ms",
                                  "slow-log-file"});
  if (!known.ok()) return Fail(known);
  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args);
  if (!service_options.ok()) return Fail(service_options.status());
  const bool print_patterns = !args.Has("no-patterns");

  MiningService service(*service_options);
  std::string line;
  while (std::getline(std::cin, line)) {
    ServeOutcome outcome = DispatchServeLine(service, line, "stdin");
    switch (outcome.kind) {
      case ServeOutcome::Kind::kEmpty:
        continue;
      case ServeOutcome::Kind::kQuit:
      case ServeOutcome::Kind::kShutdown:  // no transport to stop: quit
        return 0;
      case ServeOutcome::Kind::kStats:
        std::printf("%s\n", outcome.stats_line.c_str());
        break;
      case ServeOutcome::Kind::kMetrics:
        // Exposition text, then the same '.' terminator patterns use, so
        // line-oriented consumers know where the block ends.
        std::fputs(outcome.metrics_text.c_str(), stdout);
        std::printf(".\n");
        break;
      case ServeOutcome::Kind::kDebug:
        // recent/trace: flight-recorder JSON, '.'-terminated like
        // metrics so line-oriented consumers know where it ends.
        if (!outcome.debug_status.ok()) {
          std::printf("error: %s\n", outcome.debug_status.ToString().c_str());
          break;
        }
        std::fputs(outcome.debug_text.c_str(), stdout);
        std::printf(".\n");
        break;
      case ServeOutcome::Kind::kResponse:
        if (!outcome.response.status.ok()) {
          std::printf("error: %s id=%llu\n",
                      outcome.response.status.ToString().c_str(),
                      static_cast<unsigned long long>(outcome.request_id));
          break;
        }
        std::printf("%s\n",
                    FormatResponseHeader(outcome.response, outcome.request_id)
                        .c_str());
        if (print_patterns) {
          std::fputs(outcome.patterns_rendered
                         ? outcome.patterns_payload.c_str()
                         : RenderPatternsPayload(outcome.response).c_str(),
                     stdout);
          std::printf(".\n");
        }
        break;
    }
    std::fflush(stdout);
  }
  return 0;
}

// SIGINT/SIGTERM → graceful stop (RequestStop is async-signal-safe).
TcpServer* g_listen_server = nullptr;
HttpServer* g_http_server = nullptr;

void HandleStopSignal(int) {
  if (g_listen_server != nullptr) g_listen_server->RequestStop();
  if (g_http_server != nullptr) g_http_server->RequestStop();
}

int RunListen(const Args& args) {
  Status known = args.CheckKnown({"port", "host", "threads",
                                  "mining-threads", "shard-parallelism",
                                  "cache-entries", "registry-mb",
                                  "no-patterns", "max-connections",
                                  "max-line-kb", "http-port", "http-pipeline",
                                  "max-inflight-mines",
                                  "max-inflight-mine-kb", "slow-request-ms",
                                  "slow-log-file"});
  if (!known.ok()) return Fail(known);
  StatusOr<MiningServiceOptions> service_options =
      ServiceOptionsFromArgs(args);
  if (!service_options.ok()) return Fail(service_options.status());
  const bool send_patterns = !args.Has("no-patterns");

  StatusOr<int64_t> port = args.GetInt("port", -1);
  if (!port.ok()) return Fail(port.status());
  StatusOr<int64_t> max_connections = args.GetInt("max-connections", 64);
  if (!max_connections.ok()) return Fail(max_connections.status());
  StatusOr<int64_t> max_line_kb = args.GetInt("max-line-kb", 1024);
  if (!max_line_kb.ok()) return Fail(max_line_kb.status());
  // --http-port absent → TCP only; present (0 = auto) → HTTP alongside.
  const bool http_enabled = args.Has("http-port");
  StatusOr<int64_t> http_port = args.GetInt("http-port", 0);
  if (!http_port.ok()) return Fail(http_port.status());
  StatusOr<int64_t> http_pipeline = args.GetInt("http-pipeline", 8);
  if (!http_pipeline.ok()) return Fail(http_pipeline.status());
  if (*port < 0 || *port > 65535 || *max_connections < 1 ||
      *max_line_kb < 1 || *http_port < 0 || *http_port > 65535 ||
      *http_pipeline < 1 || *http_pipeline > 256) {
    return Fail(Status::InvalidArgument(
        "listen requires --port/--http-port in [0, 65535] (0 = auto), "
        "--max-connections >= 1, --max-line-kb >= 1, "
        "--http-pipeline in [1, 256]"));
  }

  TcpServerOptions server_options;
  server_options.host = args.GetString("host", "127.0.0.1");
  server_options.port = static_cast<int>(*port);
  // The handler pool is the request-level fan-out, exactly like batch
  // --threads; mining threads per request come from the service.
  server_options.num_threads = service_options->num_threads;
  server_options.max_connections = static_cast<int>(*max_connections);
  server_options.max_line_bytes = *max_line_kb * 1024;

  MiningService service(*service_options);
  // Both front ends register their transport counters in the service
  // registry so the `metrics` control word / GET /metrics exposition
  // covers colossal_tcp_* and colossal_http_* alongside the service.
  server_options.metrics = &service.metrics();
  TcpServer server(
      server_options,
      [&service, send_patterns](const std::string& line) {
        return FrameTcpReply(DispatchServeLine(service, line, "tcp"),
                             send_patterns);
      },
      // Transport faults go through the service overload so they mint a
      // request id and land in the flight recorder too.
      [&service](const Status& status) {
        return FrameTcpError(service, status);
      });

  std::unique_ptr<HttpServer> http_server;
  if (http_enabled) {
    HttpServerOptions http_options;
    http_options.host = server_options.host;
    http_options.port = static_cast<int>(*http_port);
    http_options.num_threads = service_options->num_threads;
    http_options.max_connections = static_cast<int>(*max_connections);
    http_options.max_pipeline = static_cast<int>(*http_pipeline);
    http_options.metrics = &service.metrics();
    http_server = std::make_unique<HttpServer>(
        http_options,
        [&service, send_patterns](const HttpRequest& request) {
          return HandleHttpRequest(service, request, send_patterns);
        });
  }

  Status started = server.Start();
  if (!started.ok()) return Fail(started);
  if (http_server != nullptr) {
    Status http_started = http_server->Start();
    if (!http_started.ok()) {
      server.Shutdown();
      return Fail(http_started);
    }
  }

  g_listen_server = &server;
  g_http_server = http_server.get();
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  std::printf("listening host=%s port=%d\n", server_options.host.c_str(),
              server.port());
  if (http_server != nullptr) {
    std::printf("listening http host=%s port=%d\n",
                server_options.host.c_str(), http_server->port());
  }
  std::fflush(stdout);

  // A `shutdown` can arrive over either front end; whichever server
  // stops first takes the other down with it.
  std::thread http_waiter;
  if (http_server != nullptr) {
    HttpServer* http = http_server.get();
    TcpServer* tcp = &server;
    http_waiter = std::thread([http, tcp]() {
      http->Wait();
      tcp->RequestStop();
    });
  }
  server.Wait();
  if (http_server != nullptr) {
    http_server->RequestStop();
    http_waiter.join();
  }

  const TcpServerStats stats = server.stats();
  std::printf(
      "stopped accepted=%lld rejected=%lld lines=%lld oversized=%lld\n",
      static_cast<long long>(stats.accepted),
      static_cast<long long>(stats.rejected),
      static_cast<long long>(stats.lines_dispatched),
      static_cast<long long>(stats.oversized_lines));
  if (http_server != nullptr) {
    const TcpServerStats http_stats = http_server->stats();
    std::printf(
        "stopped http accepted=%lld rejected=%lld requests=%lld "
        "framing_errors=%lld\n",
        static_cast<long long>(http_stats.accepted),
        static_cast<long long>(http_stats.rejected),
        static_cast<long long>(http_stats.lines_dispatched),
        static_cast<long long>(http_stats.oversized_lines));
  }
  g_http_server = nullptr;
  g_listen_server = nullptr;
  return 0;
}

// Serves every heap block of 256 KiB or more from its own mapping, which
// goes back to the kernel when the block is freed. Such blocks live for
// one mine (level and pool columns, ball buffers).
// glibc instead raises its mmap threshold to the largest block freed so
// far, after which those blocks come from the heap and strand pages
// between long-lived cache entries: the resident set then depends on the
// order requests ran in rather than on what the server holds. Blocks of
// 256 KiB to 1 MiB strand pages just the same, and with packed level and
// pool rows most per-mine blocks on the microarray are that size.
// Smaller blocks stay on the heap: mapped, a dataset load's read buffers
// fault in page by page on every load.
void PinLargeBlocksToMmap() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 256 << 10);
#endif
}

int Main(int argc, char** argv) {
  PinLargeBlocksToMmap();
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  StatusOr<Args> args =
      Args::Parse(argc, argv, 2, {"csv", "no-patterns"});
  if (!args.ok()) return Fail(args.status());
  if (args->HelpRequested()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (command == "batch") return RunBatch(*args);
  if (command == "daemon") return RunDaemon(*args);
  if (command == "listen") return RunListen(*args);
  return Fail(Status::InvalidArgument("unknown command '" + command +
                                      "' (want batch|daemon|listen)"));
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
