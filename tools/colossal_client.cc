// colossal_client — reference client for colossal_serve's TCP mode.
//
// usage: colossal_client --port N [--host H]
//            (--request 'LINE' | --requests FILE) [--out-dir DIR]
//            [--stats] [--metrics] [--shutdown] [--quiet]
//
// Connects to a `colossal_serve listen` server and replays either one
// request line (--request) or a batch file (--requests; same format as
// `colossal_serve batch`: one request per line, '#' comments and blank
// lines skipped) over a single connection, in order.
//
// Responses use the counted framing documented in tools/colossal_serve.cc:
// one status line ending in bytes=B, then exactly B payload bytes. For
// each response the client prints the status line; payloads go to stdout
// (one-shot mode, unless --quiet) or to --out-dir/response_<i>.txt in
// batch mode — the same naming batch mode uses, so the CI net-smoke job
// can diff the two byte-for-byte.
//
// After the requests, --stats fetches and prints the one-line server
// statistics, --metrics fetches and prints the full Prometheus-style
// text exposition, and --shutdown stops the server gracefully. Batch
// mode ends with
//   client: N request(s) cache_hits=X coalesced=Y failed=Z
// and the exit status is nonzero if any request failed or the server
// broke framing.

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/status.h"
#include "net/socket_io.h"
#include "service/dispatch.h"

namespace colossal {
namespace {

constexpr const char kUsage[] =
    "usage: colossal_client --port N [--host H]\n"
    "           (--request 'LINE' | --requests FILE) [--out-dir DIR]\n"
    "           [--stats] [--metrics] [--shutdown] [--quiet]\n"
    "replays request lines against a 'colossal_serve listen' server\n"
    "(see the header of tools/colossal_client.cc for details)\n";

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Status WriteFile(const std::string& path, const std::string& data) {
  std::ofstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open for writing: " + path);
  file.write(data.data(), static_cast<std::streamsize>(data.size()));
  if (!file) return Status::Internal("short write: " + path);
  return Status::Ok();
}

int Main(int argc, char** argv) {
  StatusOr<Args> parsed =
      Args::Parse(argc, argv, 1, {"stats", "metrics", "shutdown", "quiet"});
  if (!parsed.ok()) return Fail(parsed.status());
  const Args& args = *parsed;
  if (args.HelpRequested()) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  Status known =
      args.CheckKnown({"port", "host", "request", "requests", "out-dir",
                       "stats", "metrics", "shutdown", "quiet"});
  if (!known.ok()) return Fail(known);

  StatusOr<int64_t> port = args.GetInt("port", 0);
  if (!port.ok()) return Fail(port.status());
  const std::string host = args.GetString("host", "127.0.0.1");
  const std::string request = args.GetString("request");
  const std::string requests_path = args.GetString("requests");
  const std::string out_dir = args.GetString("out-dir");
  const bool quiet = args.Has("quiet");
  const bool batch_mode = !requests_path.empty();

  if (*port < 1 || *port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [1, 65535]"));
  }
  if (request.empty() == requests_path.empty() &&
      !(request.empty() && (args.Has("stats") || args.Has("metrics") ||
                            args.Has("shutdown")))) {
    return Fail(Status::InvalidArgument(
        "need exactly one of --request LINE or --requests FILE "
        "(or only --stats/--metrics/--shutdown)"));
  }

  std::vector<std::string> lines;
  if (batch_mode) {
    // Shared with colossal_serve batch, so both front ends replay the
    // same request set from the same file.
    StatusOr<std::vector<RequestFileLine>> from_file =
        ReadRequestFile(requests_path);
    if (!from_file.ok()) return Fail(from_file.status());
    for (RequestFileLine& line : *from_file) {
      lines.push_back(std::move(line.text));
    }
  } else if (!request.empty()) {
    lines.push_back(request);
  }

  StatusOr<int> dial = DialTcp(host, static_cast<int>(*port));
  if (!dial.ok()) return Fail(dial.status());
  const int fd = *dial;
  SocketReader reader(fd);

  int64_t cache_hits = 0;
  int64_t coalesced = 0;
  int64_t failed = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    Status sent = WriteAll(fd, lines[i] + "\n");
    if (!sent.ok()) {
      ::close(fd);
      return Fail(sent);
    }
    StatusOr<TcpFrame> frame = ReadTcpFrame(reader);
    if (!frame.ok()) {
      ::close(fd);
      return Fail(frame.status());
    }
    std::printf("%s\n", frame->header.c_str());
    if (!frame->ok) {
      ++failed;
      std::fprintf(stderr, "request %zu failed: %s", i + 1,
                   frame->payload.c_str());
    } else {
      if (frame->source == "cache") ++cache_hits;
      if (frame->source == "coalesced") ++coalesced;
      if (batch_mode && !out_dir.empty()) {
        char name[48];  // room for any size_t
        std::snprintf(name, sizeof(name), "response_%04zu.txt", i + 1);
        Status written = WriteFile(out_dir + "/" + name, frame->payload);
        if (!written.ok()) {
          ::close(fd);
          return Fail(written);
        }
      } else if (!batch_mode && !quiet) {
        std::fputs(frame->payload.c_str(), stdout);
      }
    }
    std::fflush(stdout);
  }

  if (args.Has("stats")) {
    Status sent = WriteAll(fd, "stats\n");
    StatusOr<TcpFrame> frame =
        sent.ok() ? ReadTcpFrame(reader) : StatusOr<TcpFrame>(sent);
    if (!frame.ok()) {
      ::close(fd);
      return Fail(frame.status());
    }
    std::printf("%s\n", frame->header.c_str());
  }

  if (args.Has("metrics")) {
    Status sent = WriteAll(fd, "metrics\n");
    StatusOr<TcpFrame> frame =
        sent.ok() ? ReadTcpFrame(reader) : StatusOr<TcpFrame>(sent);
    if (!frame.ok()) {
      ::close(fd);
      return Fail(frame.status());
    }
    // The exposition text is the payload; the header only carries the
    // byte count, so print the text itself.
    std::fputs(frame->payload.c_str(), stdout);
  }

  if (args.Has("shutdown")) {
    Status sent = WriteAll(fd, "shutdown\n");
    StatusOr<TcpFrame> frame =
        sent.ok() ? ReadTcpFrame(reader) : StatusOr<TcpFrame>(sent);
    if (!frame.ok()) {
      ::close(fd);
      return Fail(frame.status());
    }
    std::printf("%s\n", frame->header.c_str());
  }

  ::close(fd);
  if (batch_mode) {
    std::printf("client: %zu request(s) cache_hits=%lld coalesced=%lld "
                "failed=%lld\n",
                lines.size(), static_cast<long long>(cache_hits),
                static_cast<long long>(coalesced),
                static_cast<long long>(failed));
  }
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace colossal

int main(int argc, char** argv) { return colossal::Main(argc, argv); }
