// perfbench_driver — the compiled half of the repository benchmark
// (perfbench/run.py is the other). Every subcommand runs in the work
// directory of one run (its cwd) and prints one JSON object on stdout.
//
//   perfbench_driver gen    --workload W --seed S
//       writes the workload's datasets and prints its plan (server
//       flags, warm-up lines, connection count).
//   perfbench_driver drive  --workload W --seed S --seconds T
//                           [--hit-seconds H2] [--oracle-per-conn K]
//                           --tcp-port P --http-port H --server-pid PID
//       the untraced wire run against a warm colossal_serve listen: the
//       timed window, then (cold workloads) a hit phase of H2 seconds
//       over the keys the window mined, then the oracle over the first
//       K cold keys of every connection (default 4).
//   perfbench_driver traced --workload W --seed S --seconds T
//       the traced in-process run that yields the per-layer metrics.
#include <cstdio>
#include <string>
#include <thread>

#include "common/args.h"
#include "driver.h"

namespace perfbench {
namespace {

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver gen|drive|traced "
                         "--workload W --seed S [...]\n");
    return 2;
  }
  const std::string command = argv[1];
  colossal::StatusOr<colossal::Args> args =
      colossal::Args::Parse(argc, argv, 2, {});
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return 2;
  }
  colossal::StatusOr<int64_t> seed = args->GetInt("seed", 1);
  colossal::StatusOr<double> seconds = args->GetDouble("seconds", 10);
  colossal::StatusOr<double> hit_seconds = args->GetDouble("hit-seconds", 2);
  colossal::StatusOr<int64_t> tcp_port = args->GetInt("tcp-port", 0);
  colossal::StatusOr<int64_t> http_port = args->GetInt("http-port", 0);
  colossal::StatusOr<int64_t> pid = args->GetInt("server-pid", 0);
  colossal::StatusOr<int64_t> oracle_per_conn =
      args->GetInt("oracle-per-conn", 4);
  if (!seed.ok() || !seconds.ok() || !hit_seconds.ok() || !tcp_port.ok() || !http_port.ok() ||
      !pid.ok() || !oracle_per_conn.ok() || *oracle_per_conn < 1) {
    std::fprintf(stderr, "bad numeric flag\n");
    return 2;
  }
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  colossal::StatusOr<Workload> workload = Workload::Make(
      args->GetString("workload"), static_cast<uint64_t>(*seed), nproc);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 2;
  }
  if (command == "gen") return RunGen(*workload);
  if (command == "traced") return RunTraced(*workload, *seconds);
  if (command == "drive") {
    DriveOptions options;
    options.seconds = *seconds;
    options.hit_seconds = *hit_seconds;
    options.tcp_port = static_cast<int>(*tcp_port);
    options.http_port = static_cast<int>(*http_port);
    options.server_pid = static_cast<int>(*pid);
    options.oracle_per_conn = static_cast<int>(*oracle_per_conn);
    return RunDrive(*workload, options);
  }
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
