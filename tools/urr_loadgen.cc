// urr_loadgen: open-loop load generator and replay driver for urr_server.
//
// Modes:
//   --mode open    (default) fires submit_rider requests on a Poisson or
//                  two-peak arrival schedule over N connections against a
//                  --steady-clock server, and reports end-to-end latency
//                  percentiles (measured from the scheduled instant, so
//                  server-side queueing is not silently absorbed), goodput
//                  and the admission-control rejection rate.
//   --mode replay  fetches the server's recorded workload and drives every
//                  arrival/cancellation at its recorded virtual time over
//                  one connection. Against a virtual-clock server this
//                  reproduces the batch engine's event log byte for byte.
//
// Examples:
//   urr_loadgen --port $(cat /tmp/port) --rate 200 --duration 5
//               --connections 8 --json
//   urr_loadgen --port $(cat /tmp/port) --mode replay --shutdown
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "server/loadgen.h"

namespace urr {
namespace {

struct Options {
  int port = 0;
  std::string socket_path;
  std::string mode = "open";  // open | replay
  int connections = 4;
  double rate = 100;
  std::string profile = "const";  // const | peak
  double duration = 5;
  double cancel_fraction = 0;
  uint64_t seed = 1;
  int rider_offset = 0;
  int replay_limit = 0;   // replay only the first N schedule entries
  double timeout = 10;    // per-request socket timeout, seconds
  int max_retries = 4;    // attempts per request through reconnects
  bool shutdown = false;  // send {"op":"shutdown"} when done
  bool json = false;

  void Register(FlagSet* flags) {
    FlagSet& f = *flags;
    f.Section("target:");
    f.Flag("--port", "P", &port, "TCP 127.0.0.1:P");
    f.Flag("--socket", "PATH", &socket_path, "or a unix-domain socket");
    f.Section("mode:");
    f.Flag("--mode", "open|replay", &mode,
           "open loop (steady-clock server) or recorded-\n"
           "workload replay (virtual-clock server)");
    f.Section("open loop:");
    f.Flag("--connections", "N", &connections, "parallel connections (4)");
    f.Flag("--rate", "R", &rate, "mean requests per second (100)");
    f.Flag("--profile", "const|peak", &profile,
           "homogeneous Poisson or two-peak day profile");
    f.Flag("--duration", "S", &duration, "schedule length in seconds (5)");
    f.Flag("--cancel-fraction", "F", &cancel_fraction,
           "also cancel this share of riders shortly after");
    f.Flag("--rider-offset", "K", &rider_offset,
           "skip the first K riders of the server's universe");
    f.Flag("--seed", "S", &seed, "schedule seed");
    f.Section("replay:");
    f.Flag("--replay-limit", "N", &replay_limit,
           "send only the first N schedule entries");
    f.Section("resilience (retries carry idempotent req_ids):");
    f.Flag("--timeout", "S", &timeout, "per-request socket timeout (10 s)");
    f.Flag("--max-retries", "K", &max_retries,
           "attempts per request through reconnects (4)");
    f.Section("common:");
    f.Flag("--shutdown", &shutdown,
           "send {\"op\":\"shutdown\"} after the run");
    f.Flag("--json", &json, "print the report as one JSON object");
  }
};

Status Run(const Options& opt) {
  Endpoint endpoint;
  endpoint.port = opt.port;
  endpoint.unix_path = opt.socket_path;
  LoadGenReport report;
  if (opt.mode == "replay") {
    URR_ASSIGN_OR_RETURN(report,
                         RunReplay(endpoint, opt.shutdown, opt.replay_limit));
  } else if (opt.mode == "open") {
    LoadGenOptions lopt;
    lopt.connections = opt.connections;
    lopt.rate = opt.rate;
    lopt.profile = opt.profile;
    lopt.duration = opt.duration;
    lopt.seed = opt.seed;
    lopt.cancel_fraction = opt.cancel_fraction;
    lopt.rider_offset = opt.rider_offset;
    lopt.retry.request_timeout = opt.timeout;
    lopt.retry.max_attempts = opt.max_retries;
    URR_ASSIGN_OR_RETURN(report, RunOpenLoop(endpoint, lopt));
    if (opt.shutdown) {
      URR_ASSIGN_OR_RETURN(ClientConnection conn,
                           ClientConnection::Connect(endpoint));
      URR_ASSIGN_OR_RETURN(JsonValue resp,
                           conn.Call("{\"op\":\"shutdown\"}"));
      if (resp.GetInt("code", 0) != 200) {
        return Status::IOError("shutdown request failed");
      }
    }
  } else {
    return Status::InvalidArgument("unknown --mode " + opt.mode);
  }
  if (opt.json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    std::printf(
        "sent %lld | ok %lld (queued %lld, assigned %lld, infeasible %lld) | "
        "429 %lld | errors %lld\n",
        static_cast<long long>(report.sent), static_cast<long long>(report.ok),
        static_cast<long long>(report.queued),
        static_cast<long long>(report.assigned),
        static_cast<long long>(report.rejected_infeasible),
        static_cast<long long>(report.rejected_admission),
        static_cast<long long>(report.errors));
    std::printf(
        "served latency p50 %.1fms p95 %.1fms p99 %.1fms max %.1fms | "
        "shed p99 %.1fms | goodput %.1f/s | rejection %.1f%% | %.2fs "
        "elapsed\n",
        report.p50 * 1e3, report.p95 * 1e3, report.p99 * 1e3,
        report.max * 1e3, report.shed_p99 * 1e3, report.goodput,
        report.rejection_rate * 100, report.elapsed);
    if (report.reconnects > 0 || report.retries > 0) {
      std::printf("reconnects %lld | retries %lld | %.2fs in gaps\n",
                  static_cast<long long>(report.reconnects),
                  static_cast<long long>(report.retries),
                  report.gap_seconds);
    }
  }
  // Non-zero exit on transport errors so scripts and CI catch them.
  return report.errors == 0
             ? Status::OK()
             : Status::Internal(std::to_string(report.errors) +
                                " request(s) failed");
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options options;
  urr::FlagSet flags("urr_loadgen - open-loop load generator for urr_server");
  options.Register(&flags);
  return flags.Main(argc, argv, [&](const std::vector<std::string>&) {
    return urr::Run(options);
  });
}
