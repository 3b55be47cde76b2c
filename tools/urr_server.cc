// urr_server: the long-lived dispatch service. Builds its city-scale world
// (network, geo-social substrate, instance, recorded workload) with the
// same BuildSession recipe and shared flags as urr_engine, opens a live
// DispatchEngine session behind the framed JSON protocol (DESIGN.md §12)
// and serves SubmitRider / CancelRider / QueryStatus / Metrics /
// InjectFault / Shutdown requests from any number of concurrent
// connections.
//
// Under the default virtual clock, serving the recorded workload through
// the socket (urr_loadgen --mode replay) produces an event log
// byte-identical to `urr_engine` on the same flags — the smoke script and
// CI hold that differential.
//
// Examples:
//   urr_server --nodes 2000 --riders 200 --vehicles 40 --port 0
//              --port-file /tmp/port --log server_events.log
//   urr_server --index city.urrx --socket /tmp/urr.sock --steady-clock
//              --timescale 60 --max-queue 32
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "exp/session.h"
#include "server/server.h"

namespace urr {
namespace {

struct Options {
  SessionOptions session;
  bool arm_faults = false;   // install the overlay for live edge injection
  // Server.
  int port = 0;              // 0 = ephemeral; -1 = TCP off
  std::string socket_path;   // unix-domain socket ("" = off)
  std::string port_file;     // write the resolved TCP port here
  int max_sessions = 64;
  bool steady_clock = false; // wall-clock time stamps instead of virtual
  double timescale = 1.0;
  // Crash safety.
  std::string journal_dir;   // write-ahead journal + checkpoints ("" = off)
  std::string recover_dir;   // recover from this journal dir, then serve
  int checkpoint_every = 256;
  int dedup_window = 1 << 16;
  bool no_journal_fsync = false;
  // Output.
  std::string log_path;      // final event log after shutdown
  std::string fingerprint_path;  // final SolutionFingerprint after shutdown
  bool json = false;         // final EngineMetrics JSON on stdout

  void Register(FlagSet* flags) {
    FlagSet& f = *flags;
    session.Register(flags);
    f.Flag("--arm-faults", &arm_faults,
           "install the disruption overlay so inject_fault\n"
           "requests can disrupt edges at runtime");
    f.Section("server:");
    f.Flag("--port", "P", &port,
           "TCP on 127.0.0.1:P (0 = ephemeral, -1 = TCP off)");
    f.Flag("--socket", "PATH", &socket_path, "also listen on a unix socket");
    f.Flag("--port-file", "FILE", &port_file, "write the resolved TCP port");
    f.Flag("--max-sessions", "N", &max_sessions,
           "concurrent connections; excess ones wait in the\n"
           "listen backlog (backpressure)");
    f.Flag("--steady-clock", &steady_clock,
           "stamp requests with elapsed wall time instead of a\n"
           "\"time\" field (breaks replay identity)");
    f.Flag("--timescale", "X", &timescale,
           "steady clock: simulated seconds per real second");
    f.Section("crash safety (DESIGN.md #15):");
    f.Flag("--journal", "DIR", &journal_dir,
           "write-ahead journal + periodic checkpoints in DIR;\n"
           "a kill -9 loses no acknowledged request");
    f.Flag("--recover", "DIR", &recover_dir,
           "recover from DIR (checkpoint + journal suffix),\n"
           "then serve, appending to the same journal");
    f.Flag("--checkpoint-every", "N", &checkpoint_every,
           "journaled mutations between checkpoints (256)");
    f.Flag("--dedup-window", "N", &dedup_window,
           "cached responses kept for req_id dedup (65536)");
    f.Flag("--no-journal-fsync", &no_journal_fsync,
           "skip the per-record fdatasync (an OS crash may lose\n"
           "the newest records)");
    f.Section("output (after a graceful shutdown):");
    f.Flag("--log", "FILE", &log_path, "write the final event log");
    f.Flag("--fingerprint", "FILE", &fingerprint_path,
           "write the final SolutionFingerprint");
    f.Flag("--json", &json, "print the final EngineMetrics JSON");
    f.Text(
        "\nThe server runs until a client sends {\"op\":\"shutdown\"}.");
  }
};

Status Run(const Options& opt) {
  URR_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                       BuildSession(opt.session));
  session->engine.arm_overlay = opt.arm_faults;

  ServiceConfig scfg;
  scfg.virtual_clock = !opt.steady_clock;
  scfg.timescale = opt.timescale;
  if (!opt.journal_dir.empty() && !opt.recover_dir.empty() &&
      opt.journal_dir != opt.recover_dir) {
    return Status::InvalidArgument(
        "--journal and --recover name different directories");
  }
  scfg.journal_dir =
      opt.recover_dir.empty() ? opt.journal_dir : opt.recover_dir;
  scfg.recover = !opt.recover_dir.empty();
  scfg.checkpoint_every = opt.checkpoint_every;
  scfg.journal_fsync = !opt.no_journal_fsync;
  scfg.dedup_window = opt.dedup_window;
  AdmissionController admission(opt.max_sessions);
  DispatchService service(&session->workload, &session->ctx,
                          session->engine, scfg, &admission);
  URR_RETURN_NOT_OK(service.Start());
  if (scfg.recover) {
    std::fprintf(stderr, "recovered: %lld journaled mutation(s) total, %lld replayed past the checkpoint\n",
                 static_cast<long long>(service.journal_records()),
                 static_cast<long long>(service.recovered_replayed()));
  }

  ServerConfig svcfg;
  svcfg.port = opt.port;
  svcfg.unix_path = opt.socket_path;
  DispatchServer server(&service, &admission, svcfg);
  URR_RETURN_NOT_OK(server.Start());
  if (server.port() > 0) {
    std::printf("listening on 127.0.0.1:%d\n", server.port());
  }
  if (!opt.socket_path.empty()) {
    std::printf("listening on %s\n", opt.socket_path.c_str());
  }
  if (!opt.port_file.empty()) {
    URR_RETURN_NOT_OK(
        WriteFile(opt.port_file, std::to_string(server.port()) + "\n"));
  }
  std::fflush(stdout);

  server.Wait();          // returns once a shutdown request arrived
  URR_RETURN_NOT_OK(server.Stop());  // graceful drain + engine finish

  if (!opt.log_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.log_path, service.SerializedLog()));
    std::fprintf(stderr, "event log written to %s\n", opt.log_path.c_str());
  }
  if (!opt.fingerprint_path.empty()) {
    URR_RETURN_NOT_OK(WriteFile(opt.fingerprint_path,
                                service.engine().SolutionFingerprint() +
                                    "\n"));
    std::fprintf(stderr, "fingerprint written to %s\n",
                 opt.fingerprint_path.c_str());
  }
  if (opt.json) {
    std::printf("%s\n", service.MetricsJson().c_str());
  }
  return Status::OK();
}

}  // namespace
}  // namespace urr

int main(int argc, char** argv) {
  urr::Options options;
  urr::FlagSet flags("urr_server - long-lived utility-aware dispatch service");
  options.Register(&flags);
  return flags.Main(argc, argv, [&](const std::vector<std::string>&) {
    return urr::Run(options);
  });
}
