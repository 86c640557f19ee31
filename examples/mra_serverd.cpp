// The mra query server daemon: serves a (optionally durable) database to
// concurrent XRA clients over the binary wire protocol (docs/SERVER.md).
//
//   $ ./build/examples/mra_serverd --port 7411 --dir /var/lib/mra
//   mra_serverd listening on 127.0.0.1:7411
//
// Connect with the REPL:  ./build/examples/xra_repl --connect 127.0.0.1:7411
//
// Stops on SIGTERM/SIGINT or a client Shutdown frame, draining in-flight
// requests before exiting (and checkpointing a durable database so the
// next start recovers without WAL replay).

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "mra/common/config.h"
#include "mra/fault/failpoint.h"
#include "mra/net/server.h"
#include "mra/obs/op_metrics.h"
#include "mra/obs/slow_log.h"
#include "mra/obs/trace.h"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

void Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --host H                bind address (default 127.0.0.1)\n"
      << "  --port N                TCP port; 0 picks one (default 7411)\n"
      << "  --dir PATH              durable database directory (default: "
         "in-memory)\n"
      << "  --max-sessions N        concurrent session cap (default 64)\n"
      << "  --request-timeout-ms N  per-request deadline (default 30000)\n"
      << "  --idle-timeout-ms N     reap idle sessions after N ms; 0 keeps "
         "them (default 300000)\n"
      << "  --shed-grace-ms N       shed with Busy after N ms at the session "
         "cap; negative queues forever (default 1000)\n"
      << "  --busy-retry-after-ms N retry-after hint in Busy frames "
         "(default 200)\n"
      << "  --slow-query-ms N       log queries at/over N ms to the "
         "slow-query log (\\slowlog; 0 logs all, default -1 = off)\n"
      << "  --trace                 record trace spans server-side "
         "(\\trace <id> in a connected REPL pulls them by query id)\n"
      << "  --exec-timing / --no-exec-timing\n"
      << "                          per-operator wall-time measurement "
         "(default on; feeds the stats trailer and exec.op_batch_us)\n"
      << "  --salvage-wal           recover the intact prefix of a corrupt "
         "WAL instead of refusing to start\n"
      << "  --failpoints SPEC       arm fault-injection sites, e.g. "
         "\"wal.sync=error:after=3\" (docs/RECOVERY.md)\n"
      << "Execution knobs (the ExecConfig registry — also settable per "
         "session with `set <knob> = <value>;`; docs/PARALLELISM.md):\n"
      << mra::ConfigFlagHelp()
      << "  (--statement-timeout-ms 0 derives the deadline from "
         "--request-timeout-ms; docs/GOVERNANCE.md)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mra;  // NOLINT — example brevity

  DatabaseOptions db_options;
  net::ServerOptions options;
  options.port = 7411;
  // Operator timing on by default: it is what makes the per-query stats
  // trailer and exec.op_batch_us meaningful, and bench/e17_obs_overhead
  // pins its cost under 3%.  --no-exec-timing turns it off.
  bool exec_timing = true;

  // ExecConfig-owned flags (--workers, --morsel-size, --statement-timeout-ms,
  // …) route through the shared registry; the loop below only sees the
  // server-specific remainder.
  if (Status flags = ParseConfigFlags(&argc, argv, &options.interpreter);
      !flags.ok()) {
    std::cerr << flags.ToString() << "\n";
    return 2;
  }

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      options.host = next();
    } else if (arg == "--port") {
      options.port = static_cast<uint16_t>(std::atoi(next()));
    } else if (arg == "--dir") {
      db_options.directory = next();
    } else if (arg == "--max-sessions") {
      options.max_sessions = std::atoi(next());
    } else if (arg == "--request-timeout-ms") {
      options.request_timeout_ms = std::atoi(next());
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms = std::atoi(next());
    } else if (arg == "--shed-grace-ms") {
      options.shed_grace_ms = std::atoi(next());
    } else if (arg == "--busy-retry-after-ms") {
      options.busy_retry_after_ms =
          static_cast<uint32_t>(std::atoi(next()));
    } else if (arg == "--slow-query-ms") {
      obs::SlowQueryLog::Global().SetThresholdMs(
          std::strtoll(next(), nullptr, 10));
    } else if (arg == "--trace") {
      obs::Tracer::Global().SetEnabled(true);
    } else if (arg == "--exec-timing") {
      exec_timing = true;
    } else if (arg == "--no-exec-timing") {
      exec_timing = false;
    } else if (arg == "--salvage-wal") {
      db_options.salvage_wal = true;
    } else if (arg == "--failpoints") {
      Status armed =
          fault::FaultRegistry::Global().ConfigureFromSpec(next());
      if (!armed.ok()) {
        std::cerr << "bad --failpoints spec: " << armed.ToString() << "\n";
        return 2;
      }
    } else {
      Usage(argv[0]);
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  obs::SetExecTiming(exec_timing);

  auto db_or = Database::Open(db_options);
  if (!db_or.ok()) {
    std::cerr << "cannot open database: " << db_or.status().ToString() << "\n";
    return 1;
  }
  std::unique_ptr<Database> db = std::move(*db_or);

  net::Server server(db.get(), options);
  Status started = server.Start();
  if (!started.ok()) {
    std::cerr << "cannot start server: " << started.ToString() << "\n";
    return 1;
  }

  std::signal(SIGTERM, OnSignal);
  std::signal(SIGINT, OnSignal);

  std::cout << "mra_serverd listening on " << options.host << ":"
            << server.port()
            << (db_options.directory.empty()
                    ? " (in-memory database)"
                    : " (durable database at " + db_options.directory + ")")
            << std::endl;

  // The signal handler can only set a flag; this loop turns the flag (or a
  // client-initiated drain) into the actual shutdown.
  while (g_signal == 0 && !server.draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::cout << "draining..." << std::endl;
  server.Shutdown();

  if (!db_options.directory.empty()) {
    Status cp = db->Checkpoint();
    if (!cp.ok()) std::cerr << "checkpoint failed: " << cp.ToString() << "\n";
  }
  std::cout << "bye." << std::endl;
  return 0;
}
