// drepair_server — long-lived repair-as-a-service daemon over a
// snapshot+WAL persistent store (see src/service/).
//
// Usage:
//   drepair_server --store <dir> --program <file>
//                  [--init-data <csvdir>] [--port <n>] [--port-file <p>]
//                  [--workers <n>] [--max-queue <n>]
//                  [--default-budget-ms <n>] [--max-budget-ms <n>]
//                  [--sync-wal] [--compact-on-start]
//                  [--no-incremental] [--cold-fallback-fraction <f>]
//                  [--log-level <lvl>] [--trace] [--trace-sample <n>]
//                  [--slow-request-ms <n>]
//
//   --store        store directory (snapshot.drs + wal.drl)
//   --program      delta-rule file, resolved once at startup
//   --init-data    bootstrap: when the store has no snapshot yet, import
//                  this directory of <Relation>.csv files and write the
//                  initial snapshot; without it the store must exist
//   --port         TCP port on 127.0.0.1 (default 0 = ephemeral)
//   --port-file    write the bound port to this file once listening
//   --workers      connection worker threads (default 4)
//   --max-queue    admission-control queue bound (default 64)
//   --default-budget-ms  budget applied to requests that carry none
//   --max-budget-ms      upper clamp on any request's budget
//   --sync-wal     fsync every WAL append (crash-durable updates)
//   --compact-on-start   fold the recovered WAL into a fresh snapshot
//   --no-incremental     serve every request cold (per-request snapshot
//                        re-ground) instead of from warm delta-aware
//                        engine state
//   --cold-fallback-fraction <f>  delta fraction in [0, 1] above which
//                        the warm engine re-snapshots its view instead
//                        of maintaining it (default 0.25; 0 never does)
//   --log-level    debug|info|warn|error|off: switch to structured
//                  stderr logging at that threshold (one line per
//                  request with timestamp, level and trace id). Without
//                  it the lifecycle lines print to stdout exactly as
//                  before and per-request logging is off.
//   --trace        enable in-process span recording at startup (the
//                  rings are always scrapable via `drepair_client
//                  trace`, but stay empty until enabled)
//   --trace-sample <n>   record only 1-in-n request trace ids
//   --slow-request-ms <n>  retain the span tree of requests slower than
//                  this in the flight recorder (stats frame)
//
// SIGTERM/SIGINT drain gracefully: stop accepting, serve the queue dry,
// exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "datalog/parser.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "relation/csv.h"
#include "service/server.h"
#include "service/snapshot.h"

namespace fs = std::filesystem;
using namespace deltarepair;

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --store <dir> --program <file> "
               "[--init-data <csvdir>] [--port <n>] [--port-file <p>] "
               "[--workers <n>] [--max-queue <n>] "
               "[--default-budget-ms <n>] [--max-budget-ms <n>] "
               "[--sync-wal] [--compact-on-start] [--no-incremental] "
               "[--cold-fallback-fraction <f>] [--log-level <lvl>] "
               "[--trace] [--trace-sample <n>] [--slow-request-ms <n>]\n",
               argv0);
  return 2;
}

bool ParseUint(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

Status ImportCsvDir(const std::string& data_dir, Database* db) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(data_dir, ec)) {
    if (entry.path().extension() == ".csv") {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    return Status::InvalidArgument("cannot read " + data_dir + ": " +
                                   ec.message());
  }
  std::sort(files.begin(), files.end());
  for (const std::string& path : files) {
    DR_RETURN_IF_ERROR(LoadCsvFile(db, path));
  }
  if (db->num_relations() == 0) {
    return Status::InvalidArgument("no .csv files found in " + data_dir);
  }
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  std::string store_dir, program_path, init_data, port_file;
  uint64_t port = 0, workers = 4, max_queue = 64;
  uint64_t default_budget_ms = 0, max_budget_ms = 0;
  bool sync_wal = false, compact_on_start = false;
  bool incremental = true;
  double cold_fallback_fraction = 0.25;
  bool trace = false;
  uint64_t trace_sample = 1, slow_request_ms = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--store") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      store_dir = v;
    } else if (arg == "--program") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      program_path = v;
    } else if (arg == "--init-data") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      init_data = v;
    } else if (arg == "--port-file") {
      const char* v = next();
      if (!v) return Usage(argv[0]);
      port_file = v;
    } else if (arg == "--port") {
      if (!ParseUint(next(), &port) || port > 65535) return Usage(argv[0]);
    } else if (arg == "--workers") {
      if (!ParseUint(next(), &workers) || workers == 0 || workers > 256) {
        return Usage(argv[0]);
      }
    } else if (arg == "--max-queue") {
      if (!ParseUint(next(), &max_queue) || max_queue == 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--default-budget-ms") {
      if (!ParseUint(next(), &default_budget_ms)) return Usage(argv[0]);
    } else if (arg == "--max-budget-ms") {
      if (!ParseUint(next(), &max_budget_ms)) return Usage(argv[0]);
    } else if (arg == "--sync-wal") {
      sync_wal = true;
    } else if (arg == "--compact-on-start") {
      compact_on_start = true;
    } else if (arg == "--no-incremental") {
      incremental = false;
    } else if (arg == "--log-level") {
      const char* v = next();
      LogLevel level;
      if (v == nullptr || !Log::ParseLevel(v, &level)) {
        return Usage(argv[0]);
      }
      Log::SetStructured(level);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-sample") {
      if (!ParseUint(next(), &trace_sample) || trace_sample == 0) {
        return Usage(argv[0]);
      }
    } else if (arg == "--slow-request-ms") {
      if (!ParseUint(next(), &slow_request_ms)) return Usage(argv[0]);
    } else if (arg == "--cold-fallback-fraction") {
      const char* v = next();
      char* end = nullptr;
      cold_fallback_fraction = v != nullptr ? std::strtod(v, &end) : -1;
      // Written so that NaN fails too: it compares false both ways.
      if (v == nullptr || end == v || *end != '\0' ||
          !(cold_fallback_fraction >= 0 && cold_fallback_fraction <= 1)) {
        return Usage(argv[0]);
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return Usage(argv[0]);
    }
  }
  if (store_dir.empty() || program_path.empty()) return Usage(argv[0]);

  if (trace) Trace::Enable(true);
  Trace::SetSamplePeriod(trace_sample);

  // Bootstrap or recover the persistent store.
  StoreOptions store_options;
  store_options.sync_wal = sync_wal;
  std::unique_ptr<PersistentStore> store;
  {
    std::ifstream probe(PersistentStore::SnapshotPath(store_dir),
                        std::ios::binary);
    bool have_snapshot = static_cast<bool>(probe);
    if (!have_snapshot && !init_data.empty()) {
      std::error_code ec;
      fs::create_directories(store_dir, ec);
      Database db;
      Status st = ImportCsvDir(init_data, &db);
      if (!st.ok()) {
        std::fprintf(stderr, "init: %s\n", st.ToString().c_str());
        return 1;
      }
      StatusOr<std::unique_ptr<PersistentStore>> created =
          PersistentStore::Create(store_dir, std::move(db), store_options);
      if (!created.ok()) {
        std::fprintf(stderr, "store: %s\n",
                     created.status().ToString().c_str());
        return 1;
      }
      store = std::move(created).value();
      Log::Startup("initialized store %s from %s", store_dir.c_str(),
                   init_data.c_str());
    } else {
      StatusOr<std::unique_ptr<PersistentStore>> opened =
          PersistentStore::Open(store_dir, store_options);
      if (!opened.ok()) {
        std::fprintf(stderr, "store: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      store = std::move(opened).value();
      const WalReplayStats& rs = store->recovery_stats();
      Log::Startup("recovered store %s: %zu WAL records replayed"
                   " (%zu tuples, coalesced into %zu delta batches),"
                   " %zu torn-tail bytes dropped",
                   store_dir.c_str(), rs.records_applied,
                   rs.tuples_applied, rs.batches_applied,
                   rs.bytes_dropped);
    }
  }
  Log::Startup("store: %zu relations, %zu live tuples",
               store->db().num_relations(), store->db().TotalLive());

  if (compact_on_start) {
    Status st = store->Compact();
    if (!st.ok()) {
      std::fprintf(stderr, "compact: %s\n", st.ToString().c_str());
      return 1;
    }
    Log::Startup("compacted WAL into a fresh snapshot");
  }

  // Parse + resolve the program.
  std::ifstream in(program_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", program_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StatusOr<Program> program = ParseProgram(buffer.str());
  if (!program.ok()) {
    std::fprintf(stderr, "program: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }

  ServerOptions server_options;
  server_options.port = static_cast<int>(port);
  server_options.workers = static_cast<int>(workers);
  server_options.max_queue = static_cast<size_t>(max_queue);
  server_options.default_budget_seconds =
      static_cast<double>(default_budget_ms) / 1e3;
  server_options.max_budget_seconds =
      static_cast<double>(max_budget_ms) / 1e3;
  server_options.incremental = incremental;
  server_options.cold_fallback_fraction = cold_fallback_fraction;
  server_options.slow_request_seconds =
      static_cast<double>(slow_request_ms) / 1e3;

  StatusOr<std::unique_ptr<RepairServer>> server = RepairServer::Start(
      std::move(store), std::move(program).value(), server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  Log::Startup("listening on 127.0.0.1:%d (%llu workers, %s serving)",
               (*server)->port(),
               static_cast<unsigned long long>(workers),
               incremental ? "incremental" : "cold");
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::ofstream pf(port_file);
    pf << (*server)->port() << "\n";
    if (!pf) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
  }

  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);
  while (!g_shutdown) {
    struct timespec ts = {0, 50 * 1000 * 1000};  // 50ms
    nanosleep(&ts, nullptr);
  }
  Log::Startup("draining...");
  (*server)->Drain();
  RepairServer::Stats stats = (*server)->stats();
  Log::Startup("served %llu requests (%llu repair, %llu cqa, %llu update,"
               " %llu rejected, %llu errors)",
               static_cast<unsigned long long>(stats.served),
               static_cast<unsigned long long>(stats.repair_requests),
               static_cast<unsigned long long>(stats.cqa_requests),
               static_cast<unsigned long long>(stats.update_requests),
               static_cast<unsigned long long>(stats.rejected_overload),
               static_cast<unsigned long long>(stats.request_errors));
  return 0;
}
