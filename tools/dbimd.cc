// dbimd — the measure-service daemon: MeasureSession over the wire.
//
// Usage:
//   dbimd --spec=constraints.dcs [--port=7411] [--workers=4] [--queue=256]
//         [--threads=N] [--measures=I_d,I_MI,...] [--mc]
//         [--window=count:N|ticks:N] [--approx=EPS]
//         [--data-dir=DIR] [--no-sync] [--wal-batch=64]
//         [--checkpoint-bytes=N]
//   dbimd --example [--port=7411] ...
//
// Hosts one MeasureSession (the spec's relation + denial constraints, one
// shared ValuePool) and serves the line protocol of src/service/protocol.h
// on 127.0.0.1: clients REGISTER named sessions, APPLY insert/delete/update
// operations (violations are maintained incrementally per operation), and
// EVALUATE measures at any point; concurrent connections are multiplexed
// through bounded per-session work queues with round-robin fairness. See
// README "Service" and tools/dbim_loadgen.cc for a traffic driver.
//
// --data-dir makes the daemon durable: every acknowledged operation is in
// the write-ahead log (group commit across sessions), checkpoints rewrite
// the columnar segments, and a restarted dbimd — including after kill -9 —
// recovers every registered session and serves bit-identical reports.
// Clients re-attach with REGISTER <session> ATTACH.
//
// --example serves the paper's running-example schema and FDs (no spec
// file needed — what the CI smoke test and loadgen examples use).
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "service/server.h"
#include "service/spec.h"
#include "storage/durable_store.h"

namespace {

using namespace dbim;

std::string FlagValue(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (StartsWith(argv[i], prefix)) return argv[i] + prefix.size();
  }
  return "";
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// Reads --name=N into *out when the flag is present. A non-numeric or
// out-of-range value (above `max`, e.g. a port past 65535) is rejected
// with an error line and false — never silently truncated to a wrong
// number.
template <typename T>
bool UintFlag(int argc, char** argv, const char* name, uint64_t max, T* out) {
  const std::string value = FlagValue(argc, argv, name);
  if (value.empty()) return true;
  uint64_t parsed = 0;
  if (!ParseUint(value, max, &parsed)) {
    std::fprintf(stderr,
                 "dbimd: invalid --%s=%s (want an integer in [0, %llu])\n",
                 name, value.c_str(), static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbimd --spec=constraints.dcs | --example\n"
      "             [--port=7411] [--workers=4] [--queue=256]\n"
      "             [--threads=N] [--measures=I_d,I_MI,...] [--mc]\n"
      "             [--window=count:N|ticks:N] [--approx=EPS]\n"
      "             [--data-dir=DIR] [--no-sync] [--wal-batch=64]\n"
      "             [--checkpoint-bytes=N]\n"
      "  --port=N     listen port on 127.0.0.1 (0 = ephemeral; the bound\n"
      "               port is printed on stdout)\n"
      "  --workers=N  worker threads draining session queues\n"
      "  --queue=N    per-session admission bound (full => ERR BUSY)\n"
      "  --threads=N  detection worker threads per evaluation\n"
      "  --window=count:N  sliding window keeping the newest N facts\n"
      "  --window=ticks:N  sliding window keeping facts from the last N\n"
      "               logical ticks (see streaming/stream_session.h)\n"
      "  --approx=EPS sampling-based estimators with absolute-rate error\n"
      "               EPS in (0, 1] (see streaming/approx.h)\n"
      "  --data-dir=DIR  durable sessions: WAL + columnar segments in DIR;\n"
      "               on restart every session is recovered and served\n"
      "               bit-identically (clients REGISTER ... ATTACH)\n"
      "  --no-sync    write the log without fsync (survives kill -9, not\n"
      "               power loss)\n"
      "  --wal-batch=N    group-commit batch cap (records per fsync)\n"
      "  --checkpoint-bytes=N  auto-checkpoint once the log exceeds N "
      "bytes\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const std::string spec_path = FlagValue(argc, argv, "spec");
  const bool example = HasFlag(argc, argv, "example");
  if (spec_path.empty() == !example) return Usage();

  ServiceSpec spec;
  if (example) {
    spec = ExampleSpec();
  } else {
    std::string error;
    if (!LoadSpecFile(spec_path, &spec, &error)) {
      std::fprintf(stderr, "spec error: %s\n", error.c_str());
      return 1;
    }
  }

  ServiceOptions options;
  options.port = 7411;
  if (!UintFlag(argc, argv, "port", UINT16_MAX, &options.port) ||
      !UintFlag(argc, argv, "workers", SIZE_MAX, &options.num_workers) ||
      !UintFlag(argc, argv, "queue", SIZE_MAX, &options.queue_capacity)) {
    return Usage();
  }
  std::string flag_error;
  if (!SessionOptionsFromFlags(argc, argv, &options.session, &flag_error)) {
    std::fprintf(stderr, "dbimd: %s\n", flag_error.c_str());
    return Usage();
  }

  // Durability: an opened store wired into the server (which recovers every
  // logged session before accepting traffic).
  std::unique_ptr<storage::DurableSessionStore> store;
  const std::string data_dir = FlagValue(argc, argv, "data-dir");
  if (!data_dir.empty()) {
    storage::DurabilityOptions durability;
    durability.sync = !HasFlag(argc, argv, "no-sync");
    if (!UintFlag(argc, argv, "wal-batch", SIZE_MAX,
                  &durability.group_commit_max_ops) ||
        !UintFlag(argc, argv, "checkpoint-bytes", UINT64_MAX,
                  &durability.checkpoint_wal_bytes)) {
      return Usage();
    }
    store = std::make_unique<storage::DurableSessionStore>(
        spec.schema, storage::CreateFlatFileBackend(data_dir), durability);
    std::string storage_error;
    if (!store->Open(&storage_error)) {
      std::fprintf(stderr, "storage error: %s\n", storage_error.c_str());
      return 1;
    }
    options.store = store.get();
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "start error: %s\n", error.c_str());
    return 1;
  }
  if (store != nullptr) {
    const storage::DurabilityStats stats = store->Stats();
    std::printf(
        "dbimd recovered %llu sessions (%llu log records replayed, epoch "
        "%llu) from %s\n",
        static_cast<unsigned long long>(stats.recovered_sessions),
        static_cast<unsigned long long>(stats.recovered_records),
        static_cast<unsigned long long>(stats.epoch), data_dir.c_str());
  }
  std::printf("dbimd listening on 127.0.0.1:%u (%s, %zu constraints)\n",
              server.port(),
              spec.schema->relation(spec.relation).name().c_str(),
              spec.constraints.size());
  std::fflush(stdout);

  while (!g_stop) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  if (store != nullptr) {
    // Final checkpoint on clean shutdown: the next start recovers from
    // segments alone, no log replay.
    server.session().Vacuum(1.0);
    const storage::DurabilityStats stats = store->Stats();
    std::printf("dbimd checkpointed epoch %llu (%llu checkpoints, %llu "
                "wal syncs this run)\n",
                static_cast<unsigned long long>(stats.epoch),
                static_cast<unsigned long long>(stats.checkpoints),
                static_cast<unsigned long long>(stats.wal_syncs));
  }
  std::printf("dbimd stopped: %zu connections, %zu requests, %zu rejected\n",
              server.num_connections_accepted(), server.num_requests(),
              server.num_rejected());
  return 0;
}
