// dbim_loadgen — traffic driver for a running dbimd.
//
// Usage:
//   dbim_loadgen --port=7411 [--host=127.0.0.1] [--clients=4]
//                [--sessions=2] [--ops=1000] [--pipeline=16]
//                [--evaluate-every=8] [--seed=7] [--json] [--stats]
//                [--attach] [--subscribe[=THRESHOLD]]
//
// Spawns `--clients` threads, each with its own connection, driving the
// shared mixed Apply/Evaluate workload (src/service/workload.h) against
// `--sessions` named sessions assigned round-robin — so with clients=4
// sessions=2, two connections contend on each session and the server's
// per-session FIFO + round-robin ring are what keep the traffic fair.
// Prints per-client ops/s with p50/p99 latency; --json emits the same
// table as JSON, --stats appends each session's constraint-stats JSON.
// --subscribe holds one extra watcher connection SUBSCRIBEd to session
// load0 at the given minimal-subset threshold (default 0) for the duration
// of the run and reports how many crossing notifications the server pushed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/workload.h"

namespace {

using namespace dbim;

std::string FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (StartsWith(argv[i], prefix)) return argv[i] + prefix.size();
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

// Reads --name=N (default `fallback`) into *out. A non-numeric or
// out-of-range value (above `max`) is rejected with an error line and
// false — never silently truncated to a wrong number.
template <typename T>
bool UintFlag(int argc, char** argv, const char* name, const char* fallback,
              uint64_t max, T* out) {
  const std::string value = FlagValue(argc, argv, name, fallback);
  uint64_t parsed = 0;
  if (!ParseUint(value, max, &parsed)) {
    std::fprintf(stderr,
                 "dbim_loadgen: invalid --%s=%s (want an integer in "
                 "[0, %llu])\n",
                 name, value.c_str(), static_cast<unsigned long long>(max));
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbim_loadgen --port=7411 [--host=127.0.0.1] [--clients=4]\n"
      "                    [--sessions=2] [--ops=1000] [--pipeline=16]\n"
      "                    [--evaluate-every=8] [--seed=7] [--json] [--stats]\n"
      "                    [--attach] [--subscribe[=THRESHOLD]]\n");
  return 2;
}

/// Connects with retries so the generator can be launched right after the
/// daemon (the CI smoke test does) without racing its listen().
bool ConnectWithRetry(ServiceClient* client, const std::string& host,
                      uint16_t port, std::string* error) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    if (client->Connect(host, port, error)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

struct ClientOutcome {
  bool ok = false;
  std::string error;
  ServiceWorkloadResult result;
  double seconds = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string host = FlagValue(argc, argv, "host", "127.0.0.1");
  uint16_t port = 0;
  size_t num_clients = 0;
  size_t num_sessions = 0;
  size_t num_ops = 0;
  uint64_t seed = 0;
  ServiceWorkloadOptions workload;
  if (!UintFlag(argc, argv, "port", "7411", UINT16_MAX, &port) ||
      !UintFlag(argc, argv, "clients", "4", SIZE_MAX, &num_clients) ||
      !UintFlag(argc, argv, "sessions", "2", SIZE_MAX, &num_sessions) ||
      !UintFlag(argc, argv, "ops", "1000", SIZE_MAX, &num_ops) ||
      !UintFlag(argc, argv, "seed", "7", UINT64_MAX, &seed) ||
      !UintFlag(argc, argv, "pipeline", "16", SIZE_MAX,
                &workload.pipeline_depth) ||
      !UintFlag(argc, argv, "evaluate-every", "8", SIZE_MAX,
                &workload.evaluate_every)) {
    return Usage();
  }
  if (num_clients == 0 || num_sessions == 0) {
    std::fprintf(stderr, "need --clients and --sessions >= 1\n");
    return 2;
  }

  // One setup connection: learn the arity, register every session.
  {
    ServiceClient setup;
    std::string error;
    if (!ConnectWithRetry(&setup, host, port, &error)) {
      std::fprintf(stderr, "connect: %s\n", error.c_str());
      return 1;
    }
    std::string relation;
    std::vector<std::string> attributes;
    if (!setup.Schema(&relation, &attributes, &error)) {
      std::fprintf(stderr, "SCHEMA: %s\n", error.c_str());
      return 1;
    }
    workload.arity = attributes.size();
    // --attach resumes sessions a durable daemon recovered (REGISTER ...
    // ATTACH); ids are then learned from INSERT replies — the default —
    // since id prediction is unsound on a non-empty recovered session.
    const bool attach = HasFlag(argc, argv, "attach");
    for (size_t s = 0; s < num_sessions; ++s) {
      const std::string name = "load" + std::to_string(s);
      if (attach) {
        size_t resumed = 0;
        if (!setup.RegisterAttach(name, &resumed, &error)) {
          std::fprintf(stderr, "REGISTER %s ATTACH: %s\n", name.c_str(),
                       error.c_str());
          return 1;
        }
        if (resumed > 0) {
          std::fprintf(stderr, "attached to %s (%zu facts)\n", name.c_str(),
                       resumed);
        }
      } else if (!setup.Register(name, &error) &&
                 error.find("EXISTS") == std::string::npos) {
        std::fprintf(stderr, "REGISTER %s: %s\n", name.c_str(),
                     error.c_str());
        return 1;
      }
    }
  }

  // The watcher subscribes before traffic starts, so every threshold
  // crossing during the run is pushed to it; notifications are drained
  // after the traffic threads join.
  const bool subscribe = HasFlag(argc, argv, "subscribe") ||
                         !FlagValue(argc, argv, "subscribe", "").empty();
  const double subscribe_threshold = std::strtod(
      FlagValue(argc, argv, "subscribe", "0").c_str(), nullptr);
  ServiceClient watcher;
  std::string watcher_tag;
  size_t watcher_start = 0;
  if (subscribe) {
    std::string error;
    if (!watcher.Connect(host, port, &error) ||
        !watcher.Subscribe("load0", subscribe_threshold, &watcher_tag,
                           &watcher_start, &error)) {
      std::fprintf(stderr, "SUBSCRIBE load0: %s\n", error.c_str());
      return 1;
    }
  }

  std::vector<ClientOutcome> outcomes(num_clients);
  std::vector<std::thread> threads;
  threads.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c]() {
      ClientOutcome& out = outcomes[c];
      ServiceClient client;
      if (!client.Connect(host, port, &out.error)) return;
      const std::string session = "load" + std::to_string(c % num_sessions);
      Timer timer;
      out.ok = RunServiceWorkload(client, session, num_ops, seed + c,
                                  workload, &out.result, &out.error);
      out.seconds = timer.Seconds();
    });
  }
  for (std::thread& t : threads) t.join();

  bool all_ok = true;
  TablePrinter table({"client", "session", "ops", "busy", "evals", "ops/s",
                      "p50 (ms)", "p99 (ms)"});
  for (size_t c = 0; c < num_clients; ++c) {
    const ClientOutcome& out = outcomes[c];
    if (!out.ok) {
      all_ok = false;
      std::fprintf(stderr, "client %zu: %s\n", c, out.error.c_str());
      continue;
    }
    const ServiceWorkloadResult& r = out.result;
    const double ops_per_sec =
        out.seconds > 0.0 ? static_cast<double>(num_ops) / out.seconds : 0.0;
    table.AddRow({std::to_string(c), "load" + std::to_string(c % num_sessions),
                  std::to_string(r.num_ok), std::to_string(r.num_busy),
                  std::to_string(r.num_evaluates),
                  TablePrinter::Num(ops_per_sec, 1),
                  TablePrinter::Num(LatencyPercentile(r.latencies_ms, 50), 3),
                  TablePrinter::Num(LatencyPercentile(r.latencies_ms, 99),
                                    3)});
  }
  if (HasFlag(argc, argv, "json")) {
    std::printf("%s\n", table.ToJson("loadgen").c_str());
  } else {
    std::printf("%s", table.ToText().c_str());
  }

  if (subscribe) {
    // A Ping round-trip pulls in everything the server already pushed
    // under the subscribe tag; DrainPushed then collects it.
    std::string error;
    std::vector<PushedItem> pushed;
    if (!watcher.Ping(&error) ||
        !watcher.DrainPushed(watcher_tag, &pushed, &error)) {
      std::fprintf(stderr, "subscriber drain: %s\n", error.c_str());
      return 1;
    }
    size_t ups = 0;
    for (const PushedItem& item : pushed) ups += item.up ? 1 : 0;
    std::printf("subscriber: load0 started at %zu minimal subsets, "
                "threshold %g crossed %zu times (%zu up, %zu down)\n",
                watcher_start, subscribe_threshold, pushed.size(), ups,
                pushed.size() - ups);
  }

  if (HasFlag(argc, argv, "stats")) {
    ServiceClient stats_client;
    std::string error;
    if (!stats_client.Connect(host, port, &error)) {
      std::fprintf(stderr, "stats connect: %s\n", error.c_str());
      return 1;
    }
    for (size_t s = 0; s < num_sessions; ++s) {
      std::string json;
      const std::string name = "load" + std::to_string(s);
      if (!stats_client.Stats(name, &json, &error)) {
        std::fprintf(stderr, "STATS %s: %s\n", name.c_str(), error.c_str());
        return 1;
      }
      std::printf("%s\n", json.c_str());
    }
  }
  return all_ok ? 0 : 1;
}
