// Workload `service`: the durable multi-tenant daemon. An in-process
// ServiceServer hosts Hospital's schema and constraints over a
// DurableSessionStore in a fresh directory (flush policy: sync=true with
// the default group commit). BenchThreads() connections each own one
// session, loaded over the wire at setup, and pipeline up to kDepth
// requests of a write-heavy cycle: the cleaning trace's updates plus donor
// inserts and their deletes (>= 90 % APPLY), with one EVALUATE per about
// kEvaluateEvery APPLYs. Engine work per op is small, so wire parsing,
// queueing, the fair ring and WAL fsync dominate; detection never runs.
// BENCHMARK.json does not gate this workload (perfbench/provenance.json
// says why); it runs, and checks its outputs, like the gated ones.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "service/server.h"
#include "storage/backend.h"
#include "storage/durable_store.h"
#include "wire.h"

namespace perfbench {
namespace {

constexpr size_t kTuples = 1000;
constexpr size_t kTargetSubsets = 800;  // CONoise until |MI| reaches this
constexpr size_t kMaxNoiseSteps = 2000;
constexpr size_t kDonors = 8;  // inserted and deleted again per cycle
constexpr size_t kEvaluateEvery = 16;
constexpr size_t kDepth = 8;
// The operator's VACUUM (which also checkpoints the durable store): the
// first connection sends one every kVacuumRounds cycles. Without it the
// daemon keeps every dead subset slot of the churn, and memory grows with
// the number of ops served.
constexpr size_t kVacuumRounds = 10;

struct Setup {
  std::vector<Instance> instances;
  std::vector<std::vector<WireOp>> cycles;
  std::string dir;
  std::unique_ptr<dbim::storage::DurableSessionStore> store;
  std::unique_ptr<dbim::ServiceServer> server;
  std::vector<std::unique_ptr<dbim::ServiceClient>> clients;

  ~Setup() {
    if (server != nullptr) server->Stop();
    clients.clear();
    server.reset();
    store.reset();
    if (!dir.empty()) RemoveDir(dir);
  }
};

std::string SessionName(size_t c) { return "tenant" + std::to_string(c); }

bool BuildSetup(const Config& cfg, Setup* setup, std::string* error) {
  const dbim::Dataset donors =
      dbim::MakeDataset(dbim::DatasetId::kHospital, kDonors * cfg.threads,
                        cfg.seed * 977 + 5);
  std::vector<dbim::FactId> donor_ids = donors.data.ids();
  std::sort(donor_ids.begin(), donor_ids.end());
  for (size_t c = 0; c < cfg.threads; ++c) {
    setup->instances.push_back(MakeInstance(dbim::DatasetId::kHospital,
                                            kTuples, 3000 + c,
                                            cfg.seed * 173 + c, kMaxNoiseSteps,
                                            kTargetSubsets));
    std::vector<dbim::Fact> mine;
    for (size_t d = 0; d < kDonors; ++d) {
      mine.push_back(donors.data.fact(donor_ids[c * kDonors + d]));
    }
    setup->cycles.push_back(
        MakeWireCycle(setup->instances.back(), mine, kEvaluateEvery));
  }
  const Instance& first = setup->instances.front();
  setup->dir = MakeStoreDir(cfg, "service");
  setup->store = std::make_unique<dbim::storage::DurableSessionStore>(
      first.schema, dbim::storage::CreateFlatFileBackend(setup->dir),
      dbim::storage::DurabilityOptions());
  if (!setup->store->Open(error)) return false;
  dbim::ServiceOptions options;
  options.num_workers = cfg.threads;
  options.session = MeasureOptions();
  options.store = setup->store.get();
  setup->server = std::make_unique<dbim::ServiceServer>(
      first.schema, first.relation, first.constraints, options);
  if (!setup->server->Start(error)) return false;
  for (size_t c = 0; c < cfg.threads; ++c) {
    setup->clients.push_back(std::make_unique<dbim::ServiceClient>());
    if (!setup->clients.back()->Connect("127.0.0.1", setup->server->port(),
                                        error) ||
        !LoadOverWire(*setup->clients.back(), SessionName(c),
                      setup->instances[c].dirty, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result RunService(const Config& cfg) {
  Result result;
  std::vector<double> setup_s;
  auto timed_setup = [&](Setup* s) {
    const uint64_t start = NowNs();
    std::string error;
    if (!BuildSetup(cfg, s, &error)) {
      result.Fail("service setup: " + error);
      return false;
    }
    setup_s.push_back((NowNs() - start) * 1e-9);
    return true;
  };
  std::unique_ptr<Setup> setup;
  for (int k = 0; k < kSetupsBefore; ++k) {
    setup.reset();
    setup = std::make_unique<Setup>();
    if (!timed_setup(setup.get())) return result;
  }
  const std::vector<BatchReport> dirty_reference =
      FreshReports(setup->instances);

  // Every connection's acknowledged APPLYs across all phases, in order.
  std::vector<std::vector<uint32_t>> applied(cfg.threads);
  std::vector<WireCursor> cursors(cfg.threads);
  auto run_phase = [&](double seconds, std::vector<WireLog>* logs,
                       double* wall_s) {
    logs->assign(cfg.threads, WireLog());
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t c = 0; c < cfg.threads; ++c) {
      threads.emplace_back([&, c]() {
        DriveWire(*setup->clients[c], SessionName(c), setup->cycles[c],
                  kDepth, c == 0 ? kVacuumRounds : 0, deadline,
                  dirty_reference[c], (c + 1) << 32, &cursors[c],
                  &(*logs)[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    std::vector<uint64_t> done_ns;
    for (size_t c = 0; c < cfg.threads; ++c) {
      WireLog& log = (*logs)[c];
      for (const Samples* samples : {&log.apply_us, &log.report_ms}) {
        for (const Sample& s : *samples) done_ns.push_back(s.done_ns);
      }
      for (const std::string& why : log.failures) result.Fail(why);
      const std::pair<const char*, const OpCounts*> kinds[] = {
          {"apply", &log.apply}, {"report", &log.report},
          {"vacuum", &log.vacuum}};
      for (const auto& [kind, from] : kinds) {
        if (from->attempted == 0) continue;
        OpCounts& to = result.ops[kind];
        to.attempted += from->attempted;
        to.failed += from->failed;
        to.refused += from->refused;
      }
      applied[c].insert(applied[c].end(), log.applied.begin(),
                        log.applied.end());
    }
    const uint64_t last =
        done_ns.empty() ? start
                        : *std::max_element(done_ns.begin(), done_ns.end());
    *wall_s = (last - start) * 1e-9;
    return WindowedThroughput(std::move(done_ns), start);
  };

  std::vector<WireLog> logs;
  double wall_s = 0.0;
  if (!cfg.trace) {
    const double ops_per_s = run_phase(cfg.seconds, &logs, &wall_s);
    Samples apply_us, report_ms;
    for (const WireLog& log : logs) {
      apply_us.insert(apply_us.end(), log.apply_us.begin(),
                      log.apply_us.end());
      report_ms.insert(report_ms.end(), log.report_ms.begin(),
                       log.report_ms.end());
    }
    result.AddE2E("peak_rss_mb", PeakRssMb(), "MB");
    result.AddE2E("throughput_ops_s", ops_per_s, "1/s",
                  apply_us.size() + report_ms.size());
    result.AddLatency("report", Summarize(report_ms), "ms");
    result.AddLatency("apply", Summarize(apply_us), "us");
  } else {
    const double untraced = run_phase(cfg.seconds / 2, &logs, &wall_s);
    SetTracing(true);
    const double traced = run_phase(cfg.seconds / 2, &logs, &wall_s);
    SetTracing(false);
    ReportTrace(cfg, untraced, traced, wall_s * cfg.threads, &result);
  }

  // The final wire EVALUATE and DUMP of every session equal an in-process
  // mirror that replays the acknowledged APPLYs.
  std::vector<BatchReport> mirror_reports;
  for (size_t c = 0; c < cfg.threads; ++c) {
    const Instance& inst = setup->instances[c];
    dbim::MeasureSession mirror(inst.schema, inst.constraints,
                                MeasureOptions());
    const dbim::DbHandle h = mirror.Register(inst.dirty);
    for (const uint32_t k : applied[c]) {
      mirror.Apply(h, setup->cycles[c][k].op);
    }
    mirror_reports.push_back(mirror.Evaluate(h));
    dbim::WireReport wire;
    std::vector<std::pair<dbim::FactId, std::vector<dbim::Value>>> rows;
    std::string error, why;
    if (!setup->clients[c]->Evaluate(SessionName(c), &wire, &error) ||
        !setup->clients[c]->Dump(SessionName(c), &rows, &error)) {
      result.Fail("final EVALUATE/DUMP: " + error);
      continue;
    }
    if (!SameWireReport(wire, mirror_reports.back(), &why)) {
      result.Fail(SessionName(c) + ": wire EVALUATE != mirror: " + why);
    }
    if (rows != mirror.CopyFacts(h)) {
      result.Fail(SessionName(c) + ": wire DUMP != mirror facts");
    }
  }
  if (setup->server->session().num_full_detections() != 0) {
    result.Fail("server session ran full detections");
  }

  // ack => durable: after Stop, a reopened store recovers the same reports.
  setup->server->Stop();
  setup->clients.clear();
  setup->server.reset();
  setup->store.reset();
  {
    const Instance& first = setup->instances.front();
    dbim::storage::DurableSessionStore store(
        first.schema, dbim::storage::CreateFlatFileBackend(setup->dir));
    std::string error;
    const uint64_t start = NowNs();
    dbim::MeasureSession recovered_session(
        first.schema, first.constraints,
        MeasureOptions().WithDurability(&store));
    std::vector<dbim::storage::RecoveredSession> recovered;
    if (!store.Open(&error) ||
        !store.Recover(&recovered_session, &recovered, &error)) {
      result.Fail("recovery: " + error);
    } else {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "recovered %zu sessions in %.1f ms after the run",
                    recovered.size(), (NowNs() - start) * 1e-6);
      result.notes.push_back(line);
      size_t matched = 0;
      for (const auto& r : recovered) {
        for (size_t c = 0; c < cfg.threads; ++c) {
          if (r.name != SessionName(c)) continue;
          ++matched;
          std::string why;
          if (!SameReport(recovered_session.Evaluate(r.handle),
                          mirror_reports[c], &why)) {
            result.Fail(r.name + ": recovered report differs: " + why);
          }
        }
      }
      if (matched != cfg.threads) result.Fail("recovery lost sessions");
    }
  }

  if (!cfg.trace) {
    for (int k = 0; k < kSetupsAfter; ++k) {
      Setup extra;
      if (!timed_setup(&extra)) return result;
    }
    result.AddE2E("setup_s", Median(setup_s), "s", setup_s.size());
    return result;
  }
  Group group;
  for (const Instance& inst : setup->instances) {
    group.instances.push_back(&inst);
  }
  RunLayerProbes(cfg, {group}, &result);
  return result;
}

}  // namespace perfbench
