// The per-layer probe suite of a traced run. Each probe calls one layer's
// public functions on the workload's own instances and cleaning traces and
// times them from the outside; the library itself is not instrumented.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "service/protocol.h"
#include "service/server.h"
#include "storage/backend.h"
#include "storage/durable_store.h"
#include "violations/conflict_graph.h"
#include "violations/detector.h"
#include "wire.h"

namespace perfbench {
namespace {

constexpr int kRepeats = 3;      // timed repetitions of read-only probes
constexpr size_t kDepth = 8;     // wire pipeline depth (as in `service`)
constexpr size_t kPings = 200;
constexpr double kChurnVacuum = 0.05;  // auto-vacuum threshold of the churn
constexpr size_t kChurnVacuums = 3;    // vacuums the churn probe waits for
constexpr size_t kMaxChurnOps = 20000;

struct Totals {
  // violations
  double detect_ms = 0, detect_1t_ms = 0, detect_cpu_s = 0, detect_wall_s = 0;
  size_t subsets = 0;
  uint64_t probes = 0, fires = 0;
  // conflict graph + measures
  double build_us = 0;
  size_t vertices = 0, edges = 0;
  std::vector<std::string> measure_names;
  std::map<std::string, double> measure_us;
  // session / incremental / pool
  std::vector<double> apply_us, apply_1t_us, snapshot_us, evaluate_ms,
      register_ms, vacuum_apply_ms;
  size_t full_detections = 0, vacuums = 0;
  uint64_t inc_ops = 0, inc_probes = 0, inc_fires = 0, probed = 0,
           skipped = 0;
  double pool_entries = 0, pool_waste_weighted = 0;
  // storage
  std::vector<double> durable_apply_us, recover_ms;
  uint64_t wal_records = 0, wal_syncs = 0, wal_bytes = 0, checkpoints = 0,
           durable_ops = 0;
  // service / protocol
  std::vector<double> wire_apply_us, wire_evaluate_ms, ping_us;
  size_t requests = 0, rejected = 0;
  std::vector<double> parse_ns, format_ns;
};

double Us(uint64_t from) { return (NowNs() - from) * 1e-3; }

std::vector<RepairOperation> CycleOps(const Instance& inst) {
  std::vector<RepairOperation> ops = inst.restore;
  ops.insert(ops.end(), inst.redirty.begin(), inst.redirty.end());
  return ops;
}

// Replays each handle's cleaning cycle, one thread per handle when
// `parallel`, and appends every Apply latency (us) to *latencies.
void ReplayCycles(dbim::MeasureSession& session,
                  const std::vector<dbim::DbHandle>& handles,
                  const std::vector<const Instance*>& instances,
                  bool parallel, std::vector<double>* latencies) {
  std::vector<std::vector<double>> per(handles.size());
  auto drive = [&](size_t i) {
    for (const RepairOperation& op : CycleOps(*instances[i])) {
      const uint64_t t0 = NowNs();
      session.Apply(handles[i], op);
      per[i].push_back(Us(t0));
    }
  };
  if (parallel) {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < handles.size(); ++i) threads.emplace_back(drive, i);
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < handles.size(); ++i) drive(i);
  }
  for (const auto& v : per) latencies->insert(latencies->end(), v.begin(), v.end());
}

void ProbeDetection(const Config& cfg, const Group& group, Totals* t) {
  const Instance& first = *group.instances.front();
  dbim::DetectorOptions many, one;
  many.num_threads = cfg.threads;
  one.num_threads = 1;
  const dbim::ViolationDetector detector(first.schema, first.constraints,
                                         many);
  const dbim::ViolationDetector single(first.schema, first.constraints, one);
  for (const Instance* inst : group.instances) {
    std::vector<double> wall;
    for (int r = 0; r < kRepeats; ++r) {
      const double cpu0 = ProcessCpuSeconds();
      const uint64_t t0 = NowNs();
      const dbim::ViolationSet violations = detector.FindViolations(inst->dirty);
      const double seconds = (NowNs() - t0) * 1e-9;
      t->detect_cpu_s += ProcessCpuSeconds() - cpu0;
      t->detect_wall_s += seconds;
      wall.push_back(seconds * 1e3);
      if (r == 0) t->subsets += violations.num_minimal_subsets();
    }
    t->detect_ms += Median(wall);
    const uint64_t t0 = NowNs();
    single.FindViolations(inst->dirty);
    t->detect_1t_ms += (NowNs() - t0) * 1e-6;
  }
  for (size_t c = 0; c < first.constraints.size(); ++c) {
    const dbim::DetectorConstraintStats stats = detector.constraint_stats(c);
    t->probes += stats.num_probes;
    t->fires += stats.num_fires;
  }
}

void ProbeSession(const Group& group, Totals* t,
                  std::vector<BatchReport>* dirty_reports,
                  std::vector<double>* inprocess_evaluate_ms) {
  const Instance& first = *group.instances.front();
  dbim::MeasureSession session(first.schema, first.constraints,
                               MeasureOptions().WithAutoVacuum(0.5));
  std::vector<dbim::DbHandle> handles;
  for (const Instance* inst : group.instances) {
    const uint64_t t0 = NowNs();
    handles.push_back(session.Register(inst->dirty));
    t->register_ms.push_back(Us(t0) * 1e-3);
  }

  for (const dbim::DbHandle h : handles) {
    dbim::ViolationSet violations;
    for (int r = 0; r < kRepeats; ++r) {
      const uint64_t t0 = NowNs();
      violations = session.Violations(h);
      t->snapshot_us.push_back(Us(t0));
    }
    session.WithDatabase(h, [&](const Database& db) {
      dbim::MeasureContext context(session.detector(), db,
                                   std::move(violations));
      std::vector<double> build;
      for (int r = 0; r < kRepeats; ++r) {
        const uint64_t t0 = NowNs();
        const dbim::ConflictGraph graph =
            dbim::ConflictGraph::Build(db, context.violations());
        build.push_back(Us(t0));
        if (r == 0) {
          t->vertices += graph.num_vertices();
          t->edges += graph.edges().size();
        }
      }
      t->build_us += Median(build);
      context.Materialize();
      for (const auto& measure : session.measures()) {
        std::vector<double> us;
        for (int r = 0; r < kRepeats; ++r) {
          const uint64_t t0 = NowNs();
          measure->Evaluate(context);
          us.push_back(Us(t0));
        }
        if (t->measure_us.count(measure->name()) == 0) {
          t->measure_names.push_back(measure->name());
        }
        t->measure_us[measure->name()] += Median(us);
      }
      return 0;
    });
    for (int r = 0; r < kRepeats; ++r) {
      const uint64_t t0 = NowNs();
      const BatchReport report = session.Evaluate(h);
      const double ms = Us(t0) * 1e-3;
      t->evaluate_ms.push_back(ms);
      inprocess_evaluate_ms->push_back(ms);
      if (r == 0) dirty_reports->push_back(report);
    }
  }

  auto totals = [&](uint64_t* probes, uint64_t* fires,
                    dbim::IncrementalDispatchStats* dispatch) {
    *probes = *fires = 0;
    *dispatch = dbim::IncrementalDispatchStats();
    for (const dbim::DbHandle h : handles) {
      for (const auto& s : session.ConstraintStats(h)) {
        *probes += s.num_probes;
        *fires += s.num_fires;
      }
      const dbim::IncrementalDispatchStats d = session.DispatchStats(h);
      dispatch->num_ops += d.num_ops;
      dispatch->constraints_probed += d.constraints_probed;
      dispatch->constraints_skipped += d.constraints_skipped;
    }
  };
  uint64_t probes0, fires0, probes1, fires1;
  dbim::IncrementalDispatchStats dispatch0, dispatch1;
  totals(&probes0, &fires0, &dispatch0);
  ReplayCycles(session, handles, group.instances, false, &t->apply_1t_us);
  ReplayCycles(session, handles, group.instances, true, &t->apply_us);
  totals(&probes1, &fires1, &dispatch1);
  t->inc_ops += dispatch1.num_ops - dispatch0.num_ops;
  t->inc_probes += probes1 - probes0;
  t->inc_fires += fires1 - fires0;
  t->probed += dispatch1.constraints_probed - dispatch0.constraints_probed;
  t->skipped += dispatch1.constraints_skipped - dispatch0.constraints_skipped;
  t->full_detections += session.num_full_detections();
  t->vacuums += session.num_vacuums();
  const double entries = static_cast<double>(session.pool().size());
  t->pool_entries += entries;
  t->pool_waste_weighted += session.PoolWaste() * entries;

  // Auto-vacuum: write fresh values into one column until the churn
  // session has vacuumed kChurnVacuums times; time the Applies that ran
  // one.
  dbim::MeasureSession churn(first.schema, first.constraints,
                             MeasureOptions().WithAutoVacuum(kChurnVacuum));
  const dbim::DbHandle h = churn.Register(first.dirty);
  std::vector<dbim::FactId> ids = first.dirty.ids();
  std::sort(ids.begin(), ids.end());
  const dbim::AttrIndex attr =
      first.restore.empty() ? 0 : first.restore.front().update().attr;
  for (size_t k = 0; k < kMaxChurnOps && churn.num_vacuums() < kChurnVacuums;
       ++k) {
    const size_t before = churn.num_vacuums();
    const uint64_t t0 = NowNs();
    churn.Apply(h, RepairOperation::Update(
                       ids[k % ids.size()], attr,
                       dbim::Value("churn-" + std::to_string(k))));
    const double ms = Us(t0) * 1e-3;
    if (churn.num_vacuums() > before) t->vacuum_apply_ms.push_back(ms);
  }
  t->vacuums += churn.num_vacuums();
  t->full_detections += churn.num_full_detections();
}

void ProbeStorage(const Config& cfg, const Group& group, Totals* t,
                  Result* result) {
  const Instance& first = *group.instances.front();
  const std::string dir = MakeStoreDir(cfg, "probe");
  std::vector<BatchReport> before;
  {
    dbim::storage::DurableSessionStore store(
        first.schema, dbim::storage::CreateFlatFileBackend(dir));
    std::string error;
    if (!store.Open(&error)) {
      result->Fail("probe store: " + error);
      return;
    }
    dbim::MeasureSession session(first.schema, first.constraints,
                                 MeasureOptions().WithDurability(&store));
    std::vector<dbim::DbHandle> handles;
    for (size_t i = 0; i < group.instances.size(); ++i) {
      handles.push_back(session.Register(group.instances[i]->dirty));
      store.LogRegister("probe" + std::to_string(i), handles.back(),
                        &session.db(handles.back()));
    }
    const dbim::storage::DurabilityStats start = store.Stats();
    const size_t n0 = t->durable_apply_us.size();
    ReplayCycles(session, handles, group.instances, true,
                 &t->durable_apply_us);
    const dbim::storage::DurabilityStats end = store.Stats();
    t->durable_ops += t->durable_apply_us.size() - n0;
    t->wal_records += end.wal_records - start.wal_records;
    t->wal_syncs += end.wal_syncs - start.wal_syncs;
    t->wal_bytes += end.wal_bytes - start.wal_bytes;
    t->checkpoints += end.checkpoints;
    for (const dbim::DbHandle h : handles) {
      before.push_back(session.Evaluate(h));
    }
  }
  dbim::storage::DurableSessionStore store(
      first.schema, dbim::storage::CreateFlatFileBackend(dir));
  dbim::MeasureSession session(first.schema, first.constraints,
                               MeasureOptions().WithDurability(&store));
  std::vector<dbim::storage::RecoveredSession> recovered;
  std::string error;
  const uint64_t t0 = NowNs();
  if (!store.Open(&error) || !store.Recover(&session, &recovered, &error)) {
    result->Fail("probe recovery: " + error);
    return;
  }
  t->recover_ms.push_back(Us(t0) * 1e-3);
  for (const auto& r : recovered) {
    const size_t i = std::stoul(r.name.substr(5));
    std::string why;
    if (i >= before.size() ||
        !SameReport(session.Evaluate(r.handle), before[i], &why)) {
      result->Fail("recovered " + r.name + " differs: " + why);
    }
  }
  if (recovered.size() != before.size()) result->Fail("probe recovery lost sessions");
  RemoveDir(dir);
}

void ProbeService(const Config& cfg, const Group& group,
                  const std::vector<BatchReport>& dirty_reports, Totals* t,
                  Result* result) {
  const Instance& first = *group.instances.front();
  dbim::ServiceOptions options;
  options.num_workers = cfg.threads;
  options.session = MeasureOptions();
  dbim::ServiceServer server(first.schema, first.relation, first.constraints,
                             options);
  std::string error;
  if (!server.Start(&error)) {
    result->Fail("probe server: " + error);
    return;
  }
  const size_t n = group.instances.size();
  std::vector<std::unique_ptr<dbim::ServiceClient>> clients;
  std::vector<std::vector<WireOp>> cycles;
  for (size_t i = 0; i < n; ++i) {
    clients.push_back(std::make_unique<dbim::ServiceClient>());
    if (!clients.back()->Connect("127.0.0.1", server.port(), &error) ||
        !LoadOverWire(*clients.back(), "probe" + std::to_string(i),
                      group.instances[i]->dirty, &error)) {
      result->Fail("probe load: " + error);
      server.Stop();
      return;
    }
    cycles.push_back(MakeWireCycle(*group.instances[i], {}, 16));
  }
  std::vector<WireLog> logs(n);
  std::vector<std::thread> threads;
  for (size_t i = 0; i < n; ++i) {
    threads.emplace_back([&, i]() {
      WireCursor cursor;
      DriveWire(*clients[i], "probe" + std::to_string(i), cycles[i], kDepth,
                0, 0, dirty_reports[i], 0, &cursor, &logs[i]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const WireLog& log : logs) {
    for (const std::string& why : log.failures) result->Fail("probe wire: " + why);
    for (const Sample& s : log.apply_us) t->wire_apply_us.push_back(s.value);
    for (const Sample& s : log.report_ms) {
      t->wire_evaluate_ms.push_back(s.value);
    }
  }
  for (size_t k = 0; k < kPings; ++k) {
    const uint64_t t0 = NowNs();
    if (!clients.front()->Ping(&error)) {
      result->Fail("probe ping: " + error);
      break;
    }
    t->ping_us.push_back(Us(t0));
  }
  t->requests += server.num_requests();
  t->rejected += server.num_rejected();
  clients.clear();
  server.Stop();

  // Protocol codec over the recorded request lines and their replies.
  std::vector<std::string> lines;
  std::vector<dbim::Response> replies;
  for (size_t i = 0; i < n; ++i) {
    const std::string session = "probe" + std::to_string(i);
    const BatchReport& report = dirty_reports[i];
    for (const WireOp& op : cycles[i]) {
      dbim::Request request = RequestFor(session, op);
      request.tag = std::to_string(lines.size() + 1);
      lines.push_back(dbim::FormatRequest(request));
      std::vector<std::string> args;
      if (op.evaluate) {
        args = {std::to_string(group.instances[i]->dirty.size()),
                std::to_string(report.num_minimal_subsets), "0"};
        for (const dbim::MeasureResult& m : report.measures) {
          char value[40];
          std::snprintf(value, sizeof(value), "%.17g", m.value);
          args.push_back(dbim::EncodeToken(m.name));
          args.push_back(value);
        }
      }
      replies.push_back(dbim::Response::Ok(request.tag, std::move(args)));
    }
  }
  for (int r = 0; r < kRepeats; ++r) {
    dbim::Request parsed;
    uint64_t t0 = NowNs();
    for (const std::string& line : lines) {
      if (!dbim::ParseRequest(line, &parsed, &error)) {
        result->Fail("probe parse: " + error);
        return;
      }
    }
    t->parse_ns.push_back((NowNs() - t0) / static_cast<double>(lines.size()));
    size_t bytes = 0;
    t0 = NowNs();
    for (const dbim::Response& reply : replies) {
      bytes += dbim::FormatResponse(reply).size();
    }
    t->format_ns.push_back((NowNs() - t0) /
                           static_cast<double>(replies.size()));
    if (bytes == 0) result->Fail("probe format produced nothing");
  }
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void RunLayerProbes(const Config& cfg, const std::vector<Group>& groups,
                    Result* result) {
  Totals t;
  std::vector<double> inprocess_evaluate_ms;
  for (const Group& group : groups) {
    ProbeDetection(cfg, group, &t);
    std::vector<BatchReport> dirty_reports;
    ProbeSession(group, &t, &dirty_reports, &inprocess_evaluate_ms);
    ProbeStorage(cfg, group, &t, result);
    ProbeService(cfg, group, dirty_reports, &t, result);
  }

  Result& r = *result;
  r.AddLayer("violations.detect_ms", t.detect_ms, "ms", kRepeats);
  r.AddLayer("violations.detect_1t_ms", t.detect_1t_ms, "ms", 1);
  r.AddLayer("violations.detect_speedup", Ratio(t.detect_1t_ms, t.detect_ms),
             "x");
  r.AddLayer("violations.detect_cpu_util",
             Ratio(t.detect_cpu_s, t.detect_wall_s * cfg.threads), "ratio");
  r.AddLayer("violations.detect_ns_per_subset",
             Ratio(t.detect_ms * 1e6, static_cast<double>(t.subsets)), "ns");
  r.AddLayer("violations.subsets", static_cast<double>(t.subsets), "count");
  r.AddLayer("violations.fire_ratio",
             Ratio(static_cast<double>(t.fires), static_cast<double>(t.probes)),
             "ratio");
  r.AddLayer("conflict_graph.build_us", t.build_us, "us", kRepeats);
  r.AddLayer("conflict_graph.vertices", static_cast<double>(t.vertices),
             "count");
  r.AddLayer("conflict_graph.edges", static_cast<double>(t.edges), "count");
  for (const std::string& name : t.measure_names) {
    r.AddLayer("measures." + name + "_us", t.measure_us[name], "us", kRepeats);
  }
  const double apply_us = Median(t.apply_us);
  const double apply_1t_us = Median(t.apply_1t_us);
  r.AddLayer("session.apply_us", apply_us, "us", t.apply_us.size());
  r.AddLayer("session.apply_1t_us", apply_1t_us, "us", t.apply_1t_us.size());
  r.AddLayer("session.contention_ratio", Ratio(apply_us, apply_1t_us), "x");
  r.AddLayer("session.snapshot_us", Median(t.snapshot_us), "us",
             t.snapshot_us.size());
  r.AddLayer("session.evaluate_ms", Median(t.evaluate_ms), "ms",
             t.evaluate_ms.size());
  r.AddLayer("session.register_ms", Median(t.register_ms), "ms",
             t.register_ms.size());
  r.AddLayer("session.full_detections", static_cast<double>(t.full_detections),
             "count");
  r.AddLayer("session.vacuums", static_cast<double>(t.vacuums), "count");
  r.AddLayer("session.vacuum_apply_ms", Median(t.vacuum_apply_ms), "ms",
             t.vacuum_apply_ms.size());
  r.AddLayer("incremental.probes_per_op",
             Ratio(static_cast<double>(t.inc_probes),
                   static_cast<double>(t.inc_ops)),
             "count");
  r.AddLayer("incremental.fires_per_op",
             Ratio(static_cast<double>(t.inc_fires),
                   static_cast<double>(t.inc_ops)),
             "count");
  r.AddLayer("incremental.skip_ratio",
             Ratio(static_cast<double>(t.skipped),
                   static_cast<double>(t.probed + t.skipped)),
             "ratio");
  r.AddLayer("value_pool.entries", t.pool_entries, "count");
  r.AddLayer("value_pool.waste", Ratio(t.pool_waste_weighted, t.pool_entries),
             "ratio");
  r.AddLayer("storage.records_per_sync",
             Ratio(static_cast<double>(t.wal_records),
                   static_cast<double>(t.wal_syncs)),
             "count");
  r.AddLayer("storage.wal_bytes_per_op",
             Ratio(static_cast<double>(t.wal_bytes),
                   static_cast<double>(t.durable_ops)),
             "B");
  r.AddLayer("storage.checkpoints", static_cast<double>(t.checkpoints),
             "count");
  r.AddLayer("storage.apply_overhead_us",
             Median(t.durable_apply_us) - apply_us, "us",
             t.durable_apply_us.size());
  r.AddLayer("storage.recover_ms", Median(t.recover_ms), "ms",
             t.recover_ms.size());
  r.AddLayer("service.apply_overhead_us", Median(t.wire_apply_us) - apply_us,
             "us", t.wire_apply_us.size());
  r.AddLayer("service.evaluate_overhead_ms",
             Median(t.wire_evaluate_ms) - Median(inprocess_evaluate_ms), "ms",
             t.wire_evaluate_ms.size());
  r.AddLayer("service.ping_rtt_us", Median(t.ping_us), "us", t.ping_us.size());
  r.AddLayer("service.busy_ratio",
             Ratio(static_cast<double>(t.rejected),
                   static_cast<double>(t.requests)),
             "ratio");
  r.AddLayer("protocol.parse_ns", Median(t.parse_ns), "ns", kRepeats);
  r.AddLayer("protocol.format_ns", Median(t.format_ns), "ns", kRepeats);
}

}  // namespace perfbench
