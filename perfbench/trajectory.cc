// Workload `trajectory`: progress indication inside a cleaning loop. One
// in-process MeasureSession (default options plus auto-vacuum) holds
// CONoise-dirtied Tax instances; ClientThreads() threads each drive
// kHandlesPerThread of them. For each handle in turn a thread replays a
// cleaning pass — updates that restore every dirtied cell, in shuffled
// order — and later a pass of the recorded dirtying updates, calling
// Evaluate at kReportsPerPass evenly spaced points of every pass. Writes
// exercise the incremental index, the value pool and the session locks;
// reads exercise the snapshot, conflict graph and measures. Full detection
// never runs.
//
// One session holds one schema, so the handles are all Tax; Hospital is
// the service workload's schema.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "measures/engine.h"

namespace perfbench {
namespace {

constexpr size_t kTuples = 1500;
constexpr size_t kTargetSubsets = 2000;  // CONoise until |MI| reaches this
constexpr size_t kMaxNoiseSteps = 2000;
// Evaluate calls per pass: a thread evaluates every ceil(D / 8) applies,
// D = the instance's dirtied cells, so reports sample the same points of
// every pass whatever D is, and neither applies nor reports take less than
// a quarter of the client time.
constexpr size_t kReportsPerPass = 8;
constexpr double kAutoVacuum = 0.5;
// Several handles per thread: a report's cost depends on the conflict
// structure the noise happened to create, and averaging over more handles
// keeps the report latencies nearly the same for every seed.
constexpr size_t kHandlesPerThread = 4;

// Client threads: one hardware thread is left to the system. With every
// hardware thread applying, the auto-vacuum's exclusive session lock waits
// on whichever client the scheduler parked, and throughput swings by a
// quarter between identical runs.
size_t ClientThreads(const Config& cfg) {
  return std::max<size_t>(1, cfg.threads - 1);
}

struct Setup {
  std::vector<Instance> instances;
  std::unique_ptr<dbim::MeasureSession> session;
  std::vector<dbim::DbHandle> handles;
};

void BuildSetup(const Config& cfg, Setup* setup) {
  for (size_t h = 0; h < ClientThreads(cfg) * kHandlesPerThread; ++h) {
    setup->instances.push_back(MakeInstance(dbim::DatasetId::kTax, kTuples,
                                            2000 + h, cfg.seed * 131 + h,
                                            kMaxNoiseSteps, kTargetSubsets));
  }
  const Instance& first = setup->instances.front();
  setup->session = std::make_unique<dbim::MeasureSession>(
      first.schema, first.constraints,
      MeasureOptions().WithAutoVacuum(kAutoVacuum));
  for (const Instance& inst : setup->instances) {
    setup->handles.push_back(setup->session->Register(inst.dirty));
  }
}

// Session::Evaluate decomposed into the calls it makes — the snapshot,
// then the conflict graph and each measure on a context over the handle's
// database — each in its own span.
BatchReport TracedEvaluate(const dbim::MeasureSession& session,
                           dbim::DbHandle handle, uint64_t op) {
  ScopedSpan root("op.report", op);
  dbim::ViolationSet violations;
  {
    ScopedSpan span("session.Violations", op);
    violations = session.Violations(handle);
  }
  return session.WithDatabase(handle, [&](const Database& db) {
    return TracedMeasures(session.detector(), session.measures(), db,
                          std::move(violations), op);
  });
}

struct ThreadLog {
  Samples apply_us;
  Samples report_ms;
  OpCounts apply;
  OpCounts report;
  std::vector<std::string> failures;
};

// Drives the handles `mine` until `deadline`, pass by pass in turn: a
// restore pass on dirty databases (`first_pass` 0) or a dirtying pass on
// clean ones (1). Recorded ops stop at the deadline; then the current round
// of passes is finished (and a restore round appended if it was a dirtying
// one), so every handle ends on a clean database.
void Drive(dbim::MeasureSession& session, const std::vector<size_t>& mine,
           const Setup& setup, const std::vector<BatchReport>& references,
           int first_pass, uint64_t deadline, bool traced, uint64_t op_base,
           ThreadLog* log) {
  bool recording = true;
  uint64_t op = op_base;
  auto run_pass = [&](size_t j, int pass) {
    const Instance& inst = setup.instances[j];
    const dbim::DbHandle handle = setup.handles[j];
    const std::vector<RepairOperation>& ops =
        pass == 0 ? inst.restore : inst.redirty;
    const size_t evaluate_every =
        std::max<size_t>(1, (ops.size() + kReportsPerPass - 1) /
                                kReportsPerPass);
    for (size_t i = 0; i < ops.size(); ++i) {
      const uint64_t t0 = NowNs();
      {
        ScopedSpan span("session.Apply", op);
        session.Apply(handle, ops[i]);
      }
      uint64_t t1 = NowNs();
      if (recording) {
        log->apply_us.push_back({t1, (t1 - t0) * 1e-3});
        ++log->apply.attempted;
      }
      ++op;
      const bool pass_end = i + 1 == ops.size();
      if ((i + 1) % evaluate_every != 0 && !pass_end) continue;
      const uint64_t e0 = NowNs();
      const BatchReport report = traced
                                     ? TracedEvaluate(session, handle, op)
                                     : session.Evaluate(handle);
      t1 = NowNs();
      ++op;
      bool ok = true;
      if (pass_end) {
        std::string why;
        if (pass == 0 && !ZeroReport(report)) {
          ok = false;
          log->failures.push_back(inst.name + ": cleaned database is not "
                                  "consistent (subsets " +
                                  std::to_string(report.num_minimal_subsets) +
                                  ")");
        } else if (pass == 1 && !SameReport(report, references[j], &why)) {
          ok = false;
          log->failures.push_back(inst.name +
                                  ": re-dirtied report differs from the "
                                  "fresh engine: " + why);
        }
      }
      if (recording) {
        log->report_ms.push_back({t1, (t1 - e0) * 1e-6});
        ++log->report.attempted;
        if (!ok) ++log->report.failed;
      }
      if (recording && t1 >= deadline) recording = false;
    }
  };
  for (int pass = first_pass;; pass ^= 1) {
    for (const size_t j : mine) run_pass(j, pass);
    if (!recording && pass == 0) return;
  }
}

}  // namespace

Result RunTrajectory(const Config& cfg) {
  Result result;
  std::vector<double> setup_s;
  auto timed_setup = [&](Setup* s) {
    const uint64_t start = NowNs();
    BuildSetup(cfg, s);
    setup_s.push_back((NowNs() - start) * 1e-9);
  };
  Setup setup;
  for (int k = 0; k < kSetupsBefore; ++k) {
    setup = Setup();
    timed_setup(&setup);
  }
  dbim::MeasureSession& session = *setup.session;

  const std::vector<BatchReport> dirty_reference =
      FreshReports(setup.instances);

  // Runs every thread for `seconds`; returns ops per second and appends
  // the logs.
  int first_pass = 0;  // the handles start dirty and end each phase clean
  auto run_phase = [&](double seconds, bool traced,
                       std::vector<ThreadLog>* logs, double* wall_s) {
    const size_t clients = ClientThreads(cfg);
    logs->assign(clients, ThreadLog());
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < clients; ++t) {
      std::vector<size_t> mine;
      for (size_t j = t; j < setup.handles.size(); j += clients) {
        mine.push_back(j);
      }
      threads.emplace_back([&, t, mine]() {
        Drive(session, mine, setup, dirty_reference, first_pass, deadline,
              traced, (t + 1) << 32, &(*logs)[t]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    first_pass = 1;
    std::vector<uint64_t> done_ns;
    for (ThreadLog& log : *logs) {
      for (const Samples* samples : {&log.apply_us, &log.report_ms}) {
        for (const Sample& s : *samples) done_ns.push_back(s.done_ns);
      }
      for (const std::string& why : log.failures) result.Fail(why);
      result.ops["apply"].attempted += log.apply.attempted;
      result.ops["report"].attempted += log.report.attempted;
      result.ops["report"].failed += log.report.failed;
    }
    const uint64_t last =
        done_ns.empty() ? start
                        : *std::max_element(done_ns.begin(), done_ns.end());
    *wall_s = (last - start) * 1e-9;
    return WindowedThroughput(std::move(done_ns), start);
  };

  std::vector<ThreadLog> logs;
  double wall_s = 0.0;
  if (!cfg.trace) {
    const double ops_per_s = run_phase(cfg.seconds, false, &logs, &wall_s);
    Samples apply_us, report_ms;
    for (const ThreadLog& log : logs) {
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
    const double untraced = run_phase(cfg.seconds / 2, false, &logs, &wall_s);
    SetTracing(true);
    const double traced = run_phase(cfg.seconds / 2, true, &logs, &wall_s);
    SetTracing(false);
    ReportTrace(cfg, untraced, traced, wall_s * ClientThreads(cfg),
                &result);
  }

  // Final state: every handle is clean, equal to a fresh engine over a
  // CopyFacts rebuild, and no full detection ever ran.
  for (size_t h = 0; h < setup.handles.size(); ++h) {
    const Instance& inst = setup.instances[h];
    const BatchReport got = session.Evaluate(setup.handles[h]);
    const Database rebuilt = RebuildDatabase(
        inst.schema, inst.relation, session.CopyFacts(setup.handles[h]));
    const dbim::MeasureEngine engine(inst.schema, inst.constraints,
                                     MeasureOptions());
    std::string why;
    if (!SameReport(got, engine.EvaluateAll(rebuilt), &why)) {
      result.Fail("final Evaluate differs from a fresh engine on the "
                  "CopyFacts rebuild: " + why);
    }
    if (!ZeroReport(got)) {
      result.Fail("final database of handle " + std::to_string(h) +
                  " is not consistent");
    }
  }
  if (session.num_full_detections() != 0) {
    result.Fail("session ran " +
                std::to_string(session.num_full_detections()) +
                " full detections");
  }

  if (!cfg.trace) {
    for (int k = 0; k < kSetupsAfter; ++k) {
      Setup extra;
      timed_setup(&extra);
    }
    result.AddE2E("setup_s", Median(setup_s), "s", setup_s.size());
    return result;
  }
  Group group;
  for (const Instance& inst : setup.instances) {
    group.instances.push_back(&inst);
  }
  RunLayerProbes(cfg, {group}, &result);
  return result;
}

}  // namespace perfbench
