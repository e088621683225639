// Workload `batch`: one-shot reliability estimation, as in the paper's
// Table 3. One caller runs MeasureEngine::EvaluateAll over CONoise-dirtied
// instances that cycle Voter -> Flight -> Tax with BenchThreads() detector
// threads. Detection dominates every report, so the detector and the
// parallel scheduler show here, while the incremental index, the service
// and the storage layer never run.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "measures/engine.h"

namespace perfbench {
namespace {

struct Spec {
  dbim::DatasetId id;
  size_t tuples;
};

// Three join shapes: Voter has an unblocked inequality join, Flight is
// mixed, Tax is heavy on blocked FDs. The sizes give every instance about
// the same report time (~70 ms at 4 threads), so the median of the mixed
// cycle does not sit on a jump between instances. CONoise runs
// #tuples/1000 steps, the paper's Table-3 convention.
const Spec kSpecs[] = {{dbim::DatasetId::kVoter, 2500},
                       {dbim::DatasetId::kFlight, 2300},
                       {dbim::DatasetId::kTax, 5000}};
// Independently generated instances per dataset: a report's cost depends
// on the generated data, and averaging over several instances keeps the
// medians nearly the same for every seed.
constexpr size_t kVariants = 3;

struct Setup {
  std::vector<Instance> instances;  // Voter, Flight, Tax, Voter, ...
  std::vector<std::unique_ptr<dbim::MeasureEngine>> engines;
};

void BuildSetup(const Config& cfg, Setup* setup) {
  for (size_t n = 0; n < kVariants * std::size(kSpecs); ++n) {
    const Spec& spec = kSpecs[n % std::size(kSpecs)];
    setup->instances.push_back(MakeInstance(spec.id, spec.tuples, 1000 + n,
                                            cfg.seed * 31 + n,
                                            spec.tuples / 1000, 0));
    const Instance& inst = setup->instances.back();
    setup->engines.push_back(std::make_unique<dbim::MeasureEngine>(
        inst.schema, inst.constraints,
        MeasureOptions().WithThreads(cfg.threads)));
  }
}

// EvaluateAll decomposed into the calls it makes — detection, the conflict
// graph build on the shared context, each measure — each in its own span.
// Values are the same as EvaluateAll's (the output check compares them).
BatchReport TracedReport(const dbim::MeasureEngine& engine,
                         const Database& db, uint64_t op) {
  ScopedSpan root("op.report", op);
  dbim::ViolationSet violations;
  {
    ScopedSpan span("violations.FindViolations", op);
    violations = engine.detector().FindViolations(db);
  }
  return TracedMeasures(engine.detector(), engine.measures(), db,
                        std::move(violations), op);
}

}  // namespace

Result RunBatch(const Config& cfg) {
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

  // 1-thread references, computed outside the timed setup.
  const std::vector<BatchReport> reference = FreshReports(setup.instances);

  OpCounts& counts = result.ops["report"];
  uint64_t op = 0;
  // Runs reports until `seconds` have passed; returns ops per second.
  auto run_phase = [&](double seconds, bool traced, Samples* latencies_ms) {
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<uint64_t> done_ns;
    uint64_t now = start;
    while (now < deadline) {
      const size_t i = op % setup.instances.size();
      const Instance& inst = setup.instances[i];
      const uint64_t t0 = NowNs();
      const BatchReport report =
          traced ? TracedReport(*setup.engines[i], inst.dirty, op)
                 : setup.engines[i]->EvaluateAll(inst.dirty);
      now = NowNs();
      latencies_ms->push_back({now, (now - t0) * 1e-6});
      ++counts.attempted;
      done_ns.push_back(now);
      ++op;
      std::string why;
      if (!SameReport(report, reference[i], &why)) {
        ++counts.failed;
        result.Fail("batch report on " + inst.name +
                    " differs from the 1-thread reference: " + why);
      }
    }
    return WindowedThroughput(std::move(done_ns), start);
  };

  Samples latencies_ms;
  if (!cfg.trace) {
    const double ops_per_s = run_phase(cfg.seconds, false, &latencies_ms);
    const double peak_rss_mb = PeakRssMb();
    for (int k = 0; k < kSetupsAfter; ++k) {
      Setup extra;
      timed_setup(&extra);
    }
    result.AddE2E("setup_s", Median(setup_s), "s", setup_s.size());
    result.AddE2E("peak_rss_mb", peak_rss_mb, "MB");
    result.AddE2E("throughput_ops_s", ops_per_s, "1/s", latencies_ms.size());
    result.AddLatency("report", Summarize(latencies_ms), "ms");
    return result;
  }

  const double untraced = run_phase(cfg.seconds / 2, false, &latencies_ms);
  latencies_ms.clear();
  SetTracing(true);
  const uint64_t traced_start = NowNs();
  const double traced = run_phase(cfg.seconds / 2, true, &latencies_ms);
  const double traced_wall = (NowNs() - traced_start) * 1e-9;
  SetTracing(false);
  ReportTrace(cfg, untraced, traced, traced_wall, &result);

  // One instance per dataset keeps the probe suite's run time bounded.
  std::vector<Group> groups;
  for (size_t i = 0; i < std::size(kSpecs); ++i) {
    groups.push_back({{&setup.instances[i]}});
  }
  RunLayerProbes(cfg, groups, &result);
  return result;
}

}  // namespace perfbench
