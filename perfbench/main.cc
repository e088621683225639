// dbim_perfbench: the repository's end-to-end benchmark.
//
//   dbim_perfbench --workload batch|trajectory|service --seed N
//                  --seconds S --trace 0|1 --out-dir DIR [--commit ID]
//
// Prints every metric by name with its unit (and the sample count of every
// timing), then as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Exits 1 when an output check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>

#include "bench.h"

#ifndef DBIM_PERFBENCH_BUILD_TYPE
#define DBIM_PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef DBIM_PERFBENCH_COMPILER
#define DBIM_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

// The end-to-end metrics every workload reports in its JSON line (the
// `end_to_end` list of BENCHMARK.json). apply_* exist only on the workloads
// that mutate, report_tail_ms (see Latency) and failed_ratio (0 on a
// healthy run) are printed, not gated.
const std::set<std::string> kJsonEndToEnd = {
    "setup_s", "peak_rss_mb", "throughput_ops_s", "report_p50_ms",
    "report_p90_ms"};

int Usage() {
  std::fprintf(stderr,
               "usage: dbim_perfbench --workload batch|trajectory|service "
               "--seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit ID]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetric(const Metric& m) {
  std::printf("  %-34s %18.6f %-6s", m.name.c_str(), m.value, m.unit.c_str());
  if (m.samples > 0) std::printf("  n=%zu", m.samples);
  if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
  std::printf("\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Config cfg;
  std::string commit = "unknown";
  bool have_workload = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i], value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage();
    }
    if (key == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out-dir") {
      cfg.out_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_trace || cfg.out_dir.empty() ||
      !(cfg.seconds > 0.0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  cfg.threads = BenchThreads();

  std::printf("dbim_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("environment: nproc=%u threads=%zu build=%s compiler=%s "
              "commit=%s\n",
              std::thread::hardware_concurrency(), cfg.threads,
              DBIM_PERFBENCH_BUILD_TYPE, DBIM_PERFBENCH_COMPILER,
              commit.c_str());
  std::fflush(stdout);

  Result result;
  if (cfg.workload == "batch") {
    result = RunBatch(cfg);
  } else if (cfg.workload == "trajectory") {
    result = RunTrajectory(cfg);
  } else if (cfg.workload == "service") {
    result = RunService(cfg);
  } else {
    return Usage();
  }

  const uint64_t attempted = result.Attempted();
  const uint64_t failed = result.FailedOrRefused();
  if (attempted == 0) result.Fail("no op was attempted");
  const std::vector<Metric>& reported =
      cfg.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) result.Fail(m.name + " is not finite");
  }

  std::printf("ops:\n");
  for (const auto& [kind, counts] : result.ops) {
    std::printf("  %-8s attempted=%llu failed=%llu refused=%llu\n",
                kind.c_str(),
                static_cast<unsigned long long>(counts.attempted),
                static_cast<unsigned long long>(counts.failed),
                static_cast<unsigned long long>(counts.refused));
  }
  std::printf("  failed_ratio = %.6f (failed + refused) / attempted\n",
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf("%s metrics:\n", cfg.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : reported) PrintMetric(m);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& why : result.failures) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::printf("output checks: %s\n",
              result.correct() ? "passed" : "FAILED (numbers are not valid)");

  std::string metrics;
  for (const Metric& m : reported) {
    if (!cfg.trace && kJsonEndToEnd.count(m.name) == 0) continue;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + JsonEscape(m.name) + "\": {\"value\": " +
               Number(std::isfinite(m.value) ? m.value : 0.0) +
               ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  const std::string line =
      std::string("{\"correct\": ") + (result.correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1)) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
      metrics + "}}";

  // The result record, with its environment stamp, beside the span dumps.
  std::ofstream record(cfg.out_dir + "/" + cfg.workload + "-seed" +
                       std::to_string(cfg.seed) +
                       (cfg.trace ? "-trace" : "") + ".result.json");
  record << "{\"environment\": {\"nproc\": "
         << std::thread::hardware_concurrency()
         << ", \"build\": \"" << DBIM_PERFBENCH_BUILD_TYPE
         << "\", \"compiler\": \"" << JsonEscape(DBIM_PERFBENCH_COMPILER)
         << "\", \"commit\": \"" << JsonEscape(commit) << "\"}, \"result\": "
         << line << "}\n";

  std::printf("%s\n", line.c_str());
  return result.correct() ? 0 : 1;
}
