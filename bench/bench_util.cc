#include "bench_util.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/string_util.h"

namespace dbim::bench {

BenchArgs BenchArgs::Parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      args.full = true;
    } else if (StartsWith(arg, "--scale=")) {
      args.scale = std::strtod(arg.c_str() + 8, nullptr);
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (StartsWith(arg, "--out=")) {
      args.out_dir = arg.substr(6);
    } else if (StartsWith(arg, "--seed=")) {
      args.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (StartsWith(arg, "--threads=")) {
      args.threads = std::strtoull(arg.c_str() + 10, nullptr, 10);
    } else if (StartsWith(arg, "--json=")) {
      args.json_out = arg.substr(7);
    } else if (StartsWith(arg, "--thread-sweep=")) {
      args.thread_sweep.clear();
      for (const std::string& part : Split(arg.substr(15), ',')) {
        if (!part.empty()) {
          args.thread_sweep.push_back(
              std::strtoull(part.c_str(), nullptr, 10));
        }
      }
    } else if (arg == "--skip-scratch") {
      args.skip_scratch = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --full --scale=X --csv --out=DIR --seed=N --threads=N\n"
          "       --json=PATH --thread-sweep=1,2,4 --skip-scratch\n"
          "  --full uses the paper's sizes; default is a reduced scale\n"
          "  --threads sets detector worker threads (0 = hardware)\n"
          "  --json also writes the table as JSON to PATH\n"
          "  --thread-sweep sets the thread counts swept by scaling benches\n"
          "  --skip-scratch skips from-scratch re-detection replays (for\n"
          "    the 1M+-tuple churn regime)\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

size_t BenchArgs::SampleSize(size_t base, size_t paper) const {
  if (full) return paper;
  const double scaled = static_cast<double>(base) * scale;
  return static_cast<size_t>(std::max(scaled, 16.0));
}

MeasureEngineOptions BenchArgs::EngineOptions() const {
  MeasureEngineOptions options;
  options.detector.num_threads = threads;
  return options;
}

void PrintHeader(const std::string& experiment, const std::string& about) {
  std::printf("\n================================================================\n");
  std::printf("%s\n%s\n", experiment.c_str(), about.c_str());
  std::printf("================================================================\n");
}

void Emit(const BenchArgs& args, const std::string& name,
          const TablePrinter& table) {
  std::printf("%s\n", table.ToText().c_str());
  if (!args.json_out.empty()) {
    if (table.WriteJson(name, args.json_out)) {
      std::printf("[json] wrote %s\n", args.json_out.c_str());
    } else {
      std::fprintf(stderr, "[json] FAILED to write %s\n",
                   args.json_out.c_str());
    }
  }
  if (!args.csv) return;
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/" + name + ".csv";
  if (table.WriteCsv(path)) {
    std::printf("[csv] wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "[csv] FAILED to write %s\n", path.c_str());
  }
}

TrajectoryResult RunTrajectory(const Dataset& dataset,
                               MeasureEngineOptions engine,
                               const NoiseStep& step, size_t iterations,
                               size_t sample_every, Rng& rng) {
  // The whole trajectory lives in one session: violation state is
  // maintained across noise steps (no per-sample detection for binary
  // Sigma) and sustained value churn triggers the shared-pool auto-vacuum.
  engine.WithAutoVacuum(0.5);
  MeasureSession session(dataset.schema, dataset.constraints,
                         std::move(engine));
  const DbHandle handle = session.Register(dataset.data);
  const CellUpdateFn update = [&](FactId id, AttrIndex attr, Value v) {
    session.Apply(handle, RepairOperation::Update(id, attr, std::move(v)));
  };

  // Collect raw values first; normalization needs the final magnitudes.
  std::vector<std::string> names;
  std::vector<size_t> points;
  std::vector<std::vector<double>> raw;
  for (size_t iteration = 1; iteration <= iterations; ++iteration) {
    step(session.db(handle), rng, update);
    if (iteration % sample_every != 0 && iteration != iterations) continue;
    points.push_back(iteration);
    const BatchReport report = session.Evaluate(handle);
    if (names.empty()) {
      for (const MeasureResult& m : report.measures) names.push_back(m.name);
    }
    std::vector<double> row;
    row.reserve(report.measures.size());
    for (const MeasureResult& m : report.measures) row.push_back(m.value);
    raw.push_back(std::move(row));
  }
  std::vector<std::string> header = {"iteration"};
  header.insert(header.end(), names.begin(), names.end());

  std::vector<double> max_value(names.size(), 0.0);
  for (const auto& row : raw) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (!std::isnan(row[c])) max_value[c] = std::max(max_value[c], row[c]);
    }
  }

  TrajectoryResult result{TablePrinter(header), 0.0};
  for (size_t r = 0; r < raw.size(); ++r) {
    std::vector<std::string> cells = {std::to_string(points[r])};
    for (size_t c = 0; c < raw[r].size(); ++c) {
      if (std::isnan(raw[r][c])) {
        cells.push_back("timeout");
      } else if (max_value[c] <= 0.0) {
        cells.push_back("0.0");
      } else {
        cells.push_back(TablePrinter::Num(raw[r][c] / max_value[c], 3));
      }
    }
    result.table.AddRow(std::move(cells));
  }

  result.final_violation_ratio =
      session.Violations(handle).ViolatingPairRatio(session.db(handle).size());
  return result;
}

}  // namespace dbim::bench
