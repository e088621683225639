#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>
#include <unistd.h>

#include "bench.h"
#include "common/rng.h"
#include "datagen/noise.h"
#include "measures/engine.h"

namespace perfbench {

size_t BenchThreads() {
  const size_t hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw == 0 ? 1 : hw, 1, 4);
}

dbim::SessionOptions MeasureOptions() {
  dbim::SessionOptions options;
  options.registry.include_mc = false;
  return options;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ----------------------------------------------------------- latencies --

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

constexpr size_t kWindows = 10;

// Nearest rank: the 1-based rank of the p-th percentile of n samples.
size_t Rank(double pct, size_t n) {
  return static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
}

std::vector<double> Values(const Samples& samples) {
  std::vector<double> values;
  values.reserve(samples.size());
  for (const Sample& s : samples) values.push_back(s.value);
  return values;
}

}  // namespace

Latency Summarize(Samples samples) {
  Latency out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.done_ns < b.done_ns;
            });
  const size_t windows = std::min(kWindows, out.n);
  std::vector<double> p50s, p90s;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> window;
    for (size_t i = w * out.n / windows; i < (w + 1) * out.n / windows; ++i) {
      window.push_back(samples[i].value);
    }
    std::sort(window.begin(), window.end());
    p50s.push_back(Median(window));
    p90s.push_back(window[std::max<size_t>(Rank(90.0, window.size()), 1) - 1]);
  }
  out.p50 = Median(p50s);
  out.p90 = Median(p90s);

  std::vector<double> all = Values(samples);
  std::sort(all.begin(), all.end());
  out.tail = Median(all);
  static const double kLadder[] = {75.0, 90.0, 95.0, 99.0, 99.9};
  for (const double pct : kLadder) {
    const size_t r = Rank(pct, out.n);
    if (r == 0 || out.n - r < 10) break;  // need >= 10 samples beyond it
    out.tail = all[r - 1];
    out.tail_pct = pct;
  }
  return out;
}

double WindowedThroughput(std::vector<uint64_t> done_ns, uint64_t start_ns) {
  if (done_ns.empty()) return 0.0;
  std::sort(done_ns.begin(), done_ns.end());
  const size_t n = done_ns.size();
  if (n < kWindows) return n / ((done_ns.back() - start_ns) * 1e-9);
  std::vector<double> rates;
  uint64_t from = start_ns;
  for (size_t w = 0; w < kWindows; ++w) {
    const size_t lo = w * n / kWindows, hi = (w + 1) * n / kWindows;
    const uint64_t to = done_ns[hi - 1];
    rates.push_back((hi - lo) / ((to - from) * 1e-9));
    from = to;
  }
  return Median(rates);
}

// -------------------------------------------------------------- result --

void Result::Fail(const std::string& why) {
  // Keep the first few messages; a systematic failure repeats per op.
  constexpr size_t kMaxMessages = 20;
  if (failures.size() < kMaxMessages) {
    failures.push_back(why);
  } else if (failures.size() == kMaxMessages) {
    failures.push_back("(further check failures not shown)");
  }
}

void Result::AddE2E(std::string name, double value, std::string unit,
                    size_t samples, std::string note) {
  end_to_end.push_back(Metric{std::move(name), value, std::move(unit),
                              samples, std::move(note)});
}

void Result::AddLayer(std::string name, double value, std::string unit,
                      size_t samples) {
  per_layer.push_back(
      Metric{std::move(name), value, std::move(unit), samples, ""});
}

void Result::AddLatency(const std::string& stem, const Latency& latency,
                        const std::string& unit) {
  char pct[32];
  std::snprintf(pct, sizeof(pct), "p%g", latency.tail_pct);
  AddE2E(stem + "_p50_" + unit, latency.p50, unit, latency.n, "p50");
  AddE2E(stem + "_p90_" + unit, latency.p90, unit, latency.n, "p90");
  AddE2E(stem + "_tail_" + unit, latency.tail, unit, latency.n, pct);
}

uint64_t Result::Attempted() const {
  uint64_t n = 0;
  for (const auto& [name, counts] : ops) n += counts.attempted;
  return n;
}

uint64_t Result::FailedOrRefused() const {
  uint64_t n = 0;
  for (const auto& [name, counts] : ops) n += counts.failed + counts.refused;
  return n;
}

// --------------------------------------------------------------- spans --

namespace {

std::atomic<bool> g_tracing{false};

struct ThreadSpans {
  std::vector<SpanRecord> spans;
  std::vector<size_t> open;  // indices of open spans (the parent stack)
  uint64_t thread_index = 0;
  uint64_t next_local = 1;
};

std::mutex g_registry_mu;
std::vector<std::shared_ptr<ThreadSpans>>& Registry() {
  static auto* registry = new std::vector<std::shared_ptr<ThreadSpans>>();
  return *registry;
}

ThreadSpans& Local() {
  thread_local std::shared_ptr<ThreadSpans> local = [] {
    auto spans = std::make_shared<ThreadSpans>();
    std::lock_guard<std::mutex> lock(g_registry_mu);
    spans->thread_index = Registry().size() + 1;
    Registry().push_back(spans);
    return spans;
  }();
  return *local;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }

ScopedSpan::ScopedSpan(const char* name, uint64_t op) {
  if (!g_tracing.load(std::memory_order_acquire)) return;
  ThreadSpans& local = Local();
  SpanRecord span;
  span.name = name;
  span.id = (local.thread_index << 40) | local.next_local++;
  span.parent =
      local.open.empty() ? 0 : local.spans[local.open.back()].id;
  span.op = op;
  index_ = local.spans.size();
  local.open.push_back(index_);
  active_ = true;
  span.start_ns = NowNs();
  local.spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const uint64_t end = NowNs();
  ThreadSpans& local = Local();
  local.spans[index_].end_ns = end;
  local.open.pop_back();
}

void RecordSpan(const char* name, uint64_t start_ns, uint64_t end_ns,
                uint64_t op) {
  if (!g_tracing.load(std::memory_order_acquire)) return;
  ThreadSpans& local = Local();
  SpanRecord span;
  span.name = name;
  span.id = (local.thread_index << 40) | local.next_local++;
  span.parent = local.open.empty() ? 0 : local.spans[local.open.back()].id;
  span.op = op;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  local.spans.push_back(span);
}

const char* InternName(const std::string& name) {
  static std::mutex mu;
  static auto* names = new std::set<std::string>();
  std::lock_guard<std::mutex> lock(mu);
  return names->insert(name).first->c_str();
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& local : Registry()) {
    all.insert(all.end(), local->spans.begin(), local->spans.end());
    local->spans.clear();
  }
  return all;
}

SpanSummary SummarizeSpans(const std::vector<SpanRecord>& spans) {
  SpanSummary summary;
  std::map<uint64_t, double> child_ms;  // parent id -> covered by children
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) {
      child_ms[span.parent] += (span.end_ns - span.start_ns) * 1e-6;
    }
  }
  // Per thread (the id's high bits), the union of every layer span's
  // interval: pipelined wire spans overlap, so durations alone would
  // over-count the covered wall time.
  std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> intervals;
  for (const SpanRecord& span : spans) {
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    const auto covered = child_ms.find(span.id);
    summary.self_ms[layer] +=
        (span.end_ns - span.start_ns) * 1e-6 -
        (covered == child_ms.end() ? 0.0 : covered->second);
    ++summary.count[layer];
    if (layer != "op") {
      intervals[span.id >> 40].emplace_back(span.start_ns, span.end_ns);
    }
  }
  for (auto& [thread, list] : intervals) {
    std::sort(list.begin(), list.end());
    uint64_t lo = 0, hi = 0;
    for (const auto& [start, end] : list) {
      if (start > hi) {
        summary.layer_ms += (hi - lo) * 1e-6;
        lo = start;
        hi = end;
      } else {
        hi = std::max(hi, end);
      }
    }
    summary.layer_ms += (hi - lo) * 1e-6;
  }
  return summary;
}

bool WriteSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  for (const SpanRecord& span : spans) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"id\":" << span.id
        << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
  }
  return static_cast<bool>(out);
}

void ReportTrace(const Config& cfg, double untraced_ops_per_s,
                 double traced_ops_per_s, double traced_thread_seconds,
                 Result* result) {
  const std::vector<SpanRecord> spans = CollectSpans();
  const SpanSummary summary = SummarizeSpans(spans);
  const double overhead_pct =
      traced_ops_per_s > 0.0
          ? (untraced_ops_per_s / traced_ops_per_s - 1.0) * 100.0
          : 0.0;
  const double coverage =
      traced_thread_seconds > 0.0
          ? summary.layer_ms / (traced_thread_seconds * 1e3)
          : 0.0;
  result->AddLayer("trace.overhead_pct", overhead_pct, "%");
  result->AddLayer("trace.span_coverage", coverage, "ratio", spans.size());
  char line[256];
  std::snprintf(line, sizeof(line),
                "tracing overhead %.2f%% (untraced %.1f ops/s, traced %.1f "
                "ops/s); layer spans cover %.1f%% of client wall time",
                overhead_pct, untraced_ops_per_s, traced_ops_per_s,
                coverage * 100.0);
  result->notes.push_back(line);
  for (const auto& [layer, ms] : summary.self_ms) {
    std::snprintf(line, sizeof(line), "self time %-16s %12.3f ms over %zu spans",
                  layer.c_str(), ms, summary.count.at(layer));
    result->notes.push_back(line);
  }
  const std::string path = cfg.out_dir + "/" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".spans.jsonl";
  if (!WriteSpans(path, spans)) {
    result->Fail("cannot write span dump " + path);
  } else {
    result->notes.push_back("span dump: " + path);
  }
}

// ------------------------------------------------------ workload inputs --

Instance MakeInstance(dbim::DatasetId id, size_t tuples, uint64_t data_seed,
                      uint64_t noise_seed, size_t noise_steps,
                      size_t target_subsets) {
  dbim::Dataset dataset = dbim::MakeDataset(id, tuples, data_seed);
  Instance instance;
  instance.name = dbim::DatasetName(id);
  instance.schema = dataset.schema;
  instance.relation = dataset.relation;
  instance.constraints = dataset.constraints;
  instance.dirty = dataset.data;
  const dbim::CoNoiseGenerator noise(dataset.data, dataset.constraints);
  dbim::Rng rng(noise_seed);
  if (target_subsets == 0) {
    for (size_t i = 0; i < noise_steps; ++i) noise.Step(instance.dirty, rng);
  } else {
    // A session mirrors every noise update so |MI| is known after each
    // step without re-detecting.
    dbim::MeasureSession counter(dataset.schema, dataset.constraints,
                                 MeasureOptions());
    const dbim::DbHandle h = counter.Register(dataset.data);
    for (size_t i = 0;
         i < noise_steps && counter.NumMinimalSubsets(h) < target_subsets;
         ++i) {
      noise.Step(instance.dirty, rng,
                 [&](dbim::FactId fact, dbim::AttrIndex attr, dbim::Value v) {
                   counter.Apply(h, RepairOperation::Update(fact, attr, v));
                   instance.dirty.UpdateValue(fact, attr, std::move(v));
                 });
    }
  }

  std::vector<dbim::FactId> ids = dataset.data.ids();
  std::sort(ids.begin(), ids.end());
  for (const dbim::FactId fid : ids) {
    const dbim::Fact& clean = dataset.data.fact(fid);
    const dbim::Fact& dirty = instance.dirty.fact(fid);
    for (dbim::AttrIndex a = 0; a < clean.arity(); ++a) {
      if (clean.value(a) == dirty.value(a)) continue;
      instance.restore.push_back(
          RepairOperation::Update(fid, a, clean.value(a)));
      instance.redirty.push_back(
          RepairOperation::Update(fid, a, dirty.value(a)));
    }
  }
  auto shuffle = [&](std::vector<RepairOperation>& ops) {
    for (size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.UniformIndex(i)]);
    }
  };
  shuffle(instance.restore);
  shuffle(instance.redirty);
  return instance;
}

bool SameReport(const BatchReport& got, const BatchReport& want,
                std::string* why) {
  if (got.num_minimal_subsets != want.num_minimal_subsets) {
    *why = "subsets " + std::to_string(got.num_minimal_subsets) + " != " +
           std::to_string(want.num_minimal_subsets);
    return false;
  }
  if (got.truncated != want.truncated) {
    *why = "truncation flag differs";
    return false;
  }
  if (got.measures.size() != want.measures.size()) {
    *why = "measure count differs";
    return false;
  }
  for (size_t m = 0; m < got.measures.size(); ++m) {
    if (got.measures[m].name != want.measures[m].name ||
        !(got.measures[m].value == want.measures[m].value)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s = %.17g, want %s = %.17g",
                    got.measures[m].name.c_str(), got.measures[m].value,
                    want.measures[m].name.c_str(), want.measures[m].value);
      *why = buf;
      return false;
    }
  }
  return true;
}

bool ZeroReport(const BatchReport& report) {
  if (report.num_minimal_subsets != 0) return false;
  for (const dbim::MeasureResult& m : report.measures) {
    if (!(m.value == 0.0)) return false;
  }
  return true;
}

std::vector<BatchReport> FreshReports(const std::vector<Instance>& instances) {
  std::vector<BatchReport> reports;
  for (const Instance& inst : instances) {
    const dbim::MeasureEngine engine(inst.schema, inst.constraints,
                                     MeasureOptions());
    reports.push_back(engine.EvaluateAll(inst.dirty));
  }
  return reports;
}

BatchReport TracedMeasures(
    const dbim::ViolationDetector& detector,
    const std::vector<std::unique_ptr<dbim::InconsistencyMeasure>>& measures,
    const Database& db, dbim::ViolationSet violations, uint64_t op) {
  dbim::MeasureContext context(detector, db, std::move(violations));
  BatchReport report;
  report.num_minimal_subsets = context.violations().num_minimal_subsets();
  report.truncated = context.violations().truncated();
  {
    ScopedSpan span("conflict_graph.Build", op);
    context.conflict_graph();
  }
  for (const auto& measure : measures) {
    ScopedSpan span(InternName("measures." + measure->name()), op);
    report.measures.push_back(
        dbim::MeasureResult{measure->name(), measure->Evaluate(context), 0.0});
  }
  return report;
}

Database RebuildDatabase(
    std::shared_ptr<const Schema> schema, dbim::RelationId relation,
    const std::vector<std::pair<dbim::FactId, std::vector<dbim::Value>>>&
        rows) {
  Database db(std::move(schema));
  for (const auto& [id, cells] : rows) {
    db.InsertWithId(id, dbim::Fact(relation, cells));
  }
  return db;
}

std::string MakeStoreDir(const Config& cfg, const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = cfg.out_dir + "/store-" +
                          std::to_string(getpid()) + "-" + tag + "-" +
                          std::to_string(counter.fetch_add(1));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
