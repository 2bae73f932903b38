// colbench: the repository benchmark driver. One process runs one
// workload for one seed and prints one JSON result line last on stdout.
//
//   colbench --workload mpi_apps|io_flow --seed N --seconds S
//            --trace 0|1
//   colbench --write-fingerprints FILE
//
// Run it from the repository root. --trace 0 reports the end-to-end
// metrics. --trace 1 runs the first half of the ops untraced and traced
// (their wall ratio is the tracing overhead), adds the layer probes, and
// writes the span log under .bench_out/. Every timed op's result bytes
// are checked against perfbench/fingerprints.txt; an op that fails or
// differs counts as failed. perfbench/run.py builds and runs this binary.

#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include "alloc_count.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "driver.hpp"
#include "reference.hpp"

namespace perfbench {
namespace {

using columbia::core::EvalResult;
using columbia::core::Evaluator;
using columbia::core::ScenarioSpec;

// Set-up runs this many times and reports the median, so one slow round
// does not move setup_s.
constexpr int kSetupRounds = 5;

// Each op is normalized by the reference samples of the 11 ops around it.
constexpr std::size_t kSpeedRadius = 5;

constexpr const char* kFingerprints = "perfbench/fingerprints.txt";
constexpr const char* kSpansDir = ".bench_out";

struct Args {
  Workload workload = Workload::MpiApps;
  std::uint64_t seed = 0;
  int seconds = 10;
  bool trace = false;
  std::string write_fingerprints;
};

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = flag + " needs a value";
      return false;
    }
    const std::string v = argv[++i];
    auto number = [&](std::uint64_t& out, std::uint64_t lo, std::uint64_t hi) {
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
      if (ec != std::errc() || end != v.data() + v.size() || out < lo || out > hi) {
        error = flag + " expects an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "], got '" + v + "'";
        return false;
      }
      return true;
    };
    std::uint64_t n = 0;
    if (flag == "--workload") {
      if (!parse_workload(v, a.workload)) {
        error = "unknown workload '" + v + "'";
        return false;
      }
      have_workload = true;
    } else if (flag == "--seed") {
      if (!number(a.seed, 0, UINT64_MAX)) return false;
    } else if (flag == "--seconds") {
      if (!number(n, 1, 600)) return false;
      a.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!number(n, 0, 1)) return false;
      a.trace = n == 1;
    } else if (flag == "--write-fingerprints") {
      a.write_fingerprints = v;
    } else {
      error = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload && a.write_fingerprints.empty()) {
    error = "--workload is required";
    return false;
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

Fingerprint result_fingerprint(const EvalResult& r) {
  return fingerprint_of(r.report, r.check_json, r.profile_json);
}

/// Regeneration mode: evaluates every distinct spec twice (the two must
/// agree) and writes the fingerprint table.
int write_fingerprints(const std::string& path) {
  const Evaluator evaluator;
  FingerprintTable table;
  std::vector<ScenarioSpec> specs = serve_probe_specs();
  for (Workload w : {Workload::MpiApps, Workload::IoFlow}) {
    for (ScenarioSpec& spec : distinct_specs(w)) specs.push_back(std::move(spec));
  }
  for (const ScenarioSpec& spec : specs) {
    const std::string note = spec.experiment + " transport=" + spec.transport;
    const EvalResult a = evaluator.evaluate(spec);
    const EvalResult b = evaluator.evaluate(spec);
    if (!a.ok || !b.ok || !(result_fingerprint(a) == result_fingerprint(b))) {
      std::fprintf(stderr, "colbench: %s is failing or not deterministic: %s\n",
                   note.c_str(), a.ok ? b.error.c_str() : a.error.c_str());
      return 1;
    }
    table.set(spec, result_fingerprint(a), note);
  }
  std::ofstream out(path, std::ios::binary);
  out << table.render();
  if (!out.flush()) {
    std::fprintf(stderr, "colbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(stderr, "colbench: %zu fingerprints -> %s\n", table.size(), path.c_str());
  return 0;
}

struct BatchRun {
  std::vector<double> latency;  ///< evaluate() calls
  std::vector<double> op_s;     ///< whole ops: evaluate() plus the check
  double wall_s = 0.0;          ///< sum of op_s
  std::uint64_t good = 0;
  std::uint64_t events = 0;
};

/// The closed loop: one client evaluates the ops back to back. `first` is
/// the index of ops[0] in the plan, for the span log. With `speed`, a
/// reference unit runs before each op, outside the op's time.
BatchRun run_batch(const Evaluator& ev, std::span<const Op> ops, std::size_t first,
                   const FingerprintTable& fps, SpanLog* log, Tally& tally,
                   HostSpeed* speed = nullptr) {
  BatchRun out;
  out.latency.reserve(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (speed) speed->sample();
    const auto op = static_cast<std::int64_t>(first + i);
    const auto t0 = Clock::now();
    const std::uint32_t root = log ? log->open("bench.op", 0, op, t0) : 0;
    const std::uint32_t call = log ? log->open("core.evaluate", root, op) : 0;
    const EvalResult r = ev.evaluate(ops[i].spec);
    if (log) log->close(call);
    out.latency.push_back(seconds_between(t0, Clock::now()));
    const bool good = tally.check(fps, ops[i].spec, r.ok, result_fingerprint(r));
    if (log) log->close(root);
    out.op_s.push_back(seconds_between(t0, Clock::now()));
    out.wall_s += out.op_s.back();
    out.events += r.events;
    out.good += good;
  }
  return out;
}

/// Tallies a serve run's responses against the fingerprints.
void check_serve(const ServeRun& run, const std::vector<Op>& ops,
                 const FingerprintTable& fps, Tally& tally) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ServeRecord& rec = run.records[i];
    const bool answered = rec.answered && rec.outcome;
    const Fingerprint got =
        answered ? fingerprint_of(rec.outcome->report, rec.outcome->check_json,
                                  rec.outcome->profile_json)
                 : Fingerprint{};
    tally.check(fps, ops[i].spec, answered && rec.outcome->ok, got);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

bool load_fingerprints(const std::string& path, FingerprintTable& fps,
                       std::string& error) {
  const std::string text = read_file(path);
  if (text.empty()) {
    error = "no fingerprints in " + path;
    return false;
  }
  fps = FingerprintTable();
  return fps.parse(text, error);
}

/// Adds the end-to-end latency, wall and goodput metrics.
bool e2e_metrics(const std::vector<double>& latency, double wall_s,
                 std::uint64_t good, Metrics& m, std::string& error) {
  const auto p50 = percentile(latency, 0.5, error);
  const auto p90 = p50 ? percentile(latency, 0.9, error) : std::nullopt;
  if (!p90) {
    error = "latency: " + error;
    return false;
  }
  m["wall_s"] = {wall_s, "s"};
  m["latency_p50_s"] = {*p50, "s"};
  m["latency_p90_s"] = {*p90, "s"};
  m["goodput_rps"] = {static_cast<double>(good) / wall_s, "1/s"};
  return true;
}

/// Evaluates each op untraced and traced, alternating which goes first
/// so neither gains from the other's warm caches and a change in host
/// speed hits both alike. Adds the core.* metrics and
/// trace.overhead_ratio.
void trace_batch(const Evaluator& ev, const std::vector<Op>& ops,
                 const FingerprintTable& fps, SpanLog& log, Tally& tally, Metrics& m) {
  double plain_s = 0.0, traced_s = 0.0, eval_s = 0.0;
  std::uint64_t events = 0, allocs = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::span<const Op> one(&ops[i], 1);
    auto plain = [&] { plain_s += run_batch(ev, one, i, fps, nullptr, tally).wall_s; };
    auto traced = [&] {
      set_alloc_counting(true);
      const std::uint64_t a0 = allocations();
      const BatchRun r = run_batch(ev, one, i, fps, &log, tally);
      allocs += allocations() - a0;
      set_alloc_counting(false);
      traced_s += r.wall_s;
      eval_s += r.latency[0];
      events += r.events;
    };
    if (i % 2) {
      plain();
      traced();
    } else {
      traced();
      plain();
    }
  }
  const double n = static_cast<double>(ops.size());
  m["core.events_per_op"] = {static_cast<double>(events) / n, "count"};
  m["core.allocs_per_op"] = {static_cast<double>(allocs) / n, "count"};
  m["core.host_ns_per_event"] = {eval_s * 1e9 / static_cast<double>(events), "ns"};
  m["trace.overhead_ratio"] = {traced_s / plain_s, "ratio"};
}

/// Sets up and runs the workload; fills `m` with the end-to-end metrics,
/// or with the per-layer metrics when `log` is set.
bool run_workload(const Args& a, Clock::time_point process_start, SpanLog* log,
                  Metrics& m, Tally& tally, std::string& error) {
  std::vector<double> setup;
  HostSpeed setup_speed;
  FingerprintTable fps;
  Plan plan;
  std::unique_ptr<Evaluator> evaluator;
  for (int round = 0; round < kSetupRounds; ++round) {
    const auto t0 = round == 0 ? process_start : Clock::now();
    columbia::core::experiment_registry();
    if (!load_fingerprints(kFingerprints, fps, error)) return false;
    plan = make_plan(a.workload, a.seed, a.seconds);
    evaluator = std::make_unique<Evaluator>();
    for (const auto& spec : plan.warmup) evaluator->evaluate(spec);
    setup.push_back(seconds_between(t0, Clock::now()));
    setup_speed.sample();
  }

  if (!log) {
    // Each op's time is divided by the host slowdown measured around it.
    HostSpeed speed;
    const BatchRun run = run_batch(*evaluator, plan.ops, 0, fps, nullptr, tally, &speed);
    std::vector<double> latency;
    double wall_s = 0.0;
    for (std::size_t i = 0; i < run.latency.size(); ++i) {
      const double f = speed.factor_near(i, kSpeedRadius);
      latency.push_back(run.latency[i] / f);
      wall_s += run.op_s[i] / f;
    }
    std::fprintf(stderr, "colbench: wall %.6f s on this host, slowdown %.4f\n", run.wall_s,
                 speed.factor());
    m["setup_s"] = {median(setup) / setup_speed.factor(), "s"};
    m["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    return e2e_metrics(latency, wall_s, run.good, m, error);
  }

  // A traced run measures the first half of the ops twice, untraced and
  // traced, so it takes about as long as an untraced run.
  plan.ops.resize(plan.ops.size() / 2);
  trace_batch(*evaluator, plan.ops, fps, *log, tally, m);
  set_alloc_counting(true);
  run_layer_probes(*log, m);
  set_alloc_counting(false);
  if (!run_analyzer_probe(*log, m, error)) return false;
  // The workloads bypass simserve; the probe stream measures that layer.
  const Plan probe = make_serve_probe_plan(a.seed);
  ServeHarness harness(log);
  if (!harness.warm(probe.warmup)) {
    error = "a serve probe warm-up evaluation failed";
    return false;
  }
  const ServeRun run = harness.run(probe.ops);
  check_serve(run, probe.ops, fps, tally);
  return serve_layer_metrics(run, m, error);
}

std::string json_number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto process_start = Clock::now();
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "colbench: %s\n", error.c_str());
    return 2;
  }
  if (!args.write_fingerprints.empty()) return write_fingerprints(args.write_fingerprints);

  SpanLog spans;
  Metrics metrics;
  Tally tally;
  if (!run_workload(args, process_start, args.trace ? &spans : nullptr, metrics,
                    tally, error)) {
    std::fprintf(stderr, "colbench: %s\n", error.c_str());
    return 1;
  }
  if (args.trace) {
    std::filesystem::create_directories(kSpansDir);
    const std::string path = std::string(kSpansDir) + "/spans-" + workload_name(args.workload) +
                             "-" + std::to_string(args.seed) + ".json";
    std::ofstream out(path, std::ios::binary);
    out << spans.to_json();
    if (!out.flush()) {
      std::fprintf(stderr, "colbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "colbench: spans -> %s\n", path.c_str());
  }

  std::string json = "{\"correct\": ";
  json += tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(tally.attempted);
  json += ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "  %-32s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
