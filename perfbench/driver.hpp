#pragma once
/// \file driver.hpp
/// The parts of the benchmark driver that run the simulator: the serve
/// loop and the layer probes. main.cpp runs the batch loop and prints the
/// result.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simserve/service.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// One request of an open-loop serve run. The eval times are set only in
/// a traced run, for requests that were evaluated rather than served from
/// the cache.
struct ServeRecord {
  Clock::time_point due;
  Clock::time_point submitted;        ///< submit() called
  Clock::time_point submit_returned;  ///< submit() returned
  Clock::time_point done;             ///< callback ran
  Clock::time_point eval_start;
  Clock::time_point eval_end;
  bool answered = false;
  bool evaluated = false;
  bool cached = false;
  bool coalesced = false;
  std::shared_ptr<const columbia::simserve::EvalOutcome> outcome;
};

struct ServeRun {
  std::vector<ServeRecord> records;  ///< parallel to the plan's ops
  Clock::time_point start;  ///< the schedule's time zero
  double wall_s = 0.0;      ///< schedule start to the last callback
  columbia::simserve::ServiceStats stats;  ///< delta over the run
};

/// A Service over the registry evaluator. With a span log, the evaluator
/// is wrapped to timestamp each evaluation's start and end.
class ServeHarness {
 public:
  explicit ServeHarness(SpanLog* log);
  ~ServeHarness();
  ServeHarness(const ServeHarness&) = delete;
  ServeHarness& operator=(const ServeHarness&) = delete;

  /// Submits and waits for `specs` one after another (set-up warm-up).
  /// False if any came back !ok.
  bool warm(const std::vector<columbia::core::ScenarioSpec>& specs);
  /// Runs `ops` as an open loop from this thread and drains the service.
  ServeRun run(const std::vector<Op>& ops);

 private:
  struct EvalTimes;
  SpanLog* log_;
  std::shared_ptr<EvalTimes> times_;
  std::unique_ptr<columbia::simserve::Service> service_;
};

/// Adds the simserve.* and bench.gen_late_p90_s metrics of `run` (which
/// must be traced). False, with `error`, if a percentile lacks samples.
bool serve_layer_metrics(const ServeRun& run, Metrics& out, std::string& error);

/// The sim, simmpi, machine and simio probes: median host ns per
/// operation over repeated batches, and exact heap allocations per
/// operation. Each probe is one span in `log`.
void run_layer_probes(SpanLog& log, Metrics& out);

/// Evaluates sec42, ext-io-overlap and ablation-variability plain and
/// with check+profile+faults, sequentially, and reports
/// analyzers.overhead_ratio: summed median analyzed time over summed
/// median plain time.
bool run_analyzer_probe(SpanLog& log, Metrics& out, std::string& error);

}  // namespace perfbench
