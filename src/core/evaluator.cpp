#include "core/evaluator.hpp"

#include <chrono>
#include <exception>
#include <optional>

#include "core/experiment.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/collector.hpp"
#include "simprof/profiler.hpp"

namespace columbia::core {

EvalResult Evaluator::evaluate(const ScenarioSpec& spec,
                               const EvalOptions& opts) const {
  EvalResult result;
  result.spec_hash = spec.hash();

  const Experiment* exp = find_experiment(spec.experiment);
  if (exp == nullptr) {
    result.error = "unknown experiment id: " + spec.experiment;
    return result;
  }
  sim::RunContext ctx;
  std::string terr;
  if (!machine::parse_transport(spec.transport, ctx.transport, terr)) {
    result.error = terr;
    return result;
  }

  try {
    // Registration order is fan-out order: check before profile.
    std::optional<simcheck::CheckCollector> check;
    std::optional<simprof::ProfileCollector> profile;
    std::optional<simfault::FaultCollector> faults;
    if (spec.check) check.emplace(ctx);
    if (spec.profile) {
      simprof::ProfileOptions popts;
      popts.retain_timeline = opts.retain_timeline;
      profile.emplace(ctx, popts);
    }
    if (spec.faults) {
      faults.emplace(ctx, simfault::FaultSpec::uniform(spec.fault_seed,
                                                       spec.fault_intensity));
    }

    // simlint:allow(nondet-source) — host-side serving latency, never
    // simulation state; report bytes stay (spec)-pure.
    const auto t0 = std::chrono::steady_clock::now();
    const Report report = exp->run_exec(opts.exec.in(ctx));
    // simlint:allow(nondet-source) — see above
    const auto t1 = std::chrono::steady_clock::now();
    result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
    result.events = ctx.events.load(std::memory_order_relaxed);
    // The exact bytes run_experiment prints for one id: header, blank
    // line, rendered report, trailing newline.
    result.report = "### " + exp->id + " — " + exp->paper_ref + "\n### " +
                    exp->title + "\n\n" + report.render() + "\n";
    result.ok = true;

    if (check) {
      const auto report = check->drain();
      result.check_report = report.render();
      result.check_json = report.to_json();
      result.check_clean = report.clean();
    }
    if (profile) {
      const auto report = profile->drain_report();
      result.profile_report = report.render();
      result.profile_json = report.to_json();
      if (opts.retain_timeline) {
        const auto trace = profile->drain_trace();
        result.trace_valid = trace.valid;
        if (trace.valid) {
          result.trace_chrome_json = trace.chrome_json();
          result.trace_gantt_csv = trace.gantt_csv();
          result.trace_comm_csv = trace.comm_csv();
        }
      }
    }
    if (faults) result.fault_stats = faults->drain();
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = std::string("evaluation failed: ") + e.what();
    result.report.clear();
  }
  return result;
}

}  // namespace columbia::core
