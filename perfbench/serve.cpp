// The open-loop serve driver: one generator thread submits each request
// when it is due into an in-process simserve::Service; latency runs from
// the due time to the callback, so a stall delays every later request's
// clock too.

#include <algorithm>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "driver.hpp"
#include "simserve/eval.hpp"

namespace perfbench {

namespace simserve = columbia::simserve;
using columbia::core::ScenarioSpec;

/// Start and end of each evaluation, keyed by spec hash. Timed requests
/// carry unique labels, so a hash names one evaluation.
struct ServeHarness::EvalTimes {
  std::mutex mutex;
  std::unordered_map<std::uint64_t, std::pair<Clock::time_point, Clock::time_point>>
      by_hash;
};

ServeHarness::ServeHarness(SpanLog* log)
    : log_(log), times_(std::make_shared<EvalTimes>()) {
  simserve::EvalFn eval = simserve::registry_eval();
  if (log) {
    // EvalOutcome::events is a process-wide delta and wrong when
    // evaluations overlap, so service time comes from these timestamps.
    eval = [inner = std::move(eval), times = times_](const ScenarioSpec& spec) {
      const auto t0 = Clock::now();
      simserve::EvalOutcome out = inner(spec);
      const auto t1 = Clock::now();
      const std::uint64_t hash = spec.hash();
      std::lock_guard lock(times->mutex);
      times->by_hash[hash] = {t0, t1};
      return out;
    };
  }
  service_ = std::make_unique<simserve::Service>(std::move(eval));
}

ServeHarness::~ServeHarness() = default;

bool ServeHarness::warm(const std::vector<ScenarioSpec>& specs) {
  for (const auto& spec : specs) {
    const simserve::Response r = service_->evaluate(spec);
    if (!r.outcome || !r.outcome->ok) return false;
  }
  return true;
}

ServeRun ServeHarness::run(const std::vector<Op>& ops) {
  ServeRun out;
  out.records.resize(ops.size());
  const simserve::ServiceStats before = service_->stats();
  out.start = Clock::now();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ServeRecord& rec = out.records[i];
    rec.due = out.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(ops[i].due_s));
    std::this_thread::sleep_until(rec.due);
    rec.submitted = Clock::now();
    // The callback writes only fields the generator does not touch, and
    // drain() orders those writes before the reads below.
    service_->submit(ops[i].spec, [&rec](const simserve::Response& r) {
      rec.done = Clock::now();
      rec.answered = true;
      rec.cached = r.cached;
      rec.coalesced = r.coalesced;
      rec.outcome = r.outcome;
    });
    rec.submit_returned = Clock::now();
  }
  service_->drain();

  const simserve::ServiceStats after = service_->stats();
  out.stats = after;
  out.stats.requests -= before.requests;
  out.stats.evaluations -= before.evaluations;
  out.stats.cache_hits -= before.cache_hits;
  out.stats.coalesced -= before.coalesced;
  Clock::time_point last = out.start;
  for (const auto& rec : out.records) {
    if (rec.answered) last = std::max(last, rec.done);
  }
  out.wall_s = seconds_between(out.start, last);
  if (!log_) return out;

  {
    std::lock_guard lock(times_->mutex);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ServeRecord& rec = out.records[i];
      if (rec.cached || rec.coalesced) continue;
      const auto it = times_->by_hash.find(ops[i].spec.hash());
      if (it == times_->by_hash.end()) continue;
      rec.evaluated = true;
      rec.eval_start = it->second.first;
      rec.eval_end = it->second.second;
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const ServeRecord& rec = out.records[i];
    const auto op = static_cast<std::int64_t>(i);
    const std::uint32_t root =
        log_->add("bench.request", 0, op, rec.due, rec.answered ? rec.done : rec.due);
    log_->add("simserve.submit", root, op, rec.submitted, rec.submit_returned);
    if (rec.evaluated) {
      log_->add("simserve.queue_wait", root, op, rec.submitted, rec.eval_start);
      log_->add("core.evaluate", root, op, rec.eval_start, rec.eval_end);
    }
  }
  return out;
}

bool serve_layer_metrics(const ServeRun& run, Metrics& out, std::string& error) {
  std::vector<double> wait, service, hit, late;
  for (const auto& rec : run.records) {
    late.push_back(seconds_between(rec.due, rec.submitted));
    if (rec.cached) hit.push_back(seconds_between(rec.submitted, rec.done));
    if (!rec.evaluated) continue;
    wait.push_back(seconds_between(rec.submitted, rec.eval_start));
    service.push_back(seconds_between(rec.eval_start, rec.eval_end));
  }
  const struct {
    const char* name;
    const std::vector<double>* samples;
    double p;
  } pcts[] = {
      {"simserve.queue_wait_p50_s", &wait, 0.5},
      {"simserve.queue_wait_p90_s", &wait, 0.9},
      {"simserve.service_p50_s", &service, 0.5},
      {"simserve.service_p90_s", &service, 0.9},
      {"simserve.hit_latency_p50_s", &hit, 0.5},
      {"bench.gen_late_p90_s", &late, 0.9},
  };
  for (const auto& m : pcts) {
    const auto v = percentile(*m.samples, m.p, error);
    if (!v) {
      error = std::string(m.name) + ": " + error;
      return false;
    }
    out[m.name] = {*v, "s"};
  }
  const double requests = static_cast<double>(std::max<std::uint64_t>(1, run.stats.requests));
  out["simserve.cache_hit_ratio"] = {static_cast<double>(run.stats.cache_hits) / requests, "ratio"};
  out["simserve.coalesced_ratio"] = {static_cast<double>(run.stats.coalesced) / requests, "ratio"};
  out["simserve.peak_in_flight"] = {static_cast<double>(run.stats.peak_in_flight), "count"};
  return true;
}

}  // namespace perfbench
