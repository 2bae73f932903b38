// Layer probes: each drives one layer's public API in a loop, in batches,
// and reports the median host ns per operation over the batches (robust
// to a stall in one batch) and the exact heap allocations per operation
// (the counting operator new in alloc_count.cpp).

#include <memory>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/evaluator.hpp"
#include "driver.hpp"
#include "machine/cluster.hpp"
#include "machine/flow.hpp"
#include "machine/io_model.hpp"
#include "machine/network.hpp"
#include "machine/placement.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"
#include "simio/filesystem.hpp"
#include "simmpi/world.hpp"

namespace perfbench {
namespace {

namespace sim = columbia::sim;
namespace machine = columbia::machine;
namespace simmpi = columbia::simmpi;
namespace simio = columbia::simio;

constexpr int kBatches = 11;

/// Per-batch samples of one probe.
struct Samples {
  std::vector<double> ns;
  std::vector<double> allocs;
};

/// Times a batch of `ops` operations that runs between start() and
/// stop(). Usable from inside a coroutine, where the probed work is.
class BatchTimer {
 public:
  explicit BatchTimer(Samples& out) : out_(&out) {
    out.ns.reserve(256);
    out.allocs.reserve(256);
  }
  void start() {
    allocs_ = allocations();
    t0_ = Clock::now();
  }
  void stop(double ops) {
    const auto t1 = Clock::now();
    const double a = static_cast<double>(allocations() - allocs_);
    out_->ns.push_back(seconds_between(t0_, t1) * 1e9 / ops);
    out_->allocs.push_back(a / ops);
  }

 private:
  Samples* out_;
  Clock::time_point t0_;
  std::uint64_t allocs_ = 0;
};

void report(const Samples& s, Metrics& out, const std::string& ns_name,
            const std::string& alloc_name = "") {
  out[ns_name] = {median(s.ns), "ns"};
  // Allocation counts repeat exactly batch to batch; the median ignores a
  // first batch that grows a reusable buffer.
  if (!alloc_name.empty()) out[alloc_name] = {median(s.allocs), "count"};
}

// --- sim ----------------------------------------------------------------

sim::Task sleeper(sim::Engine& e, double until) { co_await e.delay(until); }

sim::Task ticker(sim::Engine& e, int n, Samples& s) {
  BatchTimer timer(s);
  for (int b = 0; b < kBatches; ++b) {
    timer.start();
    for (int i = 0; i < n; ++i) co_await e.delay(1e-9);
    timer.stop(n);
  }
}

/// One schedule_at + pop + resume with `depth` other events pending.
void probe_schedule_pop(int depth, Samples& s) {
  sim::Engine e;
  e.reserve_events(static_cast<std::size_t>(depth) + 2);
  for (int i = 0; i < depth; ++i) e.spawn(sleeper(e, 1e6 + i * 1e-3));
  e.spawn(ticker(e, 20000, s));
  e.run();
}

sim::Task noop() { co_return; }

/// spawn + first resume + finish + reap of a task that does nothing.
void probe_spawn_reap(Samples& s) {
  sim::Engine e;
  BatchTimer timer(s);
  constexpr int n = 20000;
  for (int b = 0; b < kBatches; ++b) {
    timer.start();
    for (int i = 0; i < n; ++i) e.spawn(noop());
    e.run();
    timer.stop(n);
  }
}

sim::Task trigger_waiter(std::vector<std::unique_ptr<sim::Trigger>>& ts) {
  for (auto& t : ts) co_await t->wait();
}

sim::Task trigger_firer(sim::Engine& e,
                        std::vector<std::unique_ptr<sim::Trigger>>& ts, int n,
                        Samples& s) {
  BatchTimer timer(s);
  std::size_t next = 0;
  for (int b = 0; b < kBatches; ++b) {
    timer.start();
    for (int i = 0; i < n; ++i) {
      co_await e.delay(1e-9);
      ts[next++]->fire();
    }
    timer.stop(n);
  }
}

/// One wait/fire hand-off: the firer's delay event, fire(), and the
/// waiter's wake-up event.
void probe_trigger(Samples& s) {
  constexpr int n = 10000;
  sim::Engine e;
  std::vector<std::unique_ptr<sim::Trigger>> ts;
  for (int i = 0; i < n * kBatches; ++i) ts.push_back(std::make_unique<sim::Trigger>(e));
  e.spawn(trigger_waiter(ts));
  e.spawn(trigger_firer(e, ts, n, s));
  e.run();
}

sim::Task resource_user(sim::Engine& e, sim::Resource& r, int n,
                        Samples* s) {
  std::unique_ptr<BatchTimer> timer;
  if (s) timer = std::make_unique<BatchTimer>(*s);
  for (int b = 0; b < kBatches; ++b) {
    if (timer) timer->start();
    for (int i = 0; i < n; ++i) {
      co_await r.acquire();
      co_await e.delay(1e-9);
      r.release();
    }
    // Two users alternate, so a batch covers 2n acquire/release cycles.
    if (timer) timer->stop(2.0 * n);
  }
}

/// Acquire, hold for one event, release, on a capacity-1 Resource that
/// two processes contend for.
void probe_resource(Samples& s) {
  constexpr int n = 10000;
  sim::Engine e;
  sim::Resource r(e, 1);
  e.spawn(resource_user(e, r, n, &s));
  e.spawn(resource_user(e, r, n, nullptr));
  e.run();
}

// --- simmpi -------------------------------------------------------------

struct MpiRig {
  sim::Engine engine;
  machine::Cluster cluster = machine::Cluster::single(machine::NodeType::AltixBX2b);
  machine::Network network{engine, cluster, machine::TransportModel::Event};
  simmpi::World world{engine, network, machine::Placement::dense(cluster, 2)};
};

/// Round trips of `bytes` between two ranks; a message per direction.
void probe_rtt(double bytes, int n, Samples& s) {
  MpiRig rig;
  rig.world.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      BatchTimer timer(s);
      for (int b = 0; b < kBatches; ++b) {
        timer.start();
        for (int i = 0; i < n; ++i) {
          co_await r.send(1, bytes, 1);
          co_await r.recv(1, 2);
        }
        timer.stop(n);
      }
    } else {
      for (int i = 0; i < n * kBatches; ++i) {
        co_await r.recv(0, 1);
        co_await r.send(0, bytes, 2);
      }
    }
  });
}

/// Receives with a wildcard source, in reverse tag order, from an
/// unexpected queue that holds 64 messages when each batch starts.
void probe_wildcard(Samples& s) {
  constexpr int kDepth = 64;
  constexpr int kRounds = 101;
  MpiRig rig;
  rig.world.run([&](simmpi::Rank& r) -> sim::CoTask<void> {
    if (r.rank() == 0) {
      for (int round = 0; round < kRounds; ++round) {
        for (int t = 0; t < kDepth; ++t) co_await r.send(1, 64.0, t);
        co_await r.recv(1, kDepth);
      }
    } else {
      BatchTimer timer(s);
      for (int round = 0; round < kRounds; ++round) {
        // Long enough in simulated time for all 64 sends to arrive.
        co_await r.compute(1e-3);
        timer.start();
        for (int t = kDepth - 1; t >= 0; --t) co_await r.recv(simmpi::kAny, t);
        timer.stop(kDepth);
        co_await r.send(0, 8.0, kDepth);
      }
    }
  });
}

// --- machine ------------------------------------------------------------

sim::Task hopper(machine::Network& net, int dst, int n, Samples& s) {
  BatchTimer timer(s);
  for (int b = 0; b < kBatches; ++b) {
    timer.start();
    for (int i = 0; i < n; ++i) co_await net.transfer(0, dst, 1024.0);
    timer.stop(n);
  }
}

/// One event-transport transfer between the first and last CPU of a BX2b
/// node (injection, bus ports and spine).
void probe_event_hop(Samples& s) {
  sim::Engine e;
  const auto cluster = machine::Cluster::single(machine::NodeType::AltixBX2b);
  machine::Network net(e, cluster, machine::TransportModel::Event);
  e.spawn(hopper(net, cluster.total_cpus() - 1, 5000, s));
  e.run();
}

sim::Task long_flow(machine::FlowSolver& fs, machine::FlowSolver::PathRef p) {
  co_await fs.drain(p, 1e12, 1e9, 0.0);
}

sim::Task churn(machine::FlowSolver& fs, machine::FlowSolver::PathRef p,
                int n, Samples& s) {
  for (int b = 0; b < kBatches; ++b) {
    const auto solves0 = fs.solves();
    const auto allocs0 = allocations();
    const auto t0 = Clock::now();
    for (int i = 0; i < n; ++i) co_await fs.drain(p, 1e3, 1e9, 0.0);
    const double solves = static_cast<double>(fs.solves() - solves0);
    s.ns.push_back(seconds_between(t0, Clock::now()) * 1e9 / solves);
    s.allocs.push_back(static_cast<double>(allocations() - allocs0) / solves);
  }
}

/// Full re-solves of the flow solver with 256 long flows sharing one
/// link: short flows on a private link start and finish, and every
/// max(16, active/4) such events the solver re-fairs all flows. Reports
/// host time per re-solve, including the events between re-solves.
void probe_flow_refair(Samples& s) {
  constexpr int kFlows = 256;
  sim::Engine e;
  std::vector<double> caps(kFlows + 2, 1.0);
  caps[kFlows] = kFlows;  // the shared link: room for every long flow
  machine::FlowSolver fs(e, caps);
  for (int i = 0; i < kFlows; ++i) {
    machine::FlowSolver::PathRef p;
    p.links[0] = i;
    p.links[1] = kFlows;
    p.nlinks = 2;
    e.spawn(long_flow(fs, p));
  }
  machine::FlowSolver::PathRef mine;
  mine.links[0] = kFlows + 1;
  mine.nlinks = 1;
  e.spawn(churn(fs, mine, 3200, s));
  e.run();
}

// --- simio --------------------------------------------------------------

sim::Task writer(simio::Filesystem& fs, int n, Samples& s) {
  simio::File f = fs.file(0);
  co_await f.open();
  BatchTimer timer(s);
  for (int b = 0; b < kBatches; ++b) {
    timer.start();
    for (int i = 0; i < n; ++i) co_await f.write(4.0 * (1 << 20));
    timer.stop(n);
  }
  co_await f.close();
}

/// One 4 MiB write striped over the shared parallel filesystem's servers.
void probe_striped_write(Samples& s) {
  sim::Engine e;
  simio::Filesystem fs(e, machine::FilesystemSpec::shared_parallel());
  e.spawn(writer(fs, 2000, s));
  e.run();
}

template <typename F>
void probe(SpanLog& log, const char* span, F&& body) {
  ScopedSpan scope(&log, span);
  body();
}

}  // namespace

void run_layer_probes(SpanLog& log, Metrics& out) {
  Samples s;
  probe(log, "sim.schedule_pop.d1k", [&] { probe_schedule_pop(1000, s = {}); });
  report(s, out, "sim.schedule_pop_ns.d1k");
  probe(log, "sim.schedule_pop.d64k", [&] { probe_schedule_pop(65536, s = {}); });
  report(s, out, "sim.schedule_pop_ns.d64k");
  probe(log, "sim.spawn_reap", [&] { probe_spawn_reap(s = {}); });
  report(s, out, "sim.spawn_reap_ns", "sim.allocs_per_spawn");
  probe(log, "sim.trigger_fire", [&] { probe_trigger(s = {}); });
  report(s, out, "sim.trigger_fire_ns");
  probe(log, "sim.resource_cycle", [&] { probe_resource(s = {}); });
  report(s, out, "sim.resource_cycle_ns");
  probe(log, "simmpi.eager_rtt", [&] { probe_rtt(1024.0, 2000, s = {}); });
  report(s, out, "simmpi.eager_rtt_ns", "simmpi.allocs_per_msg");
  // Two messages per round trip.
  out["simmpi.allocs_per_msg"].value /= 2.0;
  probe(log, "simmpi.rendezvous_rtt", [&] { probe_rtt(64.0 * 1024, 1000, s = {}); });
  report(s, out, "simmpi.rendezvous_rtt_ns");
  probe(log, "simmpi.wildcard_match.k64", [&] { probe_wildcard(s = {}); });
  report(s, out, "simmpi.wildcard_match_ns.k64");
  probe(log, "machine.event_hop", [&] { probe_event_hop(s = {}); });
  report(s, out, "machine.event_hop_ns");
  probe(log, "machine.flow_refair.n256", [&] { probe_flow_refair(s = {}); });
  report(s, out, "machine.flow_refair_ns.n256");
  probe(log, "simio.striped_write", [&] { probe_striped_write(s = {}); });
  report(s, out, "simio.striped_write_ns", "simio.allocs_per_write");
}

bool run_analyzer_probe(SpanLog& log, Metrics& out, std::string& error) {
  using columbia::core::ScenarioSpec;
  constexpr int kReps = 3;
  const columbia::core::Evaluator evaluator;
  double plain_s = 0.0;
  double analyzed_s = 0.0;
  for (const char* id : {"sec42", "ext-io-overlap", "ablation-variability"}) {
    ScenarioSpec plain;
    plain.experiment = id;
    ScenarioSpec full = plain;
    full.check = full.profile = full.faults = true;
    full.fault_seed = 42;
    full.fault_intensity = 0.25;
    for (auto [spec, sum] : {std::pair{&plain, &plain_s}, std::pair{&full, &analyzed_s}}) {
      std::vector<double> t;
      for (int i = 0; i < kReps; ++i) {
        ScopedSpan span(&log, spec->check ? "analyzers.evaluate" : "core.evaluate");
        const auto t0 = Clock::now();
        const auto r = evaluator.evaluate(*spec);
        t.push_back(seconds_between(t0, Clock::now()));
        if (!r.ok) {
          error = "analyzer probe: " + std::string(id) + ": " + r.error;
          return false;
        }
      }
      *sum += median(t);
    }
  }
  out["analyzers.overhead_ratio"] = {analyzed_s / plain_s, "ratio"};
  return true;
}

}  // namespace perfbench
