#pragma once
/// \file run_context.hpp
/// `RunContext` — everything one evaluation arms around its simulations.
///
/// A run (one registry experiment under one spec) may want a transport
/// backend, analyzers listening to every World, a fault model or a
/// wildcard match policy in every World, OpenMP region observers, I/O
/// accounting, and an exact count of the events it processed. All of it
/// lives in one RunContext value owned by whoever drives the run
/// (core::Evaluator, a bench driver, a test), so two runs in one process
/// share nothing and may execute concurrently.
///
/// How it travels: core::Exec carries a pointer to it, and
/// core::run_scenarios makes it current on whichever host thread runs a
/// scenario closure (`CurrentRunContext`, a saved-and-restored
/// thread-local). A `sim::Engine` captures the current context when it is
/// constructed; World, Network and Filesystem read it from the Engine
/// they already hold, and OmpModel::region_time reads the current context
/// directly. Code that builds an Engine outside any run sees no context:
/// event transport, no observers, nothing counted.
///
/// The analyzers' per-run collectors (simcheck::CheckCollector,
/// simprof::ProfileCollector, simfault::FaultCollector,
/// simio::IoCollector) register into a context and are drained by their
/// owner after the run. Install everything before the run starts: the
/// factory lists are read concurrently from pool threads while it runs.
///
/// The types this header names are forward-declared so col_sim stays the
/// bottom of the dependency stack.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace columbia::machine {
class FaultModel;
enum class TransportModel;
}  // namespace columbia::machine
namespace columbia::simmpi {
class World;
class CommObserver;
class MatchPolicy;
}  // namespace columbia::simmpi
namespace columbia::simomp {
struct RegionSpec;
}  // namespace columbia::simomp
namespace columbia::simio {
class IoCollector;
}  // namespace columbia::simio

namespace columbia::sim {

struct RunContext {
  /// Each subsequently constructed World owns one product per factory and
  /// fans events out to all of them, in registration order.
  using ObserverFactory =
      std::function<std::shared_ptr<simmpi::CommObserver>(simmpi::World&)>;
  /// Single slot: two fault models cannot compose on one network. A null
  /// product leaves the World clean.
  using FaultModelFactory =
      std::function<std::shared_ptr<machine::FaultModel>(simmpi::World&)>;
  /// Single slot, reserved for the race explorer (it changes matching).
  using MatchPolicyFactory =
      std::function<std::shared_ptr<simmpi::MatchPolicy>(simmpi::World&)>;
  /// Called at every OmpModel::region_time evaluation, before argument
  /// validation. Must be callable from several host threads at once.
  using RegionObserver =
      std::function<void(const simomp::RegionSpec&, int nthreads)>;

  /// Network backend for Networks built without an explicit one.
  /// Value-initialized, this is TransportModel::Event (its first
  /// enumerator).
  machine::TransportModel transport{};
  std::vector<ObserverFactory> observer_factories;
  FaultModelFactory fault_factory;
  MatchPolicyFactory match_policy_factory;
  std::vector<RegionObserver> region_observers;
  /// Filesystems built in this run publish their counters here at
  /// teardown (nullptr: no I/O accounting).
  simio::IoCollector* io_stats = nullptr;
  /// Engine events processed by every engine of this run, exact even when
  /// other runs overlap it. Engines add their count when run() returns.
  std::atomic<std::uint64_t> events{0};
};

/// The context of the run executing on this host thread (nullptr outside
/// one).
RunContext* current_run_context();

/// Makes `ctx` current on this thread for the guard's scope and restores
/// the previous one after. core::run_scenarios is its one production
/// caller; tests that drive a simulation without a sweep use it directly.
class CurrentRunContext {
 public:
  explicit CurrentRunContext(RunContext* ctx);
  ~CurrentRunContext();
  CurrentRunContext(const CurrentRunContext&) = delete;
  CurrentRunContext& operator=(const CurrentRunContext&) = delete;

 private:
  RunContext* prev_;
};

}  // namespace columbia::sim
