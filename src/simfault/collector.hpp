#pragma once
/// \file collector.hpp
/// Per-run fault injection — the `--faults <seed:intensity>` mode.
///
/// A `FaultCollector` registers a fault factory into a sim::RunContext:
/// every World of that run builds a ScheduledFaultModel from the spec and
/// the World's own cluster shape and attaches it. A spec with
/// `enabled() == false` builds no model at all, so `--faults 0:0` runs are
/// byte-identical to clean runs. At each World's teardown its model
/// publishes its counters into the collector; its owner drains the merged
/// result after the run (thread-safe — scenario sweeps tear Worlds down on
/// pool threads).

#include <mutex>

#include "simfault/schedule.hpp"

namespace columbia::sim {
struct RunContext;
}  // namespace columbia::sim

namespace columbia::simfault {

class FaultCollector {
 public:
  /// Installs the fault factory for `spec` into `ctx`.
  FaultCollector(sim::RunContext& ctx, const FaultSpec& spec);
  FaultCollector(const FaultCollector&) = delete;
  FaultCollector& operator=(const FaultCollector&) = delete;

  /// Merges one model's counters (called from ScheduledFaultModel's
  /// destructor).
  void publish(const FaultStats& stats);
  /// Returns the merged counters and resets the collector.
  FaultStats drain();

 private:
  FaultSpec spec_;
  std::mutex mutex_;
  FaultStats stats_;  // guarded by mutex_
};

}  // namespace columbia::simfault
