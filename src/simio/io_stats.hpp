#pragma once
/// \file io_stats.hpp
/// Per-run I/O accounting for the bench binaries.
///
/// An `IoCollector` registers into a sim::RunContext; every Filesystem
/// built in that run publishes its counters into it at destruction, and
/// the collector's owner drains the merged result after the run
/// (thread-safe — scenario sweeps tear Worlds and their filesystems down
/// on pool threads). Collection is pure accounting: it never changes what
/// a simulation does, so collected and uncollected runs stay
/// byte-identical. Mirrors simfault's FaultCollector.

#include <cstdint>
#include <mutex>

namespace columbia::sim {
struct RunContext;
}  // namespace columbia::sim

namespace columbia::simio {

/// Counters merged across every published Filesystem. Byte totals are
/// integers so cross-thread merge order cannot perturb the sums.
struct IoStats {
  std::uint64_t filesystems = 0;
  std::uint64_t opens = 0;
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t chunks = 0;  ///< stripe-unit accesses issued to server disks
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;

  void merge(const IoStats& other);
};

class IoCollector {
 public:
  /// Registers into `ctx`: filesystems built in that run publish here.
  explicit IoCollector(sim::RunContext& ctx);
  IoCollector(const IoCollector&) = delete;
  IoCollector& operator=(const IoCollector&) = delete;

  /// Merges one filesystem's counters (called from Filesystem's
  /// destructor).
  void publish(const IoStats& stats);
  /// Returns the merged counters and resets the collector.
  IoStats drain();

 private:
  std::mutex mutex_;
  IoStats stats_;  // guarded by mutex_
};

}  // namespace columbia::simio
