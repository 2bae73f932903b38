#pragma once
/// \file reference.hpp
/// Host-speed reference. The 4-CPU host this benchmark was tuned on
/// drifts by about ±20% in speed over seconds to minutes, more than the
/// changes the benchmark must resolve. The driver runs a fixed unit of
/// reference work between timed ops, outside their time, and divides
/// each timing by the median reference time around it over the nominal
/// value: timings are in seconds on a host of nominal speed. The
/// reference is the benchmark's own code, so no change to the simulator
/// changes its cost.

#include <cstddef>
#include <vector>

namespace perfbench {

/// Host seconds of one reference unit at nominal speed (the median on the
/// host the benchmark was tuned on).
inline constexpr double kReferenceSeconds = 2.5e-3;

/// Runs the fixed reference unit of work once and returns its host
/// seconds: a binary heap of timed events with one small malloc and free
/// per event, like the simulator's event loop.
double reference_seconds();

/// Collects reference timings over a run.
class HostSpeed {
 public:
  void sample() { samples_.push_back(reference_seconds()); }
  /// Median reference time over nominal: above 1 on a slow host. Timings
  /// divided by it are in nominal-host seconds.
  double factor() const;
  /// The same over the samples within `radius` of sample `i`, which
  /// follows the host's speed through the run.
  double factor_near(std::size_t i, std::size_t radius) const;

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
