#include "simfault/collector.hpp"

#include <memory>

#include "sim/run_context.hpp"
#include "simmpi/world.hpp"

namespace columbia::simfault {

FaultCollector::FaultCollector(sim::RunContext& ctx, const FaultSpec& spec)
    : spec_(spec) {
  ctx.fault_factory =
      [this](simmpi::World& world) -> std::shared_ptr<machine::FaultModel> {
    // A healthy spec builds no model: the run must be byte-identical to
    // one with no factory installed.
    if (!spec_.enabled()) return nullptr;
    auto model = std::make_shared<ScheduledFaultModel>(
        spec_, world.network().cluster());
    model->set_collector(this);
    return model;
  };
}

void FaultCollector::publish(const FaultStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.merge(stats);
}

FaultStats FaultCollector::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  FaultStats out = stats_;
  stats_ = FaultStats{};
  return out;
}

}  // namespace columbia::simfault
