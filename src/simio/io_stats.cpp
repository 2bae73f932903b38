#include "simio/io_stats.hpp"

#include "sim/run_context.hpp"

namespace columbia::simio {

void IoStats::merge(const IoStats& other) {
  filesystems += other.filesystems;
  opens += other.opens;
  writes += other.writes;
  reads += other.reads;
  chunks += other.chunks;
  bytes_written += other.bytes_written;
  bytes_read += other.bytes_read;
}

IoCollector::IoCollector(sim::RunContext& ctx) { ctx.io_stats = this; }

void IoCollector::publish(const IoStats& stats) {
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.merge(stats);
}

IoStats IoCollector::drain() {
  const std::lock_guard<std::mutex> lock(mutex_);
  IoStats out = stats_;
  stats_ = IoStats{};
  return out;
}

}  // namespace columbia::simio
