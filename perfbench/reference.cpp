#include "reference.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

/// A fixed unit of work shaped like the simulator's hot path: a binary
/// min-heap of timed events over a pool of small heap blocks, with one
/// allocation and one free per event. It lives in the benchmark, so no
/// change to the simulator can change its cost.
struct Reference {
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    void* block;
  };
  std::vector<Event> heap;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  std::uint64_t sink = 0;

  static bool before(const Event& a, const Event& b) {
    return a.time != b.time ? a.time < b.time : a.seq < b.seq;
  }
  std::uint64_t next() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
  void push(Event e) {
    heap.push_back(e);
    std::size_t i = heap.size() - 1;
    while (i > 0) {
      const std::size_t p = (i - 1) / 2;
      if (!before(heap[i], heap[p])) break;
      std::swap(heap[i], heap[p]);
      i = p;
    }
  }
  Event pop() {
    Event top = heap[0];
    heap[0] = heap.back();
    heap.pop_back();
    std::size_t i = 0;
    for (;;) {
      const std::size_t l = 2 * i + 1, r = l + 1;
      std::size_t m = i;
      if (l < heap.size() && before(heap[l], heap[m])) m = l;
      if (r < heap.size() && before(heap[r], heap[m])) m = r;
      if (m == i) break;
      std::swap(heap[i], heap[m]);
      i = m;
    }
    return top;
  }
  void* block() {
    auto* b = static_cast<std::uint64_t*>(std::malloc(64 + (next() & 127)));
    b[0] = seq;
    return b;
  }

  Reference() {
    heap.reserve(1 << 15);
    for (int i = 0; i < (1 << 14); ++i) push({next() & 0xffffff, seq++, block()});
  }
  ~Reference() {
    for (Event& e : heap) std::free(e.block);
  }
  void run(int events) {
    for (int i = 0; i < events; ++i) {
      Event e = pop();
      sink += *static_cast<std::uint64_t*>(e.block);
      std::free(e.block);
      push({e.time + 1 + (next() & 0xffff), seq++, block()});
    }
  }
};

}  // namespace

double reference_seconds() {
  static Reference ref;
  const auto t0 = Clock::now();
  ref.run(10000);
  return seconds_between(t0, Clock::now());
}

double HostSpeed::factor() const {
  return samples_.empty() ? 1.0 : median(samples_) / kReferenceSeconds;
}

double HostSpeed::factor_near(std::size_t i, std::size_t radius) const {
  if (samples_.empty()) return 1.0;
  const std::size_t lo = i > radius ? i - radius : 0;
  const std::size_t hi = std::min(samples_.size(), i + radius + 1);
  if (lo >= hi) return factor();
  return median({samples_.begin() + static_cast<std::ptrdiff_t>(lo),
                 samples_.begin() + static_cast<std::ptrdiff_t>(hi)}) /
         kReferenceSeconds;
}

}  // namespace perfbench

