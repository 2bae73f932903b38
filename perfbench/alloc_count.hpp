#pragma once
/// \file alloc_count.hpp
/// A counting global operator new, linked into the benchmark binary only.
/// Counting is off until the traced run turns it on, so the untraced run
/// pays one relaxed load per allocation.

#include <cstdint>

namespace perfbench {

void set_alloc_counting(bool on);
/// Allocations made, on any thread, while counting was on.
std::uint64_t allocations();

}  // namespace perfbench
