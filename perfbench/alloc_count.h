// Allocation counter of the traced benchmark run (see alloc_count.cpp).
#pragma once

#include <atomic>
#include <cstdint>

namespace perfbench {

/// Calls to any global operator new since program start.
extern std::atomic<std::uint64_t> g_allocations;

inline std::uint64_t allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace perfbench
