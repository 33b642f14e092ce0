// perfbench/src/alloc_hook.hpp
//
// Allocation counting for the traced run. alloc_hook.cpp replaces the
// global operator new of the perfbench binary; while a thread has counting
// switched on, every allocation it makes adds to that thread's totals.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t bytes{0};
  std::uint64_t calls{0};
};

/// Start counting this thread's allocations from zero.
void alloc_count_begin();
/// Stop counting and return what this thread allocated since begin.
AllocCount alloc_count_end();

}  // namespace perfbench
