#include "alloc_hook.hpp"

#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

thread_local bool t_counting = false;
thread_local AllocCount t_count;

void* counted_alloc(std::size_t n) {
  if (t_counting) {
    t_count.bytes += n;
    ++t_count.calls;
  }
  return std::malloc(n == 0 ? 1 : n);
}

}  // namespace

void alloc_count_begin() {
  t_count = AllocCount{};
  t_counting = true;
}

AllocCount alloc_count_end() {
  t_counting = false;
  return t_count;
}

}  // namespace perfbench

void* operator new(std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) {
  if (void* p = perfbench::counted_alloc(n)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return perfbench::counted_alloc(n);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
