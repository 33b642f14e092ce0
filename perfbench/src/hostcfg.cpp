#include "hostcfg.hpp"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/simd.hpp"
#include "runtime/simd_vnni.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string b(bool v) { return v ? "true" : "false"; }

std::string compiler_id() {
#if defined(__clang__)
  return "clang-" + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__);
#elif defined(__GNUC__)
  return "gcc-" + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__);
#else
  return "unknown";
#endif
}

}  // namespace

std::string HostConfig::comparable_json() const {
  return "{\"isa_compiled\":\"" + isa_compiled + "\",\"isa_active\":\"" +
         isa_active + "\",\"vnni_compiled\":" + b(vnni_compiled) +
         ",\"vnni_available\":" + b(vnni_available) + ",\"build_type\":\"" +
         build_type + "\",\"compiler\":\"" + compiler +
         "\",\"nproc\":" + std::to_string(nproc) + "}";
}

std::string HostConfig::json() const {
  char eff[32];
  std::snprintf(eff, sizeof(eff), "%.4f", parallel_efficiency);
  return "{\"comparable\":" + comparable_json() + ",\"revision\":\"" +
         revision + "\",\"dirty\":" + b(dirty) +
         ",\"parallel_efficiency\":" + eff +
         ",\"serve_cpu\":" + std::to_string(serve_cpu) +
         ",\"client_cpu\":" + std::to_string(client_cpu) + "}";
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double parallel_efficiency(int workers, double seconds) {
  if (workers < 1) return 0.0;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < workers; ++i) {
    threads.emplace_back([&stop] {
      volatile std::uint64_t x = 1;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ULL + 1;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return (process_cpu_s() - cpu0) / wall / workers;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  if (out.empty()) throw std::runtime_error("no CPU in the affinity mask");
  return out;
}

void pin_threads(int pid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  const std::string dir =
      pid == 0 ? "/proc/self/task" : "/proc/" + std::to_string(pid) + "/task";
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const pid_t tid = std::stoi(e.path().filename().string());
    // A thread that exited since the listing is no error.
    if (sched_setaffinity(tid, sizeof(set), &set) != 0 && errno != ESRCH) {
      throw std::runtime_error("sched_setaffinity of thread " +
                               std::to_string(tid) + " failed");
    }
  }
}

ScopedPin::ScopedPin(int cpu) {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    throw std::runtime_error("sched_setaffinity to CPU " + std::to_string(cpu) +
                             " failed");
  }
}

ScopedPin::~ScopedPin() { sched_setaffinity(0, sizeof(saved_), &saved_); }

HostConfig probe_host(const std::string& revision, bool dirty) {
  namespace simd = mixq::runtime::simd;
  HostConfig c;
  c.isa_compiled = simd::compiled_isa();
  c.isa_active = simd::active_isa();
  c.vnni_compiled = simd::vnni_compiled();
  c.vnni_available = simd::vnni_cpu();
  c.build_type = PERFBENCH_BUILD_TYPE;
  c.compiler = compiler_id();
  c.revision = revision;
  c.dirty = dirty;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  c.nproc = n > 0 ? static_cast<int>(n) : 1;
  c.parallel_efficiency = parallel_efficiency(c.nproc, 0.2);
  return c;
}

}  // namespace perfbench
