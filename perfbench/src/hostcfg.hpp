// perfbench/src/hostcfg.hpp
//
// The build and host configuration every perfbench result is stamped
// with. Two results are comparable only when their comparable() keys are
// equal: a timing from a scalar build says nothing about an AVX2 build,
// and a thread-scaling figure means nothing on a host that cannot run two
// spinning threads at once.
#pragma once

#include <sched.h>

#include <string>
#include <vector>

namespace perfbench {

struct HostConfig {
  std::string isa_compiled;   ///< SIMD ISA the library was compiled for
  std::string isa_active;     ///< ISA driving the kernels on this CPU
  bool vnni_compiled{false};  ///< binary carries the AVX-512 VNNI tier
  bool vnni_available{false}; ///< ... and this CPU runs it
  std::string build_type;
  std::string compiler;
  std::string revision;       ///< git revision, "none" outside a checkout
  bool dirty{false};
  int nproc{1};
  double parallel_efficiency{0};  ///< measured, see parallel_efficiency()
  int serve_cpu{-1};          ///< CPU of the engine / the daemon
  int client_cpu{-1};         ///< CPU of the load generator
  /// CPUs the engine / the daemon moves over, one throughput slice each.
  std::vector<int> cpus;

  /// The keys two results must share to be compared (ISA, VNNI, build
  /// type, compiler, nproc), as one JSON object.
  [[nodiscard]] std::string comparable_json() const;
  /// Everything, as one JSON object.
  [[nodiscard]] std::string json() const;
};

/// CPU seconds this process has used (all threads).
double process_cpu_s();

/// Spin `workers` threads for `seconds` and return process cpu / wall /
/// workers: 1.0 when the host gives every worker a core of its own.
double parallel_efficiency(int workers, double seconds);

/// The CPUs this thread may run on, ascending.
std::vector<int> allowed_cpus();

/// Confine every thread of process `pid` (0 = this process) to CPU `cpu`.
void pin_threads(int pid, int cpu);

/// Restricts the calling thread -- and every thread and child process it
/// starts while the pin lasts -- to one CPU; restores the previous set when
/// it goes out of scope.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu);
  ~ScopedPin();
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
};

/// Stamp the running binary and host. `revision`/`dirty` come from the
/// caller, which knows whether it runs inside a git checkout.
HostConfig probe_host(const std::string& revision, bool dirty);

}  // namespace perfbench
