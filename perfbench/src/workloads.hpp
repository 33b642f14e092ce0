// perfbench/src/workloads.hpp
//
// The two workloads and the traced run that attributes their time to
// mixq's modules. Every function here reaches mixq only through its public
// entry points (ModelRegistry, ExecutionPlan, the flash-image loaders,
// parse_protocol_line, format_result_line) and the `mixq serve` binary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client.hpp"
#include "fixtures.hpp"
#include "hostcfg.hpp"
#include "trace.hpp"

namespace perfbench {

struct Ctx {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string fixtures;  ///< directory holding the model images
  std::string mixq;      ///< the `mixq` CLI binary
  std::string work;      ///< scratch directory for logs and traces
  HostConfig host;

  [[nodiscard]] std::string mnet48_path() const { return fixtures + "/mnet48.img"; }
  [[nodiscard]] std::string cnn16_path() const { return fixtures + "/cnn16.img"; }
};

struct Metric {
  std::string name;
  double value{0};
  std::string unit;
  std::int64_t n{1};  ///< samples behind the value
  std::string note;   ///< e.g. the percentile a tail metric reports
};

struct Result {
  std::int64_t attempted{0};
  std::int64_t failed{0};
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< any entry fails the run

  void add(std::string name, double value, std::string unit,
           std::int64_t n = 1, std::string note = {}) {
    metrics.push_back({std::move(name), value, std::move(unit), n,
                       std::move(note)});
  }
  [[nodiscard]] bool correct() const { return problems.empty(); }
};

/// Pool size of every workload's seeded inputs.
inline constexpr int kPool = 256;
/// Micro-batch of the engine workload and the daemon's --max-batch.
inline constexpr int kBatch = 8;
/// Worker lanes of the engine registry and the daemon's --threads.
inline constexpr int kLanes = 2;
/// Open-loop arrival rate of phase A, fixed before the first baseline. At
/// 300/s the daemon ran at half its closed-loop capacity on a 4-vCPU host
/// and phase A measured queueing behind host CPU stalls, not the daemon;
/// 100/s keeps phase A a latency measurement with >= 1000 samples per run.
inline constexpr double kOpenRate = 100.0;
/// Share of --seconds serve-ndjson spends in phase A; the rest is phase B.
/// Phase A's latency is printed and traced, not bounded: it gets enough
/// arrivals at kOpenRate for a p99 over a 40 s run (1200 expected). Phase
/// B, which sets samples_per_s and cpu_us_per_sample, gets the rest.
inline constexpr double kOpenShare = 0.3;
/// While throughput is measured, the system under test moves to the next of
/// the allowed CPUs after each slice of this length. On a shared host each
/// vCPU is slowed by contention for stretches of seconds, independently of
/// the others; a run spread over all of them varies less from the next than
/// a run on one (on the tuning host, IQR / median of engine throughput over
/// eight interleaved pairs of runs: 0.05 rotating, 0.15 on one CPU).
inline constexpr double kSliceS = 1.0;
/// Latest the generator may start a send, at its p99, before phase A is
/// invalid rather than a latency measurement: 2.5 mean arrival gaps, past
/// which arrivals the schedule kept apart reach the daemon together.
inline constexpr double kMaxLateP99Us = 2.5 * 1e6 / kOpenRate;

// -- engine-mnet48 ----------------------------------------------------------

struct EngineRun {
  std::vector<double> setup_s;
  std::vector<double> call_us;  ///< per infer_batch call
  double loop_s{0};
  double cpu_s{0};  ///< process CPU inside the loop
  std::int64_t samples{0};
  std::int64_t mismatched{0};
  std::vector<double> reload_ms;
  std::int64_t reloads_ok{0};
  /// VmHWM at the end minus the resident set once the inputs were built.
  double peak_rss_mb{0};
};

/// Set up the registry (repeatedly), then run the closed loop for
/// `seconds`, checking every result against the serial reference, then
/// time in-process reloads.
EngineRun engine_loop(const Ctx& ctx, const Fixture& f, double seconds,
                      Tracer& tr);
Result run_engine(const Ctx& ctx);

// -- serve-ndjson -------------------------------------------------------------

/// The daemon's counters at one instant ({"cmd":"stats"}).
struct DaemonStats {
  std::int64_t responses{0};
  std::int64_t batches{0};
  double latency_p50_us{0};  ///< enqueue -> done, cumulative
  double latency_p99_us{0};
};

struct ServeRun {
  std::vector<double> setup_s;      ///< one per daemon
  std::vector<PhaseResult> warm;    ///< one per daemon
  PhaseResult open;                 ///< phase A, on the last daemon
  std::vector<PhaseResult> closed;  ///< phase B, a part per daemon
  DaemonStats s0, s_open, s_closed;  ///< the last daemon's
  std::vector<double> reload_ms;  ///< acknowledged reloads, idle daemon
  std::int64_t reloads_sent{0};
  double peak_rss_mb{0};
  LoadSpec open_spec;
};

/// Start daemons in turn, timing each start; each runs a warm-up and a
/// part of phase B (`closed_s` in all), the last also phase A for `open_s`
/// before its part, and idle reloads after it.
ServeRun serve_phases(const Ctx& ctx, const Fixture& mnet, double open_s,
                      double closed_s);
Result run_serve(const Ctx& ctx);

// -- traced run ---------------------------------------------------------------

/// The traced run's lane-scaling probe (pool.*, host.parallel_efficiency),
/// made before the process pins itself to one CPU; adds to `r`.
void probe_pool_unpinned(const Ctx& ctx, Result& r);

/// The traced run; `pool` holds probe_pool_unpinned's metrics.
Result run_traced(const Ctx& ctx, const Result& pool);

/// Add the accounting of a daemon session to `r`: attempted/failed, and a
/// problem for every phase whose invariant does not hold.
void account(Result& r, const ServeRun& run);

}  // namespace perfbench
