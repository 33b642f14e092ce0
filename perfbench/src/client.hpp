// perfbench/src/client.hpp
//
// Everything that touches the `mixq serve` daemon from outside: spawning
// it as a child process on an ephemeral TCP port, blocking control
// round trips (health, stats, reload, shutdown), and the single-threaded
// load generator that drives the open-loop and closed-loop phases over
// loopback TCP and byte-checks every response against the serial
// reference.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fixtures.hpp"
#include "stats.hpp"

namespace perfbench {

/// A `mixq serve --tcp 0 ...` child, confined to CPU `cpu`. The constructor
/// returns once the daemon has logged its bound port; the destructor kills
/// and reaps a daemon that was not shut down.
class Daemon {
 public:
  Daemon(const std::vector<std::string>& argv, const std::string& log_path,
         int cpu);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// User + system CPU seconds the daemon has used so far.
  [[nodiscard]] double cpu_s() const;
  /// VmHWM of the daemon, MiB.
  [[nodiscard]] double peak_rss_mb() const;

  /// {"cmd":"shutdown"}, then wait (bounded) for the process to exit.
  /// Throws when it does not exit cleanly.
  void shutdown();

 private:
  pid_t pid_{-1};
  int port_{-1};
  std::string log_path_;
};

/// A blocking line-oriented TCP connection to 127.0.0.1:port.
class LineConn {
 public:
  explicit LineConn(int port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  /// Send `line` (a newline is appended) and return the next response
  /// line; throws after `timeout_s` without one.
  std::string roundtrip(const std::string& line, double timeout_s = 30.0);

 private:
  int fd_{-1};
  std::string rbuf_;
};

/// The seeded sequence of input samples a phase sends: each drawn
/// uniformly from a pool of `pool_size`. The generator and the traced
/// in-process replay share it, so both see the same request stream.
class SampleStream {
 public:
  SampleStream(std::uint64_t seed, std::size_t pool_size);
  int next();

 private:
  std::uint64_t state_;
  std::size_t pool_size_;
};

/// How one load phase issues requests.
struct LoadSpec {
  enum class Mode { kOpen, kClosed } mode{Mode::kOpen};
  double seconds{1.0};
  double rate_per_s{300};   ///< open loop: mean Poisson arrival rate
  int window{8};            ///< closed loop: outstanding requests per conn
  int conns{2};             ///< data connections
  std::uint64_t seed{1};    ///< arrival schedule and sample stream
  const Fixture* model{nullptr};
  /// When set, called with the slice number as the window and each later
  /// slice of `slice_s` seconds starts.
  std::function<void(std::size_t)> on_slice;
  double slice_s{1.0};
};

struct PhaseResult {
  PhaseCount count;
  std::vector<double> latency_us;  ///< ok responses: due/send -> response
  std::vector<double> late_us;     ///< open loop: send start - due time
  double window_s{0};              ///< measured window length
  std::int64_t done_in_window{0};  ///< ok responses inside the window
  double daemon_cpu_s{0};          ///< daemon CPU used inside the window
};

/// Drive one phase against `d`. Request ids continue from `next_id`.
PhaseResult run_phase(Daemon& d, const LoadSpec& spec, std::int64_t& next_id);

}  // namespace perfbench
