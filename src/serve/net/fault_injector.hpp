// mixq/serve/net/fault_injector.hpp
//
// Deterministic fault injection for the serving front-end. The epoll
// event loop and the batch worker consult one injector at four decision
// sites; with all probabilities zero (the default) every site is a
// branch-free no on a cached flag, so production serving pays nothing.
//
//   drop     close a client connection mid-frame on a read event, as a
//            flaky network / dying client would
//   trunc    cut a socket write short (the remainder stays queued in the
//            connection's outbox and must be resumed correctly later --
//            truncation reorders timing, never bytes)
//   execerr  fail a request at execution time with a structured,
//            retryable `internal` error instead of running inference
//   delay    sleep before a batch flush, inflating queue dwell time (how
//            the deadline and admission-control paths get exercised)
//
// Reload-time sites (consulted by ModelRegistry::reload, never by the
// serving hot path):
//
//   rtrunc   truncate the replacement image mid-read, as a crashed
//            publisher or torn copy would -- the hardened loader must
//            refuse it and the old model must keep serving
//   rexecerr fail the validation smoke inference of a candidate model
//            (the validate-THEN-swap gate: a candidate that cannot
//            execute is never published)
//   rdelay   sleep between validation and the atomic swap, widening the
//            race window the reload chaos suite drives traffic through
//
// Selected by code (tests), by CLI flag (`mixq serve --fault-spec`), or
// by the MIXQ_FAULT_SPEC environment variable; the spec grammar is
// documented at parse_fault_spec. All randomness is a seeded xorshift so
// a failing run replays exactly from its seed.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

namespace mixq::serve {

struct FaultConfig {
  std::uint64_t seed{1};
  double drop_conn_p{0.0};      ///< P(drop connection) per read event
  double truncate_write_p{0.0}; ///< P(short write) per socket write
  double exec_error_p{0.0};     ///< P(injected executor error) per request
  double delay_flush_p{0.0};    ///< P(sleep before flush) per batch
  int delay_flush_us{0};        ///< the sleep length for `delay`
  double reload_trunc_p{0.0};   ///< P(truncate the image) per reload
  double reload_exec_p{0.0};    ///< P(validation smoke-infer fails) per reload
  double reload_delay_p{0.0};   ///< P(sleep before the swap) per reload
  int reload_delay_us{0};       ///< the sleep length for `rdelay`

  [[nodiscard]] bool any() const {
    return drop_conn_p > 0.0 || truncate_write_p > 0.0 ||
           exec_error_p > 0.0 || delay_flush_p > 0.0 ||
           reload_trunc_p > 0.0 || reload_exec_p > 0.0 ||
           reload_delay_p > 0.0;
  }
};

/// "seed=7,drop=0.05,trunc=0.3,execerr=0.1,delay=0.2:2000,rtrunc=0.5,
/// rexecerr=0.5,rdelay=1:500" -- any subset of keys, comma-separated;
/// `delay`/`rdelay` are P[:microseconds] (default 1000).
/// Throws std::runtime_error on an unknown key or unparsable value.
[[nodiscard]] FaultConfig parse_fault_spec(const std::string& spec);

/// parse_fault_spec(getenv("MIXQ_FAULT_SPEC")), or all-zero when unset.
[[nodiscard]] FaultConfig fault_config_from_env();

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& cfg);

  /// Event-loop site: should this read event instead drop the connection?
  [[nodiscard]] bool should_drop_conn();

  /// Event-loop site: how many of `n` bytes this socket write may submit.
  /// Returns `n` untouched normally; a truncation returns a value in
  /// [1, n) -- never 0, which would spin a level-triggered EPOLLOUT.
  [[nodiscard]] std::size_t admissible_write(std::size_t n);

  /// Worker site: should this request fail with an injected transient
  /// executor error?
  [[nodiscard]] bool should_fail_exec();

  /// Worker site: sleep (maybe) before flushing a batch.
  void maybe_delay_flush();

  /// Reload site: should the replacement image be truncated mid-read?
  [[nodiscard]] bool should_truncate_reload();

  /// Reload site: should the candidate's validation smoke-infer fail?
  [[nodiscard]] bool should_fail_reload_exec();

  /// Reload site: sleep (maybe) between validation and the atomic swap.
  void maybe_delay_swap();

 private:
  [[nodiscard]] bool roll(double p);

  FaultConfig cfg_;
  bool enabled_{false};
  std::mutex mu_;  // decision sites span the loop and worker threads
  std::uint64_t state_{1};
};

}  // namespace mixq::serve
