// serve-ndjson: a `mixq serve` child process driven over loopback TCP.
// Phase A is an open loop on a seeded Poisson schedule (latency, timed from
// each request's due time); phase B is a closed loop with 8 requests in
// flight per connection (throughput and CPU per sample).
#include <cstdio>
#include <thread>

#include "serve/json.hpp"
#include "workloads.hpp"

namespace perfbench {

using mixq::serve::JsonValue;

namespace {

/// Daemon processes per run, started in turn. Each start is a setup_s
/// sample and runs a part of phase B: a daemon process runs at one of two
/// speeds for its whole life (on the tuning host about 1500 or 2350
/// samples/s, steady within each, in varying proportion between runs of
/// five daemons), so a run averages over many starts. The last one also
/// runs phase A and the reloads.
constexpr int kDaemons = 20;
constexpr int kIdleReloads = 31;
constexpr double kWarmS = 0.2;

std::vector<std::string> daemon_argv(const Ctx& ctx) {
  return {ctx.mixq, "serve", "--model", "mnet48=" + ctx.mnet48_path(),
          "--tcp", "0", "--threads", "2", "--max-batch", "8",
          "--max-wait-us", "200", "--queue-depth", "1024"};
}

std::int64_t int_field(const JsonValue& v, const char* key) {
  const JsonValue* j = v.find(key);
  return j != nullptr && j->is_number() ? static_cast<std::int64_t>(j->number)
                                        : 0;
}

double num_field(const JsonValue& v, const char* key) {
  const JsonValue* j = v.find(key);
  return j != nullptr && j->is_number() ? j->number : 0.0;
}

DaemonStats read_stats(LineConn& c) {
  const std::string line = c.roundtrip("{\"cmd\":\"stats\"}");
  const JsonValue v = mixq::serve::parse_json(line);
  const JsonValue* stats = v.find("stats");
  const JsonValue* s = stats != nullptr ? stats->find("engine") : nullptr;
  if (s == nullptr) throw std::runtime_error("unexpected stats reply: " + line);
  DaemonStats d;
  d.responses = int_field(*s, "responses");
  d.batches = int_field(*s, "batches");
  d.latency_p50_us = num_field(*s, "latency_p50_us");
  d.latency_p99_us = num_field(*s, "latency_p99_us");
  return d;
}

bool health_ready(const std::string& line) {
  const JsonValue v = mixq::serve::parse_json(line);
  const JsonValue* h = v.find("health");
  if (h == nullptr) return false;
  const JsonValue* status = h->find("status");
  if (status == nullptr || status->string != "ok") return false;
  const JsonValue* models = h->find("models");
  if (models == nullptr) return false;
  for (const auto& [name, m] : models->object) {
    const JsonValue* st = m.find("state");
    if (st == nullptr || st->string != "ready") return false;
  }
  return true;
}

}  // namespace

ServeRun serve_phases(const Ctx& ctx, const Fixture& mnet, double open_s,
                      double closed_s) {
  const ScopedPin generator(ctx.host.client_cpu);
  ServeRun run;
  const std::vector<std::string> argv = daemon_argv(ctx);
  const std::string log = ctx.work + "/daemon.log";
  LoadSpec base;
  base.conns = 2;
  base.model = &mnet;
  std::int64_t next_id = 1;
  for (int i = 0; i < kDaemons; ++i) {
    const bool last = i + 1 == kDaemons;
    const std::int64_t t0 = now_ns();
    Daemon d(argv, log, ctx.host.serve_cpu);
    {
      LineConn probe(d.port());
      while (!health_ready(probe.roundtrip("{\"cmd\":\"health\"}"))) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    {
      LineConn ctl(d.port());
      // Warm-up at phase A's rate: it lets caches fill, and the daemon's
      // latency record (cumulative) then holds phase A's distribution only.
      LoadSpec warm = base;
      warm.mode = LoadSpec::Mode::kOpen;
      warm.rate_per_s = kOpenRate;
      warm.seconds = kWarmS;
      warm.seed = (ctx.seed ^ 0x5A5A5A5AULL) + static_cast<std::uint64_t>(i);
      run.warm.push_back(run_phase(d, warm, next_id));
      if (last) {
        run.s0 = read_stats(ctl);
        run.open_spec = base;
        run.open_spec.mode = LoadSpec::Mode::kOpen;
        run.open_spec.rate_per_s = kOpenRate;
        run.open_spec.seconds = open_s;
        run.open_spec.seed = ctx.seed;
        run.open = run_phase(d, run.open_spec, next_id);
        run.s_open = read_stats(ctl);
      }

      LoadSpec closed = base;
      closed.mode = LoadSpec::Mode::kClosed;
      closed.window = kBatch;
      closed.seconds = closed_s / kDaemons;
      closed.seed = ctx.seed + 1 + static_cast<std::uint64_t>(i);
      closed.slice_s = kSliceS;
      // Each slice runs the daemon on the next CPU and the generator on
      // the one after it (see kSliceS); daemon i starts i CPUs along.
      const std::vector<int>& cpus = ctx.host.cpus;
      closed.on_slice = [&](std::size_t k) {
        const std::size_t c = static_cast<std::size_t>(i) + k;
        pin_threads(d.pid(), cpus[c % cpus.size()]);
        pin_threads(0, cpus[(c + 1) % cpus.size()]);
      };
      run.closed.push_back(run_phase(d, closed, next_id));
      pin_threads(d.pid(), ctx.host.serve_cpu);
      pin_threads(0, ctx.host.client_cpu);

      if (last) {
        run.s_closed = read_stats(ctl);
        for (int k = 0; k < kIdleReloads; ++k) {
          ++run.reloads_sent;
          const std::int64_t r0 = now_ns();
          const std::string r =
              ctl.roundtrip("{\"cmd\":\"reload\",\"model\":\"mnet48\"}");
          if (r.rfind("{\"ok\":\"reload\"", 0) == 0) {
            run.reload_ms.push_back(static_cast<double>(now_ns() - r0) / 1e6);
          }
        }
        run.peak_rss_mb = d.peak_rss_mb();
      }
    }
    d.shutdown();
  }
  return run;
}

void account(Result& r, const ServeRun& run) {
  const auto one = [&r](const std::string& phase, const PhaseCount& c) {
    r.attempted += c.sent;
    r.failed += c.failed();
    if (!c.balanced()) {
      r.problems.push_back(phase + ": accounting invariant broken: " + c.str());
    }
    if (c.mismatched > 0) {
      r.problems.push_back(phase + ": responses differ from the serial "
                                   "reference: " + c.str());
    }
  };
  for (std::size_t i = 0; i < run.warm.size(); ++i) {
    one("warm-up of daemon " + std::to_string(i), run.warm[i].count);
  }
  one("phase A", run.open.count);
  for (std::size_t i = 0; i < run.closed.size(); ++i) {
    one("phase B on daemon " + std::to_string(i), run.closed[i].count);
  }
}

Result run_serve(const Ctx& ctx) {
  const Fixture mnet =
      load_fixture("mnet48", ctx.mnet48_path(), ctx.seed, kPool, true);
  const ServeRun run = serve_phases(ctx, mnet, ctx.seconds * kOpenShare,
                                    ctx.seconds * (1.0 - kOpenShare));

  Result r;
  account(r, run);
  const auto reloads_failed =
      run.reloads_sent - static_cast<std::int64_t>(run.reload_ms.size());
  r.attempted += run.reloads_sent;
  r.failed += reloads_failed;
  if (reloads_failed > 0) {
    r.problems.push_back(std::to_string(reloads_failed) + " reloads failed");
  }
  const Tail late = tail_percentile(run.open.late_us);
  if (late.value > kMaxLateP99Us) {
    r.problems.push_back("invalid run: the generator started sends up to " +
                         std::to_string(late.value) + " us late (" +
                         late.str() + "), beyond the " +
                         std::to_string(kMaxLateP99Us) + " us bound");
  }

  std::int64_t done = 0;
  double window_s = 0;
  double cpu_s = 0;
  std::printf("phase B samples/s per daemon:");
  for (const PhaseResult& b : run.closed) {
    done += b.done_in_window;
    window_s += b.window_s;
    cpu_s += b.daemon_cpu_s;
    std::printf(" %.0f", static_cast<double>(b.done_in_window) / b.window_s);
  }
  std::printf("\n");
  const auto na = static_cast<std::int64_t>(run.open.latency_us.size());
  const Tail tail = blocked_tail(run.open.latency_us);
  r.add("setup_s", median_iqr(run.setup_s).median, "s",
        static_cast<std::int64_t>(run.setup_s.size()));
  const std::string parts =
      "phase B on " + std::to_string(run.closed.size()) + " daemons";
  r.add("samples_per_s", static_cast<double>(done) / window_s, "1/s", done,
        parts);
  r.add("latency_p50_us", percentile(run.open.latency_us, 50), "us", na,
        "phase A");
  r.add("latency_p99_us", tail.value, "us", na, "phase A, " + tail.str());
  r.add("peak_rss_mb", run.peak_rss_mb, "MiB", 1,
        "VmHWM of the daemon that ran every phase");
  r.add("cpu_us_per_sample", cpu_s * 1e6 / static_cast<double>(done), "us",
        done, parts);
  r.add("reload_ms_p50", median_iqr(run.reload_ms).median, "ms",
        static_cast<std::int64_t>(run.reload_ms.size()), "mnet48, idle daemon");
  r.add("gen_late_p99_us", late.value, "us", late.n, late.str());
  return r;
}

}  // namespace perfbench
