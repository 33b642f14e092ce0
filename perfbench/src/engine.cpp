// engine-mnet48: one in-process caller in a closed loop, each call
// ModelRegistry::infer_batch on a micro-batch of 8 over 2 lanes, all on one
// CPU. No protocol, no sockets: all time is in the plan and the pool.
#include <memory>

#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mixq;

namespace {

constexpr int kSetupReps = 9;
constexpr int kReloadReps = 31;
constexpr int kRing = 64;  ///< distinct seeded micro-batches, reused in turn

}  // namespace

EngineRun engine_loop(const Ctx& ctx, const Fixture& f, double seconds,
                      Tracer& tr) {
  EngineRun run;
  // The benchmark's own inputs first, so that the engine's footprint is
  // what the resident set grows by from here on.
  SampleStream stream(ctx.seed, f.inputs.size());
  std::vector<std::vector<serve::Request>> ring(kRing);
  std::vector<int> sample_of;
  for (int b = 0; b < kRing; ++b) {
    for (int j = 0; j < kBatch; ++j) {
      const int sample = stream.next();
      serve::Request r;
      r.id = b * kBatch + j;
      r.input = f.inputs[static_cast<std::size_t>(sample)];
      ring[static_cast<std::size_t>(b)].push_back(std::move(r));
      sample_of.push_back(sample);
    }
  }
  std::vector<runtime::QInferenceResult> out;
  out.reserve(kBatch);
  // Room for every call's latency, made resident here (a faster run
  // records more calls, which must not read as a larger engine).
  run.call_us.resize(static_cast<std::size_t>(seconds * 4000));
  run.call_us.clear();
  reset_peak_rss();
  const double rss_base = rss_mb();

  std::unique_ptr<serve::ModelRegistry> reg;
  for (int i = 0; i < kSetupReps; ++i) {
    reg.reset();
    const std::int64_t t0 = now_ns();
    {
      auto s = tr.span("registry.setup");
      reg = std::make_unique<serve::ModelRegistry>(kLanes);
      reg->add_model(f.name, f.path);
    }
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const std::shared_ptr<const serve::ServableModel> model = reg->resolve(f.name);
  for (int i = 0; i < 2 * kRing; ++i) {
    reg->infer_batch(*model, ring[static_cast<std::size_t>(i % kRing)], out);
  }

  // Every result is compared by value with the serial reference inside the
  // loop; the response bytes are compared once per ring slot after it, so
  // that formatting (serve.protocol) stays out of the timed work.
  const auto same = [&](const runtime::QInferenceResult& a, std::size_t k) {
    const runtime::QInferenceResult& ref =
        f.reference[static_cast<std::size_t>(sample_of[k])];
    return a.predicted == ref.predicted && a.logits == ref.logits;
  };
  const double cpu0 = process_cpu_s();
  const std::int64_t t_start = now_ns();
  const std::int64_t t_end = t_start + static_cast<std::int64_t>(seconds * 1e9);
  const auto slice_ns = static_cast<std::int64_t>(kSliceS * 1e9);
  std::int64_t next_slice = t_start + slice_ns;
  std::size_t slice = 0;
  std::size_t b = 0;
  std::int64_t now = t_start;
  while (now < t_end) {
    const auto& batch = ring[b];
    {
      auto s = tr.span("registry.infer_batch", batch.front().id);
      reg->infer_batch(*model, batch, out);
    }
    const std::int64_t done = now_ns();
    run.call_us.push_back(static_cast<double>(done - now) / 1e3);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (!same(out[j], b * kBatch + j)) ++run.mismatched;
    }
    run.samples += static_cast<std::int64_t>(batch.size());
    b = (b + 1) % ring.size();
    now = now_ns();
    if (now >= next_slice) {
      pin_threads(0, ctx.host.cpus[++slice % ctx.host.cpus.size()]);
      next_slice += slice_ns;
    }
  }
  run.cpu_s = process_cpu_s() - cpu0;
  pin_threads(0, ctx.host.serve_cpu);
  run.loop_s = static_cast<double>(now - t_start) / 1e9;

  for (std::size_t k = 0; k < ring.size(); ++k) {
    reg->infer_batch(*model, ring[k], out);
    for (std::size_t j = 0; j < ring[k].size(); ++j) {
      const std::size_t i = k * kBatch + j;
      if (serve::format_result_line(ring[k][j].id, out[j]) !=
          f.expected_line(ring[k][j].id, sample_of[i])) {
        ++run.mismatched;
      }
    }
  }

  for (int i = 0; i < kReloadReps; ++i) {
    const std::int64_t t0 = now_ns();
    serve::ReloadResult rr;
    {
      auto s = tr.span("registry.reload");
      rr = reg->reload(f.name);
    }
    if (rr.ok) {
      ++run.reloads_ok;
      run.reload_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
  }
  run.peak_rss_mb = peak_rss_mb() - rss_base;
  return run;
}

Result run_engine(const Ctx& ctx) {
  const Fixture f =
      load_fixture("mnet48", ctx.mnet48_path(), ctx.seed, kPool, false);
  Tracer off(false);
  const EngineRun run = engine_loop(ctx, f, ctx.seconds, off);

  Result r;
  r.attempted = run.samples + kRing * kBatch + kReloadReps;
  r.failed = run.mismatched + (kReloadReps - run.reloads_ok);
  if (run.mismatched > 0) {
    r.problems.push_back(std::to_string(run.mismatched) +
                         " results differ from the serial reference");
  }
  if (run.reloads_ok != kReloadReps) r.problems.push_back("a reload failed");

  const auto n = static_cast<std::int64_t>(run.call_us.size());
  const Tail tail = blocked_tail(run.call_us);
  r.add("setup_s", median_iqr(run.setup_s).median, "s",
        static_cast<std::int64_t>(run.setup_s.size()));
  r.add("samples_per_s", static_cast<double>(run.samples) / run.loop_s, "1/s",
        run.samples);
  r.add("latency_p50_us", percentile(run.call_us, 50), "us", n,
        "per infer_batch call");
  r.add("latency_p99_us", tail.value, "us", n, tail.str());
  r.add("peak_rss_mb", run.peak_rss_mb, "MiB", 1,
        "engine: VmHWM above the resident set of the benchmark's own inputs");
  r.add("cpu_us_per_sample", run.cpu_s * 1e6 / static_cast<double>(run.samples),
        "us", run.samples);
  r.add("reload_ms_p50", median_iqr(run.reload_ms).median, "ms",
        static_cast<std::int64_t>(run.reload_ms.size()));
  return r;
}

}  // namespace perfbench
