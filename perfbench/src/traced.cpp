// The traced run (--trace 1): attributes time to mixq's modules by timing,
// from the benchmark's own code, the calls it makes into each module's
// public functions. It is separate from the timed runs; its own overhead
// is measured on the engine path (traced minus untraced) and reported.
//
// Every workload's traced run emits the same per-layer metrics, each one
// measured:
//   * in-process probes: plan per-layer profile, pool lane scaling,
//     protocol parse/format, image loaders, reload;
//   * a daemon session: the serve-ndjson phases, the daemon's stats, and
//     an in-process replay of phase A's request stream through
//     parse -> resolve -> infer_batch (at the daemon's batch fill) ->
//     format, which splits the client latency into its layers. It is the
//     workload itself on serve-ndjson, and a shorter session on
//     engine-mnet48, which has no batcher or front-end of its own;
//   * engine-mnet48 adds its traced closed loop.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string_view>

#include "alloc_hook.hpp"
#include "runtime/flash_image.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace mixq;

namespace {

constexpr int kLoadReps = 15;
constexpr int kReloadReps = 15;
constexpr int kPlanReps = 300;
constexpr int kPoolReps = 100;
constexpr int kParseReps = 40;
constexpr int kFormatReps = 2000;
constexpr int kOverheadSegments = 6;  ///< alternating untraced/traced
/// Shares of --seconds in engine-mnet48's traced run: phase B of its daemon
/// session (phase A is as long as serve-ndjson's) and its traced loop.
constexpr double kEngineClosedShare = 0.1;
constexpr double kEngineLoopShare = 0.25;

double med(const std::vector<double>& v) { return median_iqr(v).median; }

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Median duration (us) of the spans named `name`, or 0 when none was
/// recorded. The probes time leaf calls, whose self time is their duration.
double span_med_us(const std::map<std::string, Tracer::ByName>& by,
                   const std::string& name) {
  const auto it = by.find(name);
  if (it == by.end()) return 0.0;
  return med(it->second.total_ns) / 1e3;
}

std::size_t max_line_bytes(const Fixture& f) {
  return 256 + 32 * static_cast<std::size_t>(f.numel());
}

/// Parse `line` and check that it is the request for `sample` of `f`.
serve::ParsedLine parse_checked(const std::string& line, const Fixture& f,
                                int sample, Result& r) {
  serve::ParsedLine p =
      serve::parse_protocol_line(line, f.numel(), max_line_bytes(f), 0);
  if (p.kind != serve::ParsedLine::Kind::kRequest ||
      p.request.input != f.inputs[static_cast<std::size_t>(sample)]) {
    r.problems.push_back("parse_protocol_line did not return the request it "
                         "was given");
  }
  return p;
}

// ---------------------------------------------------------------------------
// In-process probes.
// ---------------------------------------------------------------------------

void probe_image_and_reload(const Fixture& cnn, Tracer& tr, Result& r) {
  const std::vector<std::uint8_t> blob = read_bytes(cnn.path);
  runtime::FlashImageStats stats;
  for (int i = 0; i < kLoadReps; ++i) {
    runtime::QuantizedNet mm;
    {
      auto s = tr.span("flash_image.load_mmap");
      mm = runtime::load_flash_image_mmap(cnn.path, {}, &stats);
    }
    {
      // Compiling the mmap'd net decodes its Huffman banks (runtime/entropy).
      auto s = tr.span("plan.compile");
      const runtime::ExecutionPlan plan(mm);
    }
    auto s = tr.span("flash_image.load_stream");
    const runtime::QuantizedNet st = runtime::load_flash_image(blob, {}, nullptr);
  }

  serve::ModelRegistry reg(kLanes);
  reg.add_model(cnn.name, cnn.path);
  std::int64_t ok = 0;
  for (int i = 0; i < kReloadReps; ++i) {
    auto s = tr.span("registry.reload");
    if (reg.reload(cnn.name).ok) ++ok;
  }
  const auto by = tr.by_name();
  r.add("image.load_mmap_us", span_med_us(by, "flash_image.load_mmap"), "us",
        kLoadReps, "cnn16 v2 image");
  r.add("image.load_stream_us", span_med_us(by, "flash_image.load_stream"),
        "us", kLoadReps, "cnn16, Huffman banks decoded at load");
  r.add("image.compression_ratio",
        static_cast<double>(stats.weight_raw_bytes) /
            static_cast<double>(std::max<std::int64_t>(1, stats.weight_stored_bytes)),
        "x", 1, "cnn16 raw / stored weight bytes");
  r.add("plan.compile_us", span_med_us(by, "plan.compile"), "us", kLoadReps,
        "cnn16 from mmap, includes Huffman decode");
  r.add("registry.reload_us", span_med_us(by, "registry.reload"), "us",
        kReloadReps, "cnn16, in-process, idle");
  r.add("registry.reloads_ok", static_cast<double>(ok), "count");
  r.add("registry.reloads_attempted", kReloadReps, "count");
  if (ok != kReloadReps) r.problems.push_back("an in-process reload failed");
}

void probe_plan(const Fixture& mnet, const Fixture& cnn, Tracer& tr,
                Result& r) {
  const runtime::ExecutionPlan plan(mnet.net);
  const std::size_t layers = plan.layers().size();
  std::vector<std::vector<double>> per(layers);
  std::vector<double> quant, total;
  std::vector<std::int64_t> ns;
  for (int i = 0; i < kPlanReps; ++i) {
    std::int64_t q = 0;
    const auto& x = mnet.inputs[static_cast<std::size_t>(i) % mnet.inputs.size()];
    {
      auto s = tr.span("plan.run_timed");
      plan.run_timed(x.data(), ns, &q);
    }
    double sum = static_cast<double>(q);
    for (std::size_t l = 0; l < layers; ++l) {
      per[l].push_back(static_cast<double>(ns[l]));
      sum += static_cast<double>(ns[l]);
    }
    quant.push_back(static_cast<double>(q));
    total.push_back(sum);
  }
  const double total_med = med(total);
  std::int64_t macs = 0;
  for (std::size_t l = 0; l < layers; ++l) {
    const runtime::PlannedLayer& pl = plan.layers()[l];
    macs += pl.macs;
    const std::string note = std::string(runtime::domain_name(pl.domain)) +
                             "/" + runtime::tier_name(pl.tier);
    r.add("plan.L" + std::to_string(l) + ".ns", med(per[l]), "ns", kPlanReps,
          note);
  }
  for (std::size_t l = 0; l < layers; ++l) {
    r.add("plan.L" + std::to_string(l) + ".share", med(per[l]) / total_med,
          "1", kPlanReps);
  }
  r.add("plan.quantize_ns", med(quant), "ns", kPlanReps);
  r.add("plan.total_ns", total_med, "ns", kPlanReps, "mnet48, serial");
  r.add("plan.macs_per_ns", static_cast<double>(macs) / total_med, "MAC/ns",
        kPlanReps);
  r.add("plan.arena_bytes", static_cast<double>(plan.arena_bytes()), "count",
        1, "Eq. 7 RW arena, bytes");

  const runtime::ExecutionPlan cplan(cnn.net);
  std::vector<double> ctotal;
  for (int i = 0; i < kPlanReps; ++i) {
    std::int64_t q = 0;
    const auto& x = cnn.inputs[static_cast<std::size_t>(i) % cnn.inputs.size()];
    {
      auto s = tr.span("plan.run_timed");
      cplan.run_timed(x.data(), ns, &q);
    }
    double sum = static_cast<double>(q);
    for (std::int64_t v : ns) sum += static_cast<double>(v);
    ctotal.push_back(sum);
  }
  r.add("plan.cnn16.total_ns", med(ctotal), "ns", kPlanReps);
}

void probe_pool(const Fixture& mnet, Tracer& tr, Result& r) {
  serve::ModelRegistry one(1);
  serve::ModelRegistry two(2);
  one.add_model(mnet.name, mnet.path);
  two.add_model(mnet.name, mnet.path);
  const auto m1 = one.resolve(mnet.name);
  const auto m2 = two.resolve(mnet.name);
  std::vector<serve::Request> batch(kBatch);
  for (int j = 0; j < kBatch; ++j) batch[static_cast<std::size_t>(j)].input = mnet.inputs[static_cast<std::size_t>(j)];
  std::vector<runtime::QInferenceResult> out;
  one.infer_batch(*m1, batch, out);
  two.infer_batch(*m2, batch, out);
  // Interleaved, so both lane counts see the same host conditions.
  for (int i = 0; i < kPoolReps; ++i) {
    {
      auto s = tr.span("pool.infer_batch.1lane");
      one.infer_batch(*m1, batch, out);
    }
    auto s = tr.span("pool.infer_batch.2lane");
    two.infer_batch(*m2, batch, out);
  }
  const auto by = tr.by_name();
  const double u1 = span_med_us(by, "pool.infer_batch.1lane");
  const double u2 = span_med_us(by, "pool.infer_batch.2lane");
  r.add("pool.batch8_1lane_us", u1, "us", kPoolReps);
  r.add("pool.batch8_2lane_us", u2, "us", kPoolReps);
  r.add("pool.speedup_2v1", u1 / u2, "x", kPoolReps);
  r.add("host.parallel_efficiency", parallel_efficiency(kLanes, 0.5), "1", 1,
        "2 spinning workers, cpu/wall/2");
}

void probe_protocol(const std::vector<const Fixture*>& models, Tracer& tr,
                    Result& r) {
  for (const Fixture* f : models) {
    const char* name = tr.intern("protocol.parse." + f->name);
    for (int i = 0; i < kParseReps; ++i) {
      const std::string line = f->request_line(i, i);
      auto s = tr.span(name, i);
      (void)parse_checked(line, *f, i, r);
    }
    const std::string line = f->request_line(0, 0);
    alloc_count_begin();
    (void)serve::parse_protocol_line(line, f->numel(), max_line_bytes(*f), 0);
    const AllocCount a = alloc_count_end();
    r.add("protocol.parse_alloc_bytes." + f->name, static_cast<double>(a.bytes),
          "count", 1, std::to_string(a.calls) + " allocations for " +
                          std::to_string(line.size()) + " line bytes");
  }
  const Fixture& mnet = *models.front();
  for (int i = 0; i < kFormatReps; ++i) {
    auto s = tr.span("protocol.format", i);
    (void)serve::format_result_line(
        i, mnet.reference[static_cast<std::size_t>(i) % mnet.reference.size()]);
  }
  const auto by = tr.by_name();
  const double mnet_us = span_med_us(by, "protocol.parse.mnet48");
  r.add("protocol.parse_us.mnet48", mnet_us, "us", kParseReps,
        std::to_string(mnet.numel()) + " floats");
  r.add("protocol.parse_us.cnn16", span_med_us(by, "protocol.parse.cnn16"),
        "us", kParseReps, "768 floats");
  r.add("protocol.parse_ns_per_float",
        mnet_us * 1e3 / static_cast<double>(mnet.numel()), "ns", kParseReps);

  r.add("protocol.format_us", span_med_us(by, "protocol.format"), "us",
        kFormatReps);
}

/// Engine closed-loop segments alternating untraced and traced; returns
/// {untraced p50, traced p50} per infer_batch call, in us.
std::pair<double, double> probe_overhead(const Ctx& ctx, const Fixture& mnet,
                                         double seconds, Tracer& tr) {
  std::vector<double> off, on;
  for (int i = 0; i < kOverheadSegments; ++i) {
    const bool traced = i % 2 == 1;
    tr.set_enabled(traced);
    const EngineRun run = engine_loop(ctx, mnet, seconds / kOverheadSegments, tr);
    auto& dst = traced ? on : off;
    dst.insert(dst.end(), run.call_us.begin(), run.call_us.end());
  }
  tr.set_enabled(true);
  return {percentile(off, 50), percentile(on, 50)};
}

// ---------------------------------------------------------------------------
// Traffic.
// ---------------------------------------------------------------------------

/// The traced engine closed loop; adds the share of its wall time spent
/// inside the traced mixq calls.
void traced_engine(const Ctx& ctx, const Fixture& mnet, double seconds,
                   Tracer& tr, Result& r) {
  const std::size_t first = tr.spans().size();
  const EngineRun run = engine_loop(ctx, mnet, seconds, tr);
  r.attempted += run.samples;
  r.failed += run.mismatched;
  if (run.mismatched > 0) {
    r.problems.push_back("traced engine loop: results differ from the serial reference");
  }
  double inside = 0;
  const auto& spans = tr.spans();
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (std::string_view(spans[i].name) == "registry.infer_batch") {
      inside += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
  }
  r.add("trace.accounted_frac", inside / (run.loop_s * 1e9), "1",
        static_cast<std::int64_t>(run.call_us.size()),
        "loop wall time inside traced infer_batch calls");
}

/// A daemon session (phase A for `open_s`, phase B for `closed_s`) and the
/// in-process replay of its phase A; adds the batcher, server, client and
/// front-end rows, and trace.accounted_frac when `owns_accounting`.
void traced_serve(const Ctx& ctx, const Fixture& mnet, double open_s,
                  double closed_s, bool owns_accounting, Tracer& tr,
                  Result& r) {
  // The daemon runs untraced (its own stats give the server-side split);
  // the generator records no spans, so its timing matches the timed runs.
  tr.set_enabled(false);
  const ServeRun run = serve_phases(ctx, mnet, open_s, closed_s);
  tr.set_enabled(true);
  account(r, run);

  const auto fill_of = [](const DaemonStats& a, const DaemonStats& b) {
    const auto batches = b.batches - a.batches;
    return batches > 0 ? static_cast<double>(b.responses - a.responses) /
                             static_cast<double>(batches)
                       : 0.0;
  };
  const double fill = fill_of(run.s0, run.s_open);

  // Replay phase A's request stream in-process at the daemon's fill.
  serve::ModelRegistry reg(kLanes);
  reg.add_model(mnet.name, mnet.path);
  SampleStream stream(run.open_spec.seed, mnet.inputs.size());
  const auto group = static_cast<std::size_t>(
      std::clamp<long>(std::lround(fill), 1L, static_cast<long>(kBatch)));
  const auto n = static_cast<std::size_t>(run.open.count.sent);
  const char* parse_name = tr.intern("protocol.parse." + mnet.name);
  std::vector<double> parse_us, infer_us, format_us;
  std::vector<serve::Request> batch;
  std::vector<int> picks;
  std::vector<runtime::QInferenceResult> out;
  for (std::size_t k = 0; k < n; k += group) {
    batch.clear();
    picks.clear();
    const std::size_t end = std::min(n, k + group);
    for (std::size_t i = k; i < end; ++i) {
      const int sample = stream.next();
      const std::string line = mnet.request_line(static_cast<std::int64_t>(i), sample);
      const std::int64_t t0 = now_ns();
      serve::ParsedLine parsed = [&] {
        auto s = tr.span(parse_name, static_cast<std::int64_t>(i));
        return parse_checked(line, mnet, sample, r);
      }();
      parse_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      {
        auto s = tr.span("registry.resolve", static_cast<std::int64_t>(i));
        parsed.request.route = reg.resolve(parsed.request.model);
      }
      batch.push_back(std::move(parsed.request));
      picks.push_back(sample);
    }
    const std::int64_t t0 = now_ns();
    {
      auto s = tr.span("registry.infer_batch", static_cast<std::int64_t>(k));
      reg.infer_batch(*batch.front().route, batch, out);
    }
    const double batch_us = static_cast<double>(now_ns() - t0) / 1e3;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      infer_us.push_back(batch_us);
      const std::int64_t f0 = now_ns();
      std::string line;
      {
        auto s = tr.span("protocol.format", batch[i].id);
        line = serve::format_result_line(batch[i].id, out[i]);
      }
      format_us.push_back(static_cast<double>(now_ns() - f0) / 1e3);
      if (line != mnet.expected_line(batch[i].id, picks[i])) {
        r.problems.push_back("replay: a result differs from the serial reference");
        break;
      }
    }
  }

  const double client_p50 = percentile(run.open.latency_us, 50);
  const Tail client_tail = tail_percentile(run.open.latency_us);
  const double parse_p50 = percentile(parse_us, 50);
  const double infer_p50 = percentile(infer_us, 50);
  const double format_p50 = percentile(format_us, 50);
  // Server-side = parse (before admission) + the daemon's enqueue->done
  // latency + format (after done); the front-end is the rest.
  const double frontend_p50 =
      client_p50 - (parse_p50 + run.s_open.latency_p50_us + format_p50);
  const double frontend_p99 =
      client_tail.value - (percentile(parse_us, client_tail.p) +
                           run.s_open.latency_p99_us +
                           percentile(format_us, client_tail.p));
  const double wait_p50 = run.s_open.latency_p50_us - infer_p50;
  const auto na = static_cast<std::int64_t>(run.open.latency_us.size());
  const Tail late = tail_percentile(run.open.late_us);
  r.add("batch.mean_fill", fill, "count", run.s_open.batches - run.s0.batches,
        "phase A, daemon stats");
  r.add("batch.mean_fill_closed", fill_of(run.s_open, run.s_closed), "count",
        run.s_closed.batches - run.s_open.batches,
        "phase B on the last daemon, daemon stats");
  r.add("batch.count", static_cast<double>(run.s_open.batches - run.s0.batches),
        "count", 1, "phase A");
  r.add("batch.wait_p50_us", wait_p50, "us", na,
        "daemon enqueue->done p50 minus replayed infer p50");
  r.add("server.latency_p50_us", run.s_open.latency_p50_us, "us", na,
        "daemon enqueue->done, warm-up + phase A");
  r.add("client.latency_p50_us", client_p50, "us", na,
        "phase A, scheduled send -> response");
  const Tail blocked = blocked_tail(run.open.latency_us);
  r.add("client.latency_p99_us", blocked.value, "us", na,
        "phase A, " + blocked.str());
  r.add("server.latency_p99_us", run.s_open.latency_p99_us, "us", na,
        "daemon enqueue->done, warm-up + phase A");
  r.add("net.frontend_p50_us", frontend_p50, "us", na,
        "client p50 - (parse + server + format)");
  r.add("net.frontend_p99_us", frontend_p99, "us", na,
        "same at " + client_tail.str());
  r.add("gen.late_p99_us", late.value, "us", late.n, late.str());
  r.add("gen.late_max_us", percentile(run.open.late_us, 100), "us", late.n);
  if (owns_accounting) {
    r.add("trace.accounted_frac",
          (parse_p50 + infer_p50 + format_p50 + frontend_p50) / client_p50,
          "1", na, "(parse + infer + format + front-end) / client p50, phase A");
  }
  std::printf("replay: client p50 %.1f us = parse %.1f + batch wait %.1f + "
              "infer %.1f + format %.1f + front-end %.1f (fill %.2f, %zu requests)\n",
              client_p50, parse_p50, wait_p50, infer_p50, format_p50,
              frontend_p50, fill, n);
}

}  // namespace

void probe_pool_unpinned(const Ctx& ctx, Result& r) {
  const Fixture mnet =
      load_fixture("mnet48", ctx.mnet48_path(), ctx.seed, kPool, false);
  Tracer tr(true);
  probe_pool(mnet, tr, r);
}

Result run_traced(const Ctx& ctx, const Result& pool) {
  const bool engine = ctx.workload == "engine-mnet48";
  const Fixture mnet =
      load_fixture("mnet48", ctx.mnet48_path(), ctx.seed, kPool, true);
  const Fixture cnn =
      load_fixture("cnn16", ctx.cnn16_path(), ctx.seed + 1, kPool, true);

  Tracer tr(true, 1 << 20);
  Result r;
  probe_plan(mnet, cnn, tr, r);
  r.metrics.insert(r.metrics.end(), pool.metrics.begin(), pool.metrics.end());
  probe_protocol({&mnet, &cnn}, tr, r);
  probe_image_and_reload(cnn, tr, r);
  const auto [off_us, on_us] = probe_overhead(ctx, mnet, 1.5, tr);
  r.add("trace.overhead_us", on_us - off_us, "us", 1,
        "engine infer_batch p50, traced minus untraced");
  r.add("trace.overhead_pct", (on_us - off_us) / off_us * 100.0, "%", 1);

  if (engine) {
    traced_serve(ctx, mnet, ctx.seconds * kOpenShare,
                 ctx.seconds * kEngineClosedShare, false, tr, r);
    traced_engine(ctx, mnet, ctx.seconds * kEngineLoopShare, tr, r);
  } else {
    traced_serve(ctx, mnet, ctx.seconds * kOpenShare,
                 ctx.seconds * (1.0 - kOpenShare), true, tr, r);
  }
  r.attempted = std::max<std::int64_t>(r.attempted, 1);
  tr.write_ndjson(ctx.work + "/trace-" + ctx.workload + ".ndjson");
  return r;
}

}  // namespace perfbench
