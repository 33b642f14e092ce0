// perfbench -- the repository benchmark binary (run through
// perfbench/run.py, which builds it and the `mixq` CLI first).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --fixtures DIR --mixq PATH --work DIR
//             [--revision REV] [--dirty 0|1]
//
// Workloads: engine-mnet48, serve-ndjson. --trace 0
// measures the end-to-end metrics with tracing off; --trace 1 is the
// separate traced run that attributes time to mixq's modules. Every metric
// is printed by name with its unit and sample count; the last line is one
// JSON object {"correct","attempted","failed","metrics"}. The exit code is
// non-zero when any response differs from the serial reference, when the
// request accounting does not balance, or when the run is invalid.
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "runtime/flash_image.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// Write the mnet48 image next to cnn16 (atomically: a concurrent reader
/// never sees a partial image).
void write_mnet48(const Ctx& ctx) {
  const std::string tmp = ctx.mnet48_path() + ".tmp";
  mixq::runtime::write_flash_image_file(make_mnet48(), tmp);
  std::filesystem::rename(tmp, ctx.mnet48_path());
}

std::string metrics_json(const Result& r, bool with_detail) {
  std::string out = "{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ",";
    out += json_str(m.name) + ":{\"value\":" + num(m.value) +
           ",\"unit\":" + json_str(m.unit);
    if (with_detail) {
      out += ",\"n\":" + std::to_string(m.n) + ",\"note\":" + json_str(m.note);
    }
    out += "}";
  }
  return out + "}";
}

int run(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  if (argc % 2 == 0) throw std::invalid_argument("options come in --name value pairs");
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw std::invalid_argument(std::string("unexpected argument ") + argv[i]);
    }
    opt[argv[i] + 2] = argv[i + 1];
  }
  const auto need = [&](const char* k) {
    const auto it = opt.find(k);
    if (it == opt.end()) throw std::invalid_argument(std::string("missing --") + k);
    return it->second;
  };
  Ctx ctx;
  ctx.workload = need("workload");
  ctx.seed = std::stoull(need("seed"));
  ctx.seconds = std::stod(need("seconds"));
  ctx.trace = need("trace") == "1";
  ctx.fixtures = need("fixtures");
  ctx.mixq = need("mixq");
  ctx.work = need("work");
  if (ctx.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  if (ctx.workload != "engine-mnet48" && ctx.workload != "serve-ndjson") {
    throw std::invalid_argument("unknown workload " + ctx.workload);
  }
  std::filesystem::create_directories(ctx.work);
  write_mnet48(ctx);
  ctx.host = probe_host(opt.count("revision") ? opt["revision"] : "none",
                        opt.count("dirty") && opt["dirty"] == "1");
  // The host this benchmark was tuned on guarantees one CPU and lends the
  // others only when its neighbours are idle; a run that spreads over
  // several CPUs is throttled back to one part of the time, which halved
  // engine throughput and multiplied p99 by ten from one run to the next.
  // So the system under test (the engine, or the daemon) runs on one CPU,
  // and the load generator on another, where it does not delay the
  // daemon's work or its own sends; while throughput is measured, both
  // move to the next CPU every slice (kSliceS). The engine's two lanes
  // share their CPU: lane scaling cannot show in the end-to-end figures
  // and is measured only by the traced run's pool probe, before pinning.
  Result pool_probe;
  if (ctx.trace) probe_pool_unpinned(ctx, pool_probe);
  const std::vector<int> cpus = allowed_cpus();
  ctx.host.cpus.assign(cpus.rbegin(), cpus.rend());
  ctx.host.serve_cpu = cpus.back();
  ctx.host.client_cpu = cpus.size() > 1 ? cpus[cpus.size() - 2] : cpus.back();
  const ScopedPin pin(ctx.host.serve_cpu);

  Result r;
  if (ctx.trace) {
    r = run_traced(ctx, pool_probe);
  } else if (ctx.workload == "engine-mnet48") {
    r = run_engine(ctx);
  } else {
    r = run_serve(ctx);
  }

  std::printf("perfbench %s seed=%llu seconds=%s trace=%d\n",
              ctx.workload.c_str(), static_cast<unsigned long long>(ctx.seed),
              num(ctx.seconds).c_str(), ctx.trace ? 1 : 0);
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %14.6g %-6s n=%lld%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.n),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0;
  std::printf("  %-34s %14.6g %-6s n=%lld\n", "failed_frac", failed_frac,
              "1", static_cast<long long>(r.attempted));
  std::printf("config: %s\n", ctx.host.json().c_str());
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: FAIL: %s\n", p.c_str());
  }

  const std::string detail =
      "{\"workload\":" + json_str(ctx.workload) +
      ",\"seed\":" + std::to_string(ctx.seed) + ",\"seconds\":" +
      num(ctx.seconds) + ",\"trace\":" + (ctx.trace ? "1" : "0") +
      ",\"config\":" + ctx.host.json() + ",\"correct\":" +
      (r.correct() ? "true" : "false") + ",\"attempted\":" +
      std::to_string(r.attempted) + ",\"failed\":" + std::to_string(r.failed) +
      ",\"failed_frac\":" + num(failed_frac) +
      ",\"metrics\":" + metrics_json(r, true) + "}";
  {
    std::ofstream f(ctx.work + "/result-" + ctx.workload + "-trace" +
                    (ctx.trace ? "1" : "0") + ".json");
    f << detail << "\n";
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":%s}\n",
              r.correct() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed),
              metrics_json(r, false).c_str());
  std::fflush(stdout);
  return r.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 2;
  }
}
