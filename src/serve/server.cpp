#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <istream>
#include <mutex>
#include <ostream>
#include <utility>

#include "serve/json.hpp"
#include "serve/net/fault_injector.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {

// ---------------------------------------------------------------------------
// Shared line formatting
// ---------------------------------------------------------------------------

std::string format_result_line(std::int64_t id,
                               const runtime::QInferenceResult& r) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"predicted\":";
  line += std::to_string(r.predicted);
  line += ",\"logits\":[";
  for (std::size_t i = 0; i < r.logits.size(); ++i) {
    if (i > 0) line.push_back(',');
    append_json_float(line, r.logits[i]);
  }
  line += "]}";
  return line;
}

std::string format_request_line(std::int64_t id, const float* input,
                                std::int64_t numel) {
  std::string line = "{\"id\":";
  line += std::to_string(id);
  line += ",\"input\":[";
  for (std::int64_t i = 0; i < numel; ++i) {
    if (i > 0) line.push_back(',');
    append_json_float(line, input[i]);
  }
  line += "]}";
  return line;
}

// ---------------------------------------------------------------------------
// ServeStats
// ---------------------------------------------------------------------------

namespace {

std::size_t percentile_index(double p, std::size_t n) {
  const double clamped = std::min(std::max(p, 0.0), 100.0);
  return static_cast<std::size_t>(
      clamped / 100.0 * static_cast<double>(n - 1) + 0.5);
}

/// p50/p95/p99 from one sorted copy (a stats request would otherwise copy
/// the latency vector once per percentile).
std::array<double, 3> percentile_triple(const std::vector<double>& lat) {
  if (lat.empty()) return {0.0, 0.0, 0.0};
  std::vector<double> v = lat;
  std::sort(v.begin(), v.end());
  return {v[percentile_index(50, v.size())],
          v[percentile_index(95, v.size())],
          v[percentile_index(99, v.size())]};
}

}  // namespace

void ServeStats::add_latency(double us, std::size_t cap) {
  if (latency_us.size() < cap) {
    latency_us.push_back(us);
  } else {
    latency_us[latency_next] = us;
    latency_next = (latency_next + 1) % cap;
  }
}

double ServeStats::latency_percentile_us(double p) const {
  if (latency_us.empty()) return 0.0;
  std::vector<double> v = latency_us;
  const auto idx = percentile_index(p, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double ServeStats::latency_mean_us() const {
  if (latency_us.empty()) return 0.0;
  double s = 0.0;
  for (const double l : latency_us) s += l;
  return s / static_cast<double>(latency_us.size());
}

std::string ServeStats::json() const {
  std::string out = "{\"requests\":";
  out += std::to_string(requests);
  out += ",\"responses\":";
  out += std::to_string(responses);
  out += ",\"errors\":";
  out += std::to_string(errors);
  out += ",\"timeouts\":";
  out += std::to_string(timeouts);
  out += ",\"shed\":";
  out += std::to_string(shed);
  out += ",\"batches\":";
  out += std::to_string(batches);
  out += ",\"max_batch_fill\":";
  out += std::to_string(max_batch_fill);
  out += ",\"mean_batch_fill\":";
  append_json_double(out, mean_batch_fill());
  out += ",\"latency_mean_us\":";
  append_json_double(out, latency_mean_us());
  const auto [p50, p95, p99] = percentile_triple(latency_us);
  out += ",\"latency_p50_us\":";
  append_json_double(out, p50);
  out += ",\"latency_p95_us\":";
  append_json_double(out, p95);
  out += ",\"latency_p99_us\":";
  append_json_double(out, p99);
  out += "}";
  return out;
}

std::string ServeStats::str() const {
  std::string s;
  s += "requests: " + std::to_string(requests) +
       ", responses: " + std::to_string(responses) +
       ", errors: " + std::to_string(errors) +
       ", timeouts: " + std::to_string(timeouts) +
       ", shed: " + std::to_string(shed) + "\n";
  s += "batches: " + std::to_string(batches) + " (mean fill " +
       std::to_string(mean_batch_fill()) + ", max fill " +
       std::to_string(max_batch_fill) + ")\n";
  const auto [p50, p95, p99] = percentile_triple(latency_us);
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "latency: mean %.1f us, p50 %.1f us, p95 %.1f us, p99 %.1f us\n",
                latency_mean_us(), p50, p95, p99);
  s += buf;
  return s;
}

// ---------------------------------------------------------------------------
// BatchWorker: the one serving core
// ---------------------------------------------------------------------------

BatchWorker::BatchWorker(ModelRegistry& registry, const ServeConfig& cfg,
                         Sink sink, FaultInjector* injector,
                         std::size_t queue_depth, std::int64_t retry_after_ms)
    : reg_(registry),
      cfg_(cfg),
      sink_(std::move(sink)),
      injector_(injector),
      queue_depth_(queue_depth),
      retry_after_ms_(retry_after_ms),
      default_numel_(registry.default_model()->input_numel()),
      max_line_bytes_(max_request_line_bytes(registry.max_input_numel())),
      batcher_(queue_, BatcherConfig{cfg.max_batch, cfg.max_wait_us}) {}

BatchWorker::~BatchWorker() { drain_and_stop(); }

void BatchWorker::start() {
  worker_ = std::thread([this] { run(); });
}

void BatchWorker::close() { queue_.close(); }

void BatchWorker::drain_and_stop() {
  queue_.close();
  if (worker_.joinable()) worker_.join();
}

ServeStats BatchWorker::stats() const { return reg_.snapshot(stats_); }

void BatchWorker::record(ServeEvent e) { reg_.record(e, nullptr, &stats_); }

Dispatch BatchWorker::handle_line(int client, std::string_view line) {
  ParsedLine p = parse_protocol_line(line, default_numel_, max_line_bytes_,
                                     cfg_.default_deadline_ms,
                                     &reg_.directory());
  using K = Dispatch::Kind;
  switch (p.kind) {
    case ParsedLine::Kind::kBlank:
      return {};  // blank lines are ignored, not errors
    case ParsedLine::Kind::kShutdown:
      return {K::kShutdown};
    case ParsedLine::Kind::kStats:
      return {K::kStats};
    case ParsedLine::Kind::kReload: {
      Dispatch d(K::kReload);
      d.model = std::move(p.reload_model);
      d.path = std::move(p.reload_path);
      return d;
    }
    case ParsedLine::Kind::kInfo:
      return {K::kReply, info_line()};
    case ParsedLine::Kind::kHealth:
      return {K::kReply, "{\"health\":" + reg_.health_json() + "}"};
    case ParsedLine::Kind::kError:
      record(ServeEvent::kError);
      return {K::kReply, p.error_line()};
    case ParsedLine::Kind::kRequest:
      break;
  }
  Request r = std::move(p.request);
  const std::int64_t rid = r.id;
  r.client = client;
  // Pin the CURRENT generation at admission: the batch worker executes
  // against exactly this plan even if a reload swaps the slot later.
  r.route = reg_.resolve(r.model);
  if (r.route == nullptr) {
    record(ServeEvent::kError);
    return {K::kReply,
            format_error_line(ErrCode::kNotFound,
                              "unknown model \"" + r.model + "\"", &rid)};
  }
  const std::shared_ptr<const ServableModel> route = r.route;
  reg_.record(ServeEvent::kAdmitted, route.get(), &stats_);
  switch (queue_.push_bounded(std::move(r), queue_depth_)) {
    case PushResult::kOk:
      return {K::kAdmitted};
    case PushResult::kOverflow:
      // Load shedding: a bounded queue answers `overloaded` with a
      // backoff hint instead of stalling the front-end.
      reg_.record(ServeEvent::kShed, route.get(), &stats_);
      return {K::kReply,
              format_error_line(ErrCode::kOverloaded,
                                "queue depth " + std::to_string(queue_depth_) +
                                    " reached",
                                &rid, retry_after_ms_)};
    case PushResult::kClosed:
      break;
  }
  reg_.record(ServeEvent::kRefused, route.get(), &stats_);
  return {K::kReply, format_error_line(ErrCode::kShuttingDown,
                                       "server is shutting down", &rid)};
}

std::string BatchWorker::too_long_line() {
  record(ServeEvent::kError);
  return format_error_line(ErrCode::kMalformed, "request line too long");
}

std::string BatchWorker::reload_line(const std::string& model,
                                     const std::string& path) {
  const ReloadResult rr = reg_.reload(model, path);
  if (!rr.ok) {
    record(ServeEvent::kError);
    return format_error_line(
        rr.not_found ? ErrCode::kNotFound : ErrCode::kReloadFailed, rr.error);
  }
  std::string line = "{\"ok\":\"reload\",\"model\":";
  append_json_string(line, rr.model);
  line += ",\"generation\":" + std::to_string(rr.generation);
  line += ",\"format_version\":" + std::to_string(rr.format_version) + "}";
  return line;
}

std::string BatchWorker::stats_line(std::string_view conn_fields) const {
  std::string line = "{\"stats\":{\"engine\":" + stats().json();
  line += conn_fields;
  line += ",\"models\":" + reg_.stats_json() + "}}";
  return line;
}

std::string BatchWorker::info_line() const {
  // Legacy top-level fields describe the DEFAULT model (existing
  // single-model clients keep parsing them); "models" carries the full
  // per-model metadata including image format version and codec summary.
  const std::shared_ptr<const ServableModel> def = reg_.default_model();
  const runtime::QuantizedNet& net = def->net;
  const Shape& in = net.layers.front().in_shape;
  std::string line = "{\"info\":{\"layers\":";
  line += std::to_string(net.layers.size());
  line += ",\"input\":[" + std::to_string(in.h) + "," + std::to_string(in.w) +
          "," + std::to_string(in.c) + "]";
  line += ",\"classes\":" + std::to_string(net.layers.back().out_shape.c);
  line += ",\"ro_bytes\":" + std::to_string(net.ro_bytes());
  line += ",\"rw_peak_bytes\":" + std::to_string(net.rw_peak_bytes());
  line += ",\"lanes\":" + std::to_string(reg_.lanes());
  line += ",\"format_version\":" + std::to_string(def->image.version);
  line += ",\"default\":";
  append_json_string(line, reg_.default_name());
  line += ",\"models\":" + reg_.models_info_json() + "}}";
  return line;
}

void BatchWorker::run() {
  std::vector<Request> batch;
  std::vector<Request> live;
  std::vector<Reply> out;
  const auto fail = [&](const Request& r, ErrCode code, const char* why,
                        ServeEvent e) {
    out.push_back({r.client, format_error_line(code, why, &r.id)});
    reg_.record(e, r.route.get(), &stats_);
  };
  while (batcher_.next_batch(batch)) {
    if (injector_ != nullptr) injector_->maybe_delay_flush();
    // Deadline gate: a request that expired while queued (or during the
    // batch window) is answered `timeout` HERE, before inference, so it
    // never occupies a batch slot.
    const auto now = Clock::now();
    live.clear();
    for (Request& r : batch) {
      if (r.expired(now)) {
        fail(r, ErrCode::kTimeout, "deadline expired before execution",
             ServeEvent::kTimeout);
      } else if (injector_ != nullptr && injector_->should_fail_exec()) {
        fail(r, ErrCode::kInternal, "injected transient executor fault",
             ServeEvent::kError);
      } else {
        live.push_back(std::move(r));
      }
    }
    if (!live.empty()) {
      try {
        infer_grouped(live);
      } catch (const std::exception& e) {
        // A real executor failure: answer every request retryably rather
        // than taking the daemon down mid-drain.
        for (const Request& r : live) {
          fail(r, ErrCode::kInternal, e.what(), ServeEvent::kError);
        }
        live.clear();
      }
    }
    if (!live.empty()) {
      const auto done = Clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        out.push_back(
            {live[i].client, format_result_line(live[i].id, results_[i])});
      }
      reg_.record_batch(live, done, &stats_);
    }
    sink_(out);
    out.clear();
  }
  sink_(out);  // empty: the worker has exited
}

/// Execute a micro-batch that may mix models (and generations mid-reload):
/// group by pinned route, run each group across the pool, keep results in
/// admission order. Single-route batches take the whole-batch path.
void BatchWorker::infer_grouped(const std::vector<Request>& batch) {
  const bool mixed =
      std::any_of(batch.begin(), batch.end(),
                  [&](const Request& r) { return r.route != batch[0].route; });
  if (!mixed) {
    reg_.infer_batch(*batch[0].route, batch, results_);
    return;
  }
  results_.clear();
  results_.resize(batch.size());
  std::vector<const ServableModel*> done;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ServableModel* m = batch[i].route.get();
    if (std::find(done.begin(), done.end(), m) != done.end()) continue;
    done.push_back(m);
    group_.clear();
    for (std::size_t j = i; j < batch.size(); ++j) {
      if (batch[j].route.get() == m) group_.push_back(j);
    }
    reg_.infer_indices(*m, batch, group_, results_);
  }
}

// ---------------------------------------------------------------------------
// StreamServer
// ---------------------------------------------------------------------------

StreamServer::StreamServer(const runtime::QuantizedNet& net, ServeConfig cfg)
    : cfg_(cfg) {
  owned_ = std::make_unique<ModelRegistry>(cfg.threads);
  owned_->add_model("default", net);
  registry_ = owned_.get();
}

StreamServer::StreamServer(ModelRegistry& registry, ServeConfig cfg)
    : registry_(&registry), cfg_(cfg) {}

StreamServer::~StreamServer() = default;

namespace {

enum class LineRead { kOk, kTooLong, kEof };

/// getline with a memory bound: past `cap` bytes the remainder of the
/// line is discarded (bounded, streaming) instead of buffered -- the
/// stdio analogue of the socket reader's pending-size cap.
LineRead read_line_bounded(std::istream& in, std::string& line,
                           std::size_t cap) {
  line.clear();
  int c;
  while ((c = in.get()) != std::char_traits<char>::eof()) {
    if (c == '\n') return LineRead::kOk;
    if (line.size() >= cap) {
      while ((c = in.get()) != std::char_traits<char>::eof() && c != '\n') {
      }
      return LineRead::kTooLong;
    }
    line.push_back(static_cast<char>(c));
  }
  return line.empty() ? LineRead::kEof : LineRead::kOk;
}

}  // namespace

ServeStats StreamServer::serve(std::istream& in, std::ostream& out) {
  // One mutex for the one output stream: the protocol reader (errors,
  // info/stats) and the batch worker (responses) both write here.
  std::mutex out_mu;
  const auto write = [&](const std::string& line) {
    std::lock_guard<std::mutex> lock(out_mu);
    out << line << '\n';
    out.flush();
  };
  BatchWorker worker(*registry_, cfg_, [&](std::vector<Reply>& replies) {
    std::lock_guard<std::mutex> lock(out_mu);
    for (const Reply& r : replies) out << r.line << '\n';
    out.flush();
  });
  worker.start();
  std::string line;
  bool shutdown_cmd = false;
  LineRead r;
  while (!shutdown_cmd &&
         (r = read_line_bounded(in, line, worker.max_line_bytes())) !=
             LineRead::kEof) {
    if (r == LineRead::kTooLong) {
      write(worker.too_long_line());
      continue;
    }
    const Dispatch d = worker.handle_line(kClientLocal, line);
    switch (d.kind) {
      case Dispatch::Kind::kReply:
        write(d.reply);
        break;
      case Dispatch::Kind::kStats:
        write(worker.stats_line());
        break;
      case Dispatch::Kind::kReload:
        // Synchronous on the reader thread: validate-then-swap never
        // touches the batch worker, so serving continues underneath.
        write(worker.reload_line(d.model, d.path));
        break;
      case Dispatch::Kind::kShutdown:
        shutdown_cmd = true;
        break;
      case Dispatch::Kind::kNone:
      case Dispatch::Kind::kAdmitted:
        break;
    }
  }
  worker.drain_and_stop();
  if (shutdown_cmd) write("{\"ok\":\"shutdown\"}");
  return worker.stats();
}

}  // namespace mixq::serve
