// mixq/serve/server.hpp
//
// The batch inference daemon behind `mixq serve`: one serving core
// (BatchWorker) -- a request queue, a micro-batcher (batcher.hpp)
// coalescing requests, and one batch worker thread executing each batch
// through the ModelRegistry across the shared pool's lanes, every lane
// running the pinned read-only ExecutionPlan through its own PlanArenas,
// so served results are bit-identical to a serial Executor::run_planned()
// for every lane count and every batch composition. Two front-ends drive
// the core: StreamServer (stdio / in-process streams, below) and
// EpollServer (TCP + unix sockets, serve/net/epoll_server.hpp).
//
// Protocol (newline-delimited JSON, one request/response per line; the
// parser and error taxonomy live in serve/protocol.hpp):
//   {"id": 7, "input": [f0, f1, ...]}   -> {"id":7,"predicted":3,"logits":[...]}
//   {"id": 7, "input": [...], "deadline_ms": 50}
//       -> the response, or {"error":...,"code":"timeout",...} if still
//          unexecuted 50 ms after arrival (the slot is never wasted)
//   {"cmd": "info"}                     -> {"info":{...model metadata...}}
//   {"cmd": "stats"}   -> {"stats":{"engine":{...},"models":{...}}}
//   {"cmd": "shutdown"}                 -> {"ok":"shutdown"}   (after drain)
// Malformed or invalid lines get {"error":...,"code":"malformed",...}
// and never kill the daemon. `input` length must equal the model's H*W*C.
// Responses to one client's valid requests are emitted in request order.
//
// Threading contract (see also Executor::plan() in runtime/executor.hpp):
//   * handle_line() is called from ONE front-end thread (the stdio reader
//     or the event loop); the batch worker runs on the core's own thread;
//     parallelism lives inside ModelRegistry::infer_*, which partitions
//     each batch across the pool's lanes.
//   * StreamServer::serve runs the protocol reader on the calling thread;
//     response writes are serialized through one mutex. On EOF or
//     {"cmd":"shutdown"} the queue is closed, already-accepted requests
//     are drained and answered, then serve() returns the final stats.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/executor.hpp"
#include "serve/batcher.hpp"
#include "serve/queue.hpp"

namespace mixq::serve {

class ModelRegistry;  // serve/registry.hpp: multi-model hot-swap registry
class FaultInjector;  // serve/net/fault_injector.hpp

/// The shared response formatting: `{"id":N,"predicted":K,"logits":[...]}`.
/// Both `mixq run --ndjson` and the daemon emit exactly this line, which is
/// what the CLI smoke test diffs byte-for-byte.
std::string format_result_line(std::int64_t id,
                               const runtime::QInferenceResult& r);

/// The matching request line: `{"id":N,"input":[...]}` (shortest
/// round-trip floats, so a served input parses back bit-exactly).
std::string format_request_line(std::int64_t id, const float* input,
                                std::int64_t numel);

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

/// Ring cap on a front-end's recorded latencies: the most recent 64K
/// samples, so percentiles track the current window and a stats snapshot
/// copies at most ~512 KiB under the registry lock.
inline constexpr std::size_t kMaxLatencySamples = 1u << 16;

struct ServeStats {
  std::int64_t requests{0};   ///< well-formed inference requests accepted
  std::int64_t responses{0};  ///< inference responses emitted
  std::int64_t errors{0};     ///< protocol errors answered
  std::int64_t timeouts{0};   ///< accepted requests answered `timeout`
  std::int64_t shed{0};       ///< requests/connections refused `overloaded`
  std::int64_t batches{0};    ///< micro-batches executed
  std::int64_t max_batch_fill{0};
  std::vector<double> latency_us;  ///< per-request enqueue -> response
  std::size_t latency_next{0};     ///< ring slot add_latency writes next

  /// Record one latency, overwriting the oldest past `cap` samples.
  void add_latency(double us, std::size_t cap);

  [[nodiscard]] double mean_batch_fill() const {
    return batches > 0 ? static_cast<double>(responses) /
                             static_cast<double>(batches)
                       : 0.0;
  }
  /// p in [0, 100]; 0 when no requests completed.
  [[nodiscard]] double latency_percentile_us(double p) const;
  [[nodiscard]] double latency_mean_us() const;

  /// One-line JSON object (the "engine" member of the stats reply).
  [[nodiscard]] std::string json() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string str() const;
};

/// One accounting event (ModelRegistry::record). Admission is recorded
/// BEFORE the queue push -- the worker may answer the request the instant
/// it is queued, and a snapshot must never show responses > requests --
/// so a refused push undoes it: kShed (queue full, `overloaded`) or
/// kRefused (queue closed, `shutting_down`, an error).
enum class ServeEvent : std::uint8_t {
  kAdmitted,
  kShed,
  kRefused,
  kTimeout,
  kError,     ///< an admitted request failed, or (no model) a protocol error
  kRejected,  ///< a connection answered `overloaded` at the door (no model)
};

// ---------------------------------------------------------------------------
// The serving core.
// ---------------------------------------------------------------------------

struct ServeConfig {
  int threads{1};                  ///< worker lanes (0 = hardware)
  int max_batch{8};
  std::int64_t max_wait_us{2000};
  /// Concurrent-connection cap of the socket front-end (EpollServer): the
  /// excess connection is answered with a structured `overloaded` error
  /// and closed instead of holding unbounded per-connection state.
  int max_conns{256};
  /// Deadline stamped on requests that carry no "deadline_ms" field
  /// (<= 0 = none). An accepted request still unexecuted past its
  /// deadline is answered with a `timeout` error, never silently dropped.
  std::int64_t default_deadline_ms{0};
};

/// One reply line bound for connection `client`.
struct Reply {
  int client{kClientLocal};
  std::string line;
};

/// What the front-end does with a line after BatchWorker::handle_line.
struct Dispatch {
  enum class Kind : std::uint8_t {
    kNone,      ///< blank line: nothing to send
    kReply,     ///< send `reply` back (errors, info, health, refusals)
    kAdmitted,  ///< queued: the reply arrives through the worker's sink
    kStats,     ///< send stats_line() (plus the front-end's own counters)
    kReload,    ///< answer with reload_line(model, path), off the hot path
    kShutdown,  ///< stop reading, drain, acknowledge
  };
  Dispatch(Kind k = Kind::kNone, std::string line = {})
      : kind(k), reply(std::move(line)) {}

  Kind kind;
  std::string reply;
  std::string model;  ///< kReload: "" = the default model
  std::string path;   ///< kReload: "" = the model's current backing path
};

/// The one serving core both front-ends drive. It owns the queue, the
/// batcher and the batch worker thread; the deadline gate, fault hooks,
/// mixed-model grouping and executor-failure handling of the batch loop;
/// line dispatch and admission; the info/stats/reload reply lines; and
/// the engine-wide ServeStats, recorded together with each model's row
/// through ModelRegistry::record under the registry's one lock.
class BatchWorker {
 public:
  /// Receives each executed micro-batch's replies on the worker thread
  /// (one call per batch, the vector may be consumed), then one final
  /// call with an empty vector when the worker exits.
  using Sink = std::function<void(std::vector<Reply>&)>;

  /// `registry` must outlive the core. `queue_depth` bounds admission
  /// (past it requests are shed `overloaded` with `retry_after_ms`);
  /// `injector` (may be null) arms the delay/execerr worker sites.
  BatchWorker(ModelRegistry& registry, const ServeConfig& cfg, Sink sink,
              FaultInjector* injector = nullptr,
              std::size_t queue_depth = std::numeric_limits<std::size_t>::max(),
              std::int64_t retry_after_ms = -1);
  /// Unwind safety: drains and joins a started worker.
  ~BatchWorker();
  BatchWorker(const BatchWorker&) = delete;
  BatchWorker& operator=(const BatchWorker&) = delete;

  void start();

  /// Parse and dispatch one protocol line from `client`: requests are
  /// resolved and admitted here; everything answerable at once comes back
  /// as a kReply line.
  Dispatch handle_line(int client, std::string_view line);

  /// The `malformed` reply for a line over max_line_bytes() (counted).
  std::string too_long_line();

  /// Validate-then-swap reload; returns the reply line (the new generation
  /// or a counted not_found / reload_failed error). Any thread.
  std::string reload_line(const std::string& model, const std::string& path);

  /// The {"cmd":"stats"} reply: {"stats":{"engine":{...}<conn_fields>,
  /// "models":{...}}}; socket front-ends splice their connection counters
  /// in through `conn_fields` (",\"name\":N,..."). Any thread.
  [[nodiscard]] std::string stats_line(std::string_view conn_fields = {}) const;

  /// Record an engine-wide event no model owns (e.g. kRejected).
  void record(ServeEvent e);

  /// Close the queue: admission stops, the worker drains every admitted
  /// request and exits. Idempotent, any thread.
  void close();
  /// close() and join the worker; from the front-end thread. Idempotent.
  void drain_and_stop();

  [[nodiscard]] ServeStats stats() const;
  /// Upper bound on an acceptable request line (the largest model's).
  [[nodiscard]] std::size_t max_line_bytes() const { return max_line_bytes_; }

 private:
  void run();
  void infer_grouped(const std::vector<Request>& batch);
  [[nodiscard]] std::string info_line() const;

  ModelRegistry& reg_;
  ServeConfig cfg_;
  Sink sink_;
  FaultInjector* injector_;
  std::size_t queue_depth_;
  std::int64_t retry_after_ms_;
  std::int64_t default_numel_;
  std::size_t max_line_bytes_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  ServeStats stats_;  ///< guarded by the registry's lock (record/snapshot)
  std::vector<runtime::QInferenceResult> results_;  ///< worker-thread only
  std::vector<std::size_t> group_;                   ///< worker-thread only
  std::thread worker_;
};

// ---------------------------------------------------------------------------
// Stream (stdio / in-process) front-end.
// ---------------------------------------------------------------------------

class StreamServer {
 public:
  /// Single-model compatibility form: wraps `net` in an owned one-entry
  /// registry named "default". The model is loaded/probed here, so the
  /// first served request pays no compilation latency.
  StreamServer(const runtime::QuantizedNet& net, ServeConfig cfg);

  /// Multi-model form: serves every model in `registry` (which must
  /// outlive the server). Requests route by their "model" field (absent =
  /// the registry's default); {"cmd":"reload"} hot-swaps a model and
  /// {"cmd":"health"} reports per-model readiness.
  StreamServer(ModelRegistry& registry, ServeConfig cfg);
  ~StreamServer();
  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Blocking serve loop: reads request lines from `in`, writes response
  /// lines to `out`, until EOF or {"cmd":"shutdown"}; drains in-flight
  /// requests before returning the final stats.
  ServeStats serve(std::istream& in, std::ostream& out);

 private:
  ModelRegistry* registry_{nullptr};
  std::unique_ptr<ModelRegistry> owned_;  ///< set by the net-based ctor
  ServeConfig cfg_;
};

}  // namespace mixq::serve
