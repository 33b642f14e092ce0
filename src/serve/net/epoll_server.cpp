#include "serve/net/epoll_server.hpp"

#ifndef _WIN32

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "serve/registry.hpp"

namespace mixq::serve {

// ---------------------------------------------------------------------------
// NetStats
// ---------------------------------------------------------------------------

std::string NetStats::json() const {
  std::string out = "{\"engine\":" + engine.json();
  out += ",\"accepted_conns\":" + std::to_string(accepted_conns);
  out += ",\"rejected_conns\":" + std::to_string(rejected_conns);
  out += ",\"idle_reaped\":" + std::to_string(idle_reaped);
  out += ",\"overflow_closed\":" + std::to_string(overflow_closed);
  out += ",\"dropped_conns\":" + std::to_string(dropped_conns);
  out += ",\"peak_conns\":" + std::to_string(peak_conns);
  out += "}";
  return out;
}

std::string NetStats::str() const {
  std::string s = engine.str();
  s += "connections: " + std::to_string(accepted_conns) + " accepted, " +
       std::to_string(rejected_conns) + " rejected, " +
       std::to_string(idle_reaped) + " idle-reaped, " +
       std::to_string(overflow_closed) + " overflow-closed, " +
       std::to_string(dropped_conns) + " dropped (peak " +
       std::to_string(peak_conns) + ")\n";
  return s;
}

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

namespace {

/// epoll user-data tags for the non-connection fds; connection ids start
/// above these.
constexpr std::uint64_t kTagTcpListen = 1;
constexpr std::uint64_t kTagUnixListen = 2;
constexpr std::uint64_t kTagMailbox = 3;
constexpr std::uint64_t kTagDrain = 4;
constexpr std::uint64_t kTagReloadSig = 5;
constexpr int kFirstConnId = 16;

/// Mailbox sentinels (Outbound::conn values below 0): thread-exit
/// notifications and results with no client to answer.
constexpr int kConnWorkerDone = -1;   ///< batch worker exited
constexpr int kConnControlDone = -2;  ///< reload control thread exited
constexpr int kConnLogOnly = -3;      ///< SIGHUP reload result -> the log

/// Ring cap on recorded latencies (matches the stdio engine).
constexpr std::size_t kMaxLatencySamples = 1u << 16;

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// The process-global drain target of the installed SIGTERM/SIGINT
/// handler (one serving daemon per process; the latest install wins).
std::atomic<int> g_drain_eventfd{-1};

/// Likewise for SIGHUP -> reload-all-models.
std::atomic<int> g_reload_eventfd{-1};

void signal_eventfd(const std::atomic<int>& target) {
  const int fd = target.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const std::uint64_t one = 1;
    // write() is async-signal-safe; the result is irrelevant (a full
    // eventfd counter still leaves it readable).
    [[maybe_unused]] const auto r = ::write(fd, &one, sizeof(one));
  }
}

void drain_signal_handler(int) { signal_eventfd(g_drain_eventfd); }
void reload_signal_handler(int) { signal_eventfd(g_reload_eventfd); }

}  // namespace

struct EpollServer::Impl {
  ModelRegistry* reg{nullptr};
  std::unique_ptr<ModelRegistry> owned_reg;  ///< set by the net-based ctor
  NetConfig cfg;
  FaultInjector injector;

  int epoll_fd{-1};
  int tcp_listen_fd{-1};
  int unix_listen_fd{-1};
  int mailbox_efd{-1};
  int drain_efd{-1};
  int reload_efd{-1};
  std::string unix_path_bound;
  bool ran{false};

  explicit Impl(const NetConfig& c) : cfg(c), injector(c.faults) {}

  ~Impl() {
    close_if_open(tcp_listen_fd);
    close_if_open(unix_listen_fd);
    close_if_open(mailbox_efd);
    close_if_open(drain_efd);
    close_if_open(reload_efd);
    close_if_open(epoll_fd);
    if (!unix_path_bound.empty()) ::unlink(unix_path_bound.c_str());
  }
};

// ---------------------------------------------------------------------------
// Construction: bind + listen so clients can connect before run().
// ---------------------------------------------------------------------------

EpollServer::EpollServer(const runtime::QuantizedNet& net, NetConfig cfg)
    : impl_(new Impl(cfg)) {
  try {
    impl_->owned_reg = std::make_unique<ModelRegistry>(cfg.engine.threads);
    impl_->owned_reg->add_model("default", net);
    impl_->reg = impl_->owned_reg.get();
    init_sockets();
  } catch (...) {
    delete impl_;
    throw;
  }
}

EpollServer::EpollServer(ModelRegistry& registry, NetConfig cfg)
    : impl_(new Impl(cfg)) {
  impl_->reg = &registry;
  try {
    init_sockets();
  } catch (...) {
    delete impl_;
    throw;
  }
}

void EpollServer::init_sockets() {
  const NetConfig& cfg = impl_->cfg;
  ::signal(SIGPIPE, SIG_IGN);  // a dead client must never kill the daemon

  if (cfg.tcp_port < 0 && cfg.unix_path.empty()) {
    throw std::runtime_error("epoll serve: no listener configured");
  }

  {
    impl_->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (impl_->epoll_fd < 0) {
      throw std::runtime_error("epoll serve: epoll_create1 failed");
    }
    impl_->mailbox_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    impl_->drain_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    impl_->reload_efd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (impl_->mailbox_efd < 0 || impl_->drain_efd < 0 ||
        impl_->reload_efd < 0) {
      throw std::runtime_error("epoll serve: eventfd failed");
    }

    const auto add_to_epoll = [&](int fd, std::uint64_t tag) {
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u64 = tag;
      if (::epoll_ctl(impl_->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        throw std::runtime_error("epoll serve: epoll_ctl(ADD) failed");
      }
    };
    add_to_epoll(impl_->mailbox_efd, kTagMailbox);
    add_to_epoll(impl_->drain_efd, kTagDrain);
    add_to_epoll(impl_->reload_efd, kTagReloadSig);

    if (cfg.tcp_port >= 0) {
      const int fd = ::socket(AF_INET,
                              SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("epoll serve: socket() failed");
      impl_->tcp_listen_fd = fd;
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<std::uint16_t>(cfg.tcp_port));
      if (::inet_pton(AF_INET, cfg.tcp_bind.c_str(), &addr.sin_addr) != 1) {
        throw std::runtime_error("epoll serve: bad bind address " +
                                 cfg.tcp_bind);
      }
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw std::runtime_error("epoll serve: cannot bind " + cfg.tcp_bind +
                                 ":" + std::to_string(cfg.tcp_port));
      }
      if (::listen(fd, 128) != 0) {
        throw std::runtime_error("epoll serve: listen() failed");
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        bound_tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
      }
      add_to_epoll(fd, kTagTcpListen);
    }

    if (!cfg.unix_path.empty()) {
      sockaddr_un addr{};
      if (cfg.unix_path.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("epoll serve: socket path too long: " +
                                 cfg.unix_path);
      }
      const int fd = ::socket(AF_UNIX,
                              SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (fd < 0) throw std::runtime_error("epoll serve: socket() failed");
      impl_->unix_listen_fd = fd;
      addr.sun_family = AF_UNIX;
      cfg.unix_path.copy(addr.sun_path, cfg.unix_path.size());
      ::unlink(cfg.unix_path.c_str());
      if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        throw std::runtime_error("epoll serve: cannot bind " + cfg.unix_path);
      }
      impl_->unix_path_bound = cfg.unix_path;
      if (::listen(fd, 128) != 0) {
        throw std::runtime_error("epoll serve: listen() failed");
      }
      add_to_epoll(fd, kTagUnixListen);
    }
  }
}

EpollServer::~EpollServer() { delete impl_; }

void EpollServer::request_drain() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto r =
      ::write(impl_->drain_efd, &one, sizeof(one));
}

void EpollServer::install_signal_handlers() {
  g_drain_eventfd.store(impl_->drain_efd, std::memory_order_relaxed);
  g_reload_eventfd.store(impl_->reload_efd, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = drain_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sh{};
  sh.sa_handler = reload_signal_handler;
  sigemptyset(&sh.sa_mask);
  sh.sa_flags = SA_RESTART;
  ::sigaction(SIGHUP, &sh, nullptr);
}

// ---------------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------------

NetStats EpollServer::run(std::ostream* log) {
  Impl& im = *impl_;
  if (im.ran) {
    throw std::runtime_error("epoll serve: run() is one-shot");
  }
  im.ran = true;
  const NetConfig& cfg = im.cfg;

  // -- engine fabric -------------------------------------------------------
  ModelRegistry& reg = *im.reg;
  reg.set_fault_injector(&im.injector);  // arms the rtrunc/rexecerr/rdelay sites
  RequestQueue queue;
  MicroBatcher batcher(queue,
                       BatcherConfig{cfg.engine.max_batch,
                                     cfg.engine.max_wait_us});
  const std::int64_t input_numel = reg.default_model()->input_numel();
  const std::size_t max_line_bytes =
      max_request_line_bytes(reg.max_input_numel());

  std::mutex stats_mu;
  NetStats stats;
  std::size_t latency_ring_next = 0;

  // -- worker -> loop response mailbox -------------------------------------
  struct Outbound {
    int conn{-1};                   ///< -1 = worker-done sentinel
    std::string line;
    bool completes_request{false};  ///< decrements the conn's in-flight
  };
  std::mutex mailbox_mu;
  std::vector<Outbound> mailbox;
  const auto post_batch = [&](std::vector<Outbound>& items) {
    {
      std::lock_guard<std::mutex> lock(mailbox_mu);
      for (auto& it : items) mailbox.push_back(std::move(it));
    }
    items.clear();
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto r =
        ::write(im.mailbox_efd, &one, sizeof(one));
  };

  // -- batch worker ---------------------------------------------------------
  // Identical contract to the stdio engine's worker: deadline-expired
  // requests are answered `timeout` BEFORE inference, injected executor
  // faults become retryable `internal` errors, and everything else runs
  // through InferenceSession bit-exactly.
  std::thread worker([&] {
    std::vector<Request> batch;
    std::vector<Request> live;
    std::vector<runtime::QInferenceResult> results;
    std::vector<std::size_t> group;
    std::vector<Outbound> out;
    while (batcher.next_batch(batch)) {
      im.injector.maybe_delay_flush();
      const auto now = Clock::now();
      live.clear();
      std::int64_t expired = 0;
      std::int64_t injected = 0;
      for (auto& r : batch) {
        if (r.expired(now)) {
          out.push_back({r.client,
                         format_error_line(
                             ErrCode::kTimeout,
                             "deadline expired before execution", &r.id),
                         true});
          reg.record_timeout(*r.route);
          ++expired;
        } else if (im.injector.should_fail_exec()) {
          out.push_back({r.client,
                         format_error_line(
                             ErrCode::kInternal,
                             "injected transient executor fault", &r.id),
                         true});
          reg.record_error(*r.route);
          ++injected;
        } else {
          live.push_back(std::move(r));
        }
      }
      if (!live.empty()) {
        try {
          // A micro-batch may mix models (and generations mid-reload):
          // execute group by group against each request's PINNED route,
          // results staying in admission order.
          results.clear();
          results.resize(live.size());
          std::vector<const ServableModel*> ran;
          for (std::size_t i = 0; i < live.size(); ++i) {
            const ServableModel* m = live[i].route.get();
            if (std::find(ran.begin(), ran.end(), m) != ran.end()) continue;
            ran.push_back(m);
            group.clear();
            for (std::size_t j = i; j < live.size(); ++j) {
              if (live[j].route.get() == m) group.push_back(j);
            }
            reg.infer_indices(*m, live, group, results);
          }
        } catch (const std::exception& e) {
          // A real executor failure: answer every request retryably
          // rather than taking the daemon down mid-drain.
          for (const Request& r : live) {
            out.push_back({r.client,
                           format_error_line(ErrCode::kInternal, e.what(),
                                             &r.id),
                           true});
            reg.record_error(*r.route);
            ++injected;
          }
          live.clear();
        }
      }
      const auto done = Clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        out.push_back(
            {live[i].client, format_result_line(live[i].id, results[i]),
             true});
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        stats.engine.timeouts += expired;
        stats.engine.errors += injected;
        if (!live.empty()) {
          ++stats.engine.batches;
          stats.engine.responses += static_cast<std::int64_t>(live.size());
          stats.engine.max_batch_fill =
              std::max(stats.engine.max_batch_fill,
                       static_cast<std::int64_t>(live.size()));
          for (const Request& r : live) {
            const double us =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    done - r.enqueued)
                    .count() /
                1e3;
            reg.record_response(*r.route, us);
            if (stats.engine.latency_us.size() < kMaxLatencySamples) {
              stats.engine.latency_us.push_back(us);
            } else {
              stats.engine.latency_us[latency_ring_next] = us;
              latency_ring_next = (latency_ring_next + 1) % kMaxLatencySamples;
            }
          }
        }
      }
      post_batch(out);
    }
    std::vector<Outbound> done_sentinel;
    done_sentinel.push_back({kConnWorkerDone, std::string(), false});
    post_batch(done_sentinel);
  });

  // -- reload control thread ------------------------------------------------
  // {"cmd":"reload"} and SIGHUP run validate-then-swap OFF the event loop:
  // loading + plan compilation + the probe inference of a replacement
  // image can take longer than any client is willing to stall, and the
  // loop must keep serving both models throughout. Jobs are answered back
  // through the same mailbox as batch results (a reload holds one
  // in-flight slot on its connection, so graceful drain waits for it).
  struct CtlJob {
    int conn{kConnLogOnly};
    std::string model;
    std::string path;
  };
  std::mutex ctl_mu;
  std::condition_variable ctl_cv;
  std::deque<CtlJob> ctl_jobs;
  bool ctl_stop = false;
  const auto submit_reload = [&](int conn, std::string model,
                                 std::string path) {
    {
      std::lock_guard<std::mutex> lock(ctl_mu);
      ctl_jobs.push_back({conn, std::move(model), std::move(path)});
    }
    ctl_cv.notify_one();
  };
  std::thread control([&] {
    while (true) {
      CtlJob job;
      {
        std::unique_lock<std::mutex> lock(ctl_mu);
        ctl_cv.wait(lock, [&] { return ctl_stop || !ctl_jobs.empty(); });
        if (ctl_jobs.empty()) break;  // stop requested, queue drained
        job = std::move(ctl_jobs.front());
        ctl_jobs.pop_front();
      }
      const ReloadResult rr = reg.reload(job.model, job.path);
      std::string line;
      if (rr.ok) {
        line = "{\"ok\":\"reload\",\"model\":";
        append_json_string(line, rr.model);
        line += ",\"generation\":" + std::to_string(rr.generation);
        line += ",\"format_version\":" + std::to_string(rr.format_version);
        line += "}";
      } else {
        line = format_error_line(
            rr.not_found ? ErrCode::kNotFound : ErrCode::kReloadFailed,
            rr.error, nullptr);
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.engine.errors;
      }
      std::vector<Outbound> out;
      out.push_back({job.conn, std::move(line), job.conn >= 0});
      post_batch(out);
    }
    std::vector<Outbound> done_sentinel;
    done_sentinel.push_back({kConnControlDone, std::string(), false});
    post_batch(done_sentinel);
  });

  // -- connection table -----------------------------------------------------
  struct Conn {
    int fd{-1};
    int id{-1};
    bool unix_domain{false};
    enum class State { kReading, kDraining } state{State::kReading};
    std::string rdbuf;
    std::size_t rd_off{0};
    /// rdbuf[rd_off, scan_off) holds no '\n': a line arriving over many
    /// recv() chunks is searched once, not once per chunk.
    std::size_t scan_off{0};
    std::deque<std::string> outbox;
    std::size_t outbox_bytes{0};
    std::size_t wr_off{0};  ///< sent prefix of outbox.front()
    int in_flight{0};
    bool want_write{false};
    bool reading_armed{true};
    Clock::time_point last_active{Clock::now()};
  };
  std::unordered_map<int, Conn> conns;
  int next_conn_id = kFirstConnId;
  bool draining = false;
  bool worker_done = false;
  bool control_done = false;
  bool drain_acked = false;
  int drain_ack_conn = -1;
  Clock::time_point drain_deadline = Clock::time_point::max();

  const auto arm = [&](Conn& c) {
    epoll_event ev{};
    ev.events = (c.reading_armed ? (EPOLLIN | EPOLLRDHUP) : 0u) |
                (c.want_write ? EPOLLOUT : 0u);
    ev.data.u64 = static_cast<std::uint64_t>(c.id);
    ::epoll_ctl(im.epoll_fd, EPOLL_CTL_MOD, c.fd, &ev);
  };

  const auto close_conn = [&](int id) {
    const auto it = conns.find(id);
    if (it == conns.end()) return;
    ::close(it->second.fd);  // implicitly removes it from the epoll set
    conns.erase(it);
  };

  // Flush as much outbox as the socket (and the fault injector) accepts.
  // Returns false when the connection died underneath the write.
  const auto flush_conn = [&](Conn& c) -> bool {
    while (!c.outbox.empty()) {
      const std::string& front = c.outbox.front();
      const std::size_t want = front.size() - c.wr_off;
      const std::size_t admissible = im.injector.admissible_write(want);
      const auto n = ::send(c.fd, front.data() + c.wr_off, admissible,
                            MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          c.want_write = true;
          arm(c);
          return true;
        }
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.dropped_conns;
        return false;  // EPIPE / ECONNRESET: peer is gone
      }
      c.wr_off += static_cast<std::size_t>(n);
      c.outbox_bytes -= static_cast<std::size_t>(n);
      if (c.wr_off == front.size()) {
        c.outbox.pop_front();
        c.wr_off = 0;
      } else if (static_cast<std::size_t>(n) < want) {
        // Truncated (by the injector or the kernel): resume via EPOLLOUT
        // on a later wakeup -- the remainder is NOT lost, only delayed.
        c.want_write = true;
        arm(c);
        return true;
      }
    }
    if (c.want_write) {
      c.want_write = false;
      arm(c);
    }
    return true;
  };

  /// True when a draining connection has answered everything and owes the
  /// client no more bytes.
  const auto drained_idle = [&](const Conn& c) {
    return c.state == Conn::State::kDraining && c.outbox.empty() &&
           c.in_flight == 0 && worker_done && control_done;
  };

  // Queue one response line on a connection (bounded outbox -> a slow
  // client is disconnected, never allowed to hold server memory hostage),
  // then try to flush immediately. Returns false when the connection was
  // closed by the attempt.
  const auto queue_line = [&](Conn& c, const std::string& line) -> bool {
    if (c.outbox_bytes + line.size() + 1 > cfg.max_outbox_bytes) {
      {
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.overflow_closed;
      }
      close_conn(c.id);
      return false;
    }
    std::string wire = line;
    wire.push_back('\n');
    c.outbox_bytes += wire.size();
    c.outbox.push_back(std::move(wire));
    if (!flush_conn(c)) {
      close_conn(c.id);
      return false;
    }
    if (drained_idle(c)) {
      close_conn(c.id);
      return false;
    }
    return true;
  };

  const auto info_line = [&]() {
    // Legacy top-level fields describe the DEFAULT model; "models" carries
    // per-model metadata (format version, codec summary, generation).
    const std::shared_ptr<const ServableModel> def = reg.default_model();
    const runtime::QuantizedNet& net = def->net;
    const Shape& in = net.layers.front().in_shape;
    std::string line = "{\"info\":{\"layers\":";
    line += std::to_string(net.layers.size());
    line += ",\"input\":[" + std::to_string(in.h) + "," +
            std::to_string(in.w) + "," + std::to_string(in.c) + "]";
    line += ",\"classes\":" + std::to_string(net.layers.back().out_shape.c);
    line += ",\"ro_bytes\":" + std::to_string(net.ro_bytes());
    line += ",\"rw_peak_bytes\":" + std::to_string(net.rw_peak_bytes());
    line += ",\"lanes\":" + std::to_string(reg.lanes());
    line += ",\"format_version\":" + std::to_string(def->image.version);
    line += ",\"default\":";
    append_json_string(line, reg.default_name());
    line += ",\"models\":" + reg.models_info_json();
    line += "}}";
    return line;
  };

  // Graceful drain: stop accepting, stop reading, answer what was
  // admitted, flush, close -- bounded by drain_timeout_ms.
  const auto start_drain = [&](int ack_conn) {
    if (draining) return;
    draining = true;
    drain_ack_conn = ack_conn;
    drain_deadline =
        Clock::now() + std::chrono::milliseconds(cfg.drain_timeout_ms);
    if (im.tcp_listen_fd >= 0) close_if_open(im.tcp_listen_fd);
    if (im.unix_listen_fd >= 0) close_if_open(im.unix_listen_fd);
    for (auto& [id, c] : conns) {
      c.state = Conn::State::kDraining;
      if (c.reading_armed) {
        c.reading_armed = false;
        arm(c);
      }
    }
    queue.close();  // the worker drains every admitted request, then exits
    {
      // The control thread answers every already-submitted reload, then
      // exits; new reloads are refused at admission once draining is set.
      std::lock_guard<std::mutex> lock(ctl_mu);
      ctl_stop = true;
    }
    ctl_cv.notify_one();
  };

  // One parsed protocol line from connection `c`. Returns false when the
  // connection was closed while answering.
  const auto handle_line = [&](Conn& c, std::string_view line) -> bool {
    ParsedLine p = parse_protocol_line(line, input_numel, max_line_bytes,
                                       cfg.engine.default_deadline_ms,
                                       &reg.directory());
    switch (p.kind) {
      case ParsedLine::Kind::kBlank:
        return true;
      case ParsedLine::Kind::kError: {
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++stats.engine.errors;
        }
        return queue_line(c, p.error_line());
      }
      case ParsedLine::Kind::kStats: {
        NetStats snapshot;
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          snapshot = stats;
        }
        // The engine-wide object plus the per-model breakdown.
        std::string s = snapshot.json();
        s.pop_back();
        s += ",\"models\":" + reg.stats_json() + "}";
        return queue_line(c, "{\"stats\":" + s + "}");
      }
      case ParsedLine::Kind::kInfo:
        return queue_line(c, info_line());
      case ParsedLine::Kind::kHealth:
        return queue_line(c, "{\"health\":" + reg.health_json() + "}");
      case ParsedLine::Kind::kReload: {
        if (draining) {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++stats.engine.errors;
          return queue_line(c,
                            format_error_line(ErrCode::kShuttingDown,
                                              "server is draining", nullptr));
        }
        // Handed to the control thread; the response arrives through the
        // mailbox. The in-flight slot makes graceful drain wait for it.
        ++c.in_flight;
        submit_reload(c.id, std::move(p.reload_model),
                      std::move(p.reload_path));
        return true;
      }
      case ParsedLine::Kind::kShutdown:
        start_drain(c.id);
        return true;
      case ParsedLine::Kind::kRequest:
        break;
    }
    Request r = std::move(p.request);
    const std::int64_t rid = r.id;
    r.client = c.id;
    // Pin the CURRENT generation at admission: the batch worker executes
    // against exactly this plan even if a reload swaps the slot later.
    r.route = reg.resolve(r.model);
    if (r.route == nullptr) {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.engine.errors;
      return queue_line(c, format_error_line(ErrCode::kNotFound,
                                             "unknown model \"" + r.model +
                                                 "\"",
                                             &rid));
    }
    if (draining) {
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.engine.errors;
      return queue_line(c, format_error_line(ErrCode::kShuttingDown,
                                             "server is draining", &rid));
    }
    reg.record_admitted(*r.route);
    const std::shared_ptr<const ServableModel> route = r.route;
    switch (queue.push_bounded(std::move(r), cfg.queue_depth)) {
      case PushResult::kOk: {
        ++c.in_flight;
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.engine.requests;
        return true;
      }
      case PushResult::kOverflow: {
        reg.record_shed(*route);
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++stats.engine.shed;
        }
        // Load shedding: a bounded queue answers `overloaded` with a
        // backoff hint instead of stalling the accept path.
        return queue_line(
            c, format_error_line(
                   ErrCode::kOverloaded,
                   "queue depth " + std::to_string(cfg.queue_depth) +
                       " reached",
                   &rid, cfg.retry_after_ms));
      }
      case PushResult::kClosed: {
        reg.record_shed(*route);
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.engine.errors;
        return queue_line(c, format_error_line(ErrCode::kShuttingDown,
                                               "server is draining", &rid));
      }
    }
    return true;
  };

  // Split buffered bytes into lines; enforce the line-length bound
  // streaming-style (framing is lost past it, so the connection drains).
  const auto process_rdbuf = [&](Conn& c) -> bool {
    while (true) {
      const std::size_t nl =
          c.rdbuf.find('\n', std::max(c.rd_off, c.scan_off));
      if (nl == std::string::npos) {
        c.scan_off = c.rdbuf.size();
        if (c.rdbuf.size() - c.rd_off > max_line_bytes) {
          {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.engine.errors;
          }
          if (!queue_line(c, format_error_line(ErrCode::kMalformed,
                                               "request line too long"))) {
            return false;
          }
          // Framing lost: answer what is in flight, then close.
          c.state = Conn::State::kDraining;
          c.reading_armed = false;
          arm(c);
          if (drained_idle(c)) {
            close_conn(c.id);
            return false;
          }
          return true;
        }
        if (c.rd_off > 0) {
          c.rdbuf.erase(0, c.rd_off);
          c.scan_off -= c.rd_off;
          c.rd_off = 0;
        }
        return true;
      }
      const std::string_view line(c.rdbuf.data() + c.rd_off, nl - c.rd_off);
      c.rd_off = nl + 1;
      if (!handle_line(c, line)) return false;
      const auto it = conns.find(c.id);
      if (it == conns.end()) return false;  // closed while answering
      if (!c.reading_armed) {
        // Drain started mid-buffer: whatever the client pipelined after
        // the shutdown/fatal line is intentionally not processed.
        return true;
      }
    }
  };

  const auto accept_loop = [&](int listen_fd, bool unix_domain) {
    while (listen_fd >= 0) {
      const int fd = ::accept4(listen_fd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN, EMFILE, ...: nothing more to take this round
      }
      if (cfg.engine.max_conns > 0 &&
          conns.size() >= static_cast<std::size_t>(cfg.engine.max_conns)) {
        // Admission control at the door: answer and close; never a
        // connection object, never a reader, never unbounded state.
        const std::string line =
            format_error_line(ErrCode::kOverloaded,
                              "connection limit " +
                                  std::to_string(cfg.engine.max_conns) +
                                  " reached",
                              nullptr, cfg.retry_after_ms) +
            "\n";
        [[maybe_unused]] const auto r =
            ::send(fd, line.data(), line.size(), MSG_NOSIGNAL);
        ::close(fd);
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.rejected_conns;
        ++stats.engine.shed;
        continue;
      }
      if (!unix_domain) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      if (cfg.sndbuf_bytes > 0) {
        ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &cfg.sndbuf_bytes,
                     sizeof(cfg.sndbuf_bytes));
      }
      const int id = next_conn_id++;
      Conn c;
      c.fd = fd;
      c.id = id;
      c.unix_domain = unix_domain;
      c.last_active = Clock::now();
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLRDHUP;
      ev.data.u64 = static_cast<std::uint64_t>(id);
      if (::epoll_ctl(im.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
        ::close(fd);
        continue;
      }
      conns.emplace(id, std::move(c));
      std::lock_guard<std::mutex> lock(stats_mu);
      ++stats.accepted_conns;
      stats.peak_conns = std::max(
          stats.peak_conns, static_cast<std::int64_t>(conns.size()));
    }
  };

  const auto drain_eventfd = [&](int fd) {
    std::uint64_t count = 0;
    while (::read(fd, &count, sizeof(count)) > 0) {
    }
  };

  if (log != nullptr) {
    if (bound_tcp_port_ >= 0) {
      *log << "mixq serve: listening on tcp " << cfg.tcp_bind << ":"
           << bound_tcp_port_ << "\n";
    }
    if (!im.unix_path_bound.empty()) {
      *log << "mixq serve: listening on unix " << im.unix_path_bound << "\n";
    }
    log->flush();
  }

  // -- the loop -------------------------------------------------------------
  std::vector<epoll_event> events(128);
  std::vector<int> scratch_ids;
  while (true) {
    // Exit: drain finished (worker + control done, every connection
    // flushed+closed) or the drain deadline passed (wedged clients are cut
    // loose).
    if (draining && worker_done && control_done) {
      if (!drain_acked && drain_ack_conn >= 0) {
        drain_acked = true;
        const auto it = conns.find(drain_ack_conn);
        if (it != conns.end()) queue_line(it->second, "{\"ok\":\"shutdown\"}");
      }
      // Close every connection that owes nothing more.
      scratch_ids.clear();
      for (auto& [id, c] : conns) {
        if (c.outbox.empty() && c.in_flight == 0) scratch_ids.push_back(id);
      }
      for (const int id : scratch_ids) close_conn(id);
      if (conns.empty()) break;
      if (Clock::now() >= drain_deadline) {
        scratch_ids.clear();
        for (auto& [id, c] : conns) scratch_ids.push_back(id);
        for (const int id : scratch_ids) close_conn(id);
        break;
      }
    }

    // Timeout: the nearest of idle-reap deadlines and the drain deadline,
    // coarsened to >= 10 ms so a storm of deadlines cannot busy-spin.
    int timeout_ms = -1;
    {
      Clock::time_point next = Clock::time_point::max();
      if (cfg.idle_timeout_ms > 0) {
        for (const auto& [id, c] : conns) {
          if (c.state == Conn::State::kReading && c.in_flight == 0 &&
              c.outbox.empty()) {
            next = std::min(next, c.last_active + std::chrono::milliseconds(
                                                      cfg.idle_timeout_ms));
          }
        }
      }
      if (draining) next = std::min(next, drain_deadline);
      if (next != Clock::time_point::max()) {
        const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                               next - Clock::now())
                               .count();
        timeout_ms = static_cast<int>(std::clamp<long long>(until, 10, 60'000));
      }
    }

    const int n = ::epoll_wait(im.epoll_fd, events.data(),
                               static_cast<int>(events.size()), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      start_drain(-1);  // unrecoverable: drain what we can and exit
      continue;
    }

    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const std::uint32_t ev = events[i].events;
      if (tag == kTagTcpListen) {
        accept_loop(im.tcp_listen_fd, /*unix_domain=*/false);
        continue;
      }
      if (tag == kTagUnixListen) {
        accept_loop(im.unix_listen_fd, /*unix_domain=*/true);
        continue;
      }
      if (tag == kTagDrain) {
        drain_eventfd(im.drain_efd);
        start_drain(-1);
        continue;
      }
      if (tag == kTagReloadSig) {
        drain_eventfd(im.reload_efd);
        // SIGHUP: re-read every model from its current backing path (the
        // "config changed under me" daemon contract). Ignored mid-drain.
        if (!draining) {
          for (const std::string& name : reg.names()) {
            submit_reload(kConnLogOnly, name, std::string());
          }
        }
        continue;
      }
      if (tag == kTagMailbox) {
        drain_eventfd(im.mailbox_efd);
        std::vector<Outbound> batch;
        {
          std::lock_guard<std::mutex> lock(mailbox_mu);
          batch.swap(mailbox);
        }
        for (Outbound& o : batch) {
          if (o.conn == kConnWorkerDone) {
            worker_done = true;
            continue;
          }
          if (o.conn == kConnControlDone) {
            control_done = true;
            continue;
          }
          if (o.conn == kConnLogOnly) {
            // A SIGHUP-initiated reload has no client; its outcome goes to
            // the operator log.
            if (log != nullptr) {
              *log << "mixq serve: reload " << o.line << "\n";
              log->flush();
            }
            continue;
          }
          const auto it = conns.find(o.conn);
          if (it == conns.end()) continue;  // client went away; dropped
          Conn& c = it->second;
          if (o.completes_request) --c.in_flight;
          if (!queue_line(c, o.line)) continue;  // closed while flushing
        }
        continue;
      }

      // -- connection event ------------------------------------------------
      const auto it = conns.find(static_cast<int>(tag));
      if (it == conns.end()) continue;  // already closed this round
      Conn& c = it->second;
      c.last_active = Clock::now();

      if ((ev & EPOLLOUT) != 0) {
        if (!flush_conn(c)) {
          close_conn(c.id);
          continue;
        }
        if (drained_idle(c)) {
          close_conn(c.id);
          continue;
        }
      }

      if ((ev & EPOLLIN) != 0 && c.reading_armed) {
        if (im.injector.should_drop_conn()) {
          // Injected mid-frame drop: the client sees a reset; the server
          // must shed all per-connection state without leaking.
          {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.dropped_conns;
          }
          close_conn(c.id);
          continue;
        }
        bool peer_closed = false;
        bool conn_dead = false;
        char buf[16384];
        while (true) {
          const auto r = ::recv(c.fd, buf, sizeof(buf), 0);
          if (r < 0) {
            if (errno == EINTR) continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            conn_dead = true;
            break;
          }
          if (r == 0) {
            peer_closed = true;
            break;
          }
          c.rdbuf.append(buf, static_cast<std::size_t>(r));
          if (!process_rdbuf(c)) {
            conn_dead = true;
            break;
          }
          if (conns.find(static_cast<int>(tag)) == conns.end()) {
            conn_dead = true;
            break;
          }
          if (!c.reading_armed) break;  // drain started mid-read
        }
        if (conn_dead) continue;  // close_conn already ran (or will not
                                  // find the id again)
        if (peer_closed) {
          if (c.in_flight > 0) {
            std::lock_guard<std::mutex> lock(stats_mu);
            ++stats.dropped_conns;
          }
          close_conn(c.id);
          continue;
        }
      } else if ((ev & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
                 c.outbox.empty()) {
        if (c.in_flight > 0) {
          std::lock_guard<std::mutex> lock(stats_mu);
          ++stats.dropped_conns;
        }
        close_conn(c.id);
        continue;
      }
    }

    // Idle reaping: connections with nothing queued, nothing owed, and no
    // traffic inside the window are closed (a leaked client socket must
    // not pin server state forever).
    if (cfg.idle_timeout_ms > 0 && !draining) {
      const auto now = Clock::now();
      scratch_ids.clear();
      for (const auto& [id, c] : conns) {
        if (c.state == Conn::State::kReading && c.in_flight == 0 &&
            c.outbox.empty() &&
            now - c.last_active >=
                std::chrono::milliseconds(cfg.idle_timeout_ms)) {
          scratch_ids.push_back(id);
        }
      }
      for (const int id : scratch_ids) {
        close_conn(id);
        std::lock_guard<std::mutex> lock(stats_mu);
        ++stats.idle_reaped;
      }
    }
  }

  // -- teardown -------------------------------------------------------------
  queue.close();  // idempotent; covers abnormal exits from the loop
  worker.join();
  {
    std::lock_guard<std::mutex> lock(ctl_mu);
    ctl_stop = true;
  }
  ctl_cv.notify_one();
  control.join();
  for (auto& [id, c] : conns) ::close(c.fd);
  conns.clear();
  close_if_open(im.tcp_listen_fd);
  close_if_open(im.unix_listen_fd);
  if (!im.unix_path_bound.empty()) {
    ::unlink(im.unix_path_bound.c_str());
    im.unix_path_bound.clear();
  }

  NetStats out;
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    out = stats;
  }
  if (log != nullptr) {
    *log << "mixq serve: drained (" << out.engine.responses
         << " responses, " << out.engine.timeouts << " timeouts, "
         << out.engine.shed << " shed)\n";
  }
  return out;
}

}  // namespace mixq::serve

#endif  // !_WIN32
