#include "client.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "hostcfg.hpp"
#include "serve/json.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

int tcp_connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) sys_fail("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    sys_fail("connect to 127.0.0.1:" + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Room for whole request lines: the generator hands a request to the
  // kernel in one send instead of waking for each 16 KB the daemon drains.
  int sndbuf = 1 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
  return fd;
}

bool starts_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

timespec to_timespec(std::int64_t ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(ns % 1'000'000'000);
  return ts;
}

}  // namespace

// ---------------------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------------------

Daemon::Daemon(const std::vector<std::string>& argv,
               const std::string& log_path, int cpu)
    : log_path_(log_path) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  int rc = 0;
  {
    const ScopedPin pin(cpu);  // the child inherits the spawning thread's CPU
    rc = posix_spawn(&pid_, args[0], &fa, nullptr, args.data(), environ);
  }
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    sys_fail("spawn " + argv[0]);
  }

  // The daemon logs "mixq serve: listening on tcp 127.0.0.1:PORT" once its
  // event loop runs; poll the log for it.
  const std::string key = "listening on tcp ";
  const std::int64_t deadline = now_ns() + 60'000'000'000LL;
  while (true) {
    const std::string log = read_file(log_path_);
    const std::size_t at = log.find(key);
    if (at != std::string::npos) {
      const std::size_t eol = log.find('\n', at);
      if (eol != std::string::npos) {
        const std::size_t colon = log.rfind(':', eol);
        port_ = std::stoi(log.substr(colon + 1, eol - colon - 1));
        return;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("mixq serve exited during startup:\n" + log);
    }
    if (now_ns() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw std::runtime_error("mixq serve did not start within 60 s:\n" +
                               log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

double Daemon::cpu_s() const {
  const std::string stat = read_file("/proc/" + std::to_string(pid_) + "/stat");
  const std::size_t rp = stat.rfind(')');
  if (rp == std::string::npos) throw std::runtime_error("bad /proc stat");
  std::istringstream ss(stat.substr(rp + 2));
  std::string field;
  double ticks = 0;
  // Fields after "(comm)" start at field 3; utime and stime are 14 and 15.
  for (int i = 3; i <= 15 && ss >> field; ++i) {
    if (i >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double Daemon::peak_rss_mb() const { return perfbench::peak_rss_mb(pid_); }

void Daemon::shutdown() {
  {
    LineConn c(port_);
    const std::string r = c.roundtrip("{\"cmd\":\"shutdown\"}");
    if (r != "{\"ok\":\"shutdown\"}") {
      throw std::runtime_error("unexpected shutdown reply: " + r);
    }
  }
  const std::int64_t deadline = now_ns() + 20'000'000'000LL;
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) != pid_) {
    if (now_ns() > deadline) {
      throw std::runtime_error("mixq serve did not exit after shutdown");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("mixq serve exited abnormally:\n" +
                             read_file(log_path_));
  }
}

// ---------------------------------------------------------------------------
// LineConn
// ---------------------------------------------------------------------------

LineConn::LineConn(int port) : fd_(tcp_connect(port)) {}

LineConn::~LineConn() {
  if (fd_ >= 0) ::close(fd_);
}

std::string LineConn::roundtrip(const std::string& line, double timeout_s) {
  const std::string msg = line + "\n";
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = ::send(fd_, msg.data() + off, msg.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("send");
    }
    off += static_cast<std::size_t>(n);
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  char buf[1 << 16];
  while (true) {
    const std::size_t nl = rbuf_.find('\n');
    if (nl != std::string::npos) {
      std::string out = rbuf_.substr(0, nl);
      rbuf_.erase(0, nl + 1);
      return out;
    }
    const std::int64_t left = deadline - now_ns();
    if (left <= 0) throw std::runtime_error("no reply to " + line);
    pollfd p{fd_, POLLIN, 0};
    const timespec ts = to_timespec(left);
    if (::ppoll(&p, 1, &ts, nullptr) < 0 && errno != EINTR) sys_fail("ppoll");
    if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      sys_fail("recv");
    }
    rbuf_.append(buf, static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Load generator
// ---------------------------------------------------------------------------

namespace {

struct Pending {
  int sample{0};
  std::int64_t due_ns{0};  ///< scheduled (open) or actual (closed) send time
  int conn{0};
};

struct Conn {
  int fd{-1};
  bool dead{false};
  std::string out;
  std::size_t out_off{0};
  std::string in;

  Conn() = default;
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd, out.data() + out_off, out.size() - out_off,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
        break;
      }
      dead = true;
      return;
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }

  /// Append everything readable to `in`; false once the peer is gone.
  bool fill(char* buf, std::size_t cap) {
    while (true) {
      const ssize_t n = ::recv(fd, buf, cap, MSG_DONTWAIT);
      if (n > 0) {
        in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }
};

/// How long a phase waits for outstanding responses after its window.
constexpr double kDrainS = 10.0;

std::int64_t leading_id(std::string_view line) {
  constexpr std::string_view kPrefix = "{\"id\":";
  std::int64_t id = -1;
  std::from_chars(line.data() + kPrefix.size(), line.data() + line.size(), id);
  return id;
}

}  // namespace

SampleStream::SampleStream(std::uint64_t seed, std::size_t pool_size)
    : state_(seed * 0x9E3779B97F4A7C15ULL + 17), pool_size_(pool_size) {
  if (pool_size_ == 0) throw std::invalid_argument("SampleStream: empty pool");
}

int SampleStream::next() {
  // splitmix64: a fixed, library-independent stream per seed.
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<int>((z ^ (z >> 31)) % pool_size_);
}

PhaseResult run_phase(Daemon& d, const LoadSpec& spec, std::int64_t& next_id) {
  PhaseResult res;
  const bool open = spec.mode == LoadSpec::Mode::kOpen;
  const Fixture& f = *spec.model;

  std::vector<Conn> conns(static_cast<std::size_t>(spec.conns));
  for (Conn& c : conns) c.fd = tcp_connect(d.port());

  SampleStream samples(spec.seed, f.inputs.size());
  const std::vector<std::int64_t> schedule =
      open ? poisson_schedule(spec.seed, spec.rate_per_s, spec.seconds)
           : std::vector<std::int64_t>{};

  std::unordered_map<std::int64_t, Pending> pending;
  pending.reserve(open ? schedule.size() * 2 : 1024);

  const auto issue = [&](int c, std::int64_t due) {
    Pending p;
    p.sample = samples.next();
    p.due_ns = due;
    p.conn = c;
    const std::int64_t id = next_id++;
    Conn& conn = conns[static_cast<std::size_t>(c)];
    conn.out += f.request_line(id, p.sample);
    pending.emplace(id, p);
    ++res.count.sent;
    conn.flush();
  };

  const std::int64_t t0 = now_ns() + 2'000'000;  // 2 ms lead-in
  const std::int64_t t_end = t0 + static_cast<std::int64_t>(spec.seconds * 1e9);
  const std::int64_t drain_deadline =
      t_end + static_cast<std::int64_t>(kDrainS * 1e9);
  const auto slice_ns = static_cast<std::int64_t>(spec.slice_s * 1e9);
  std::size_t next = 0;
  std::int64_t next_slice = 0;
  std::size_t slice = 0;
  double cpu0 = 0;
  bool started = false;
  bool closed_window = false;
  std::vector<char> buf(1 << 18);
  std::vector<pollfd> pfds;

  const auto on_data_line = [&](int c, std::string_view line,
                                std::int64_t now) {
    std::int64_t id = -1;
    bool ok_line = false;
    std::string code;
    if (starts_with(line, "{\"id\":")) {
      id = leading_id(line);
      ok_line = true;
    } else if (starts_with(line, "{\"error\":")) {
      try {
        const auto v = mixq::serve::parse_json(line);
        if (const auto* j = v.find("id"); j && j->is_integer()) {
          id = j->as_integer();
        }
        if (const auto* j = v.find("code"); j && j->is_string()) code = j->string;
      } catch (const std::exception&) {
      }
    }
    const auto it = pending.find(id);
    if (it == pending.end() || it->second.conn != c) {
      ++res.count.stray;
      return;
    }
    const Pending p = it->second;
    pending.erase(it);
    if (ok_line) {
      ++res.count.ok;
      if (line != f.expected_line(id, p.sample)) {
        ++res.count.mismatched;
      } else {
        res.latency_us.push_back(static_cast<double>(now - p.due_ns) / 1e3);
        if (now >= t0 && now <= t_end) ++res.done_in_window;
      }
    } else if (code == "overloaded") {
      ++res.count.shed;
    } else if (code == "timeout") {
      ++res.count.timeout;
    } else {
      ++res.count.error;
    }
    if (!open && now < t_end) issue(c, now);
  };

  const auto drain_lines = [&](Conn& c, auto&& handle) {
    std::size_t off = 0;
    while (true) {
      const std::size_t nl = c.in.find('\n', off);
      if (nl == std::string::npos) break;
      handle(std::string_view(c.in).substr(off, nl - off), now_ns());
      off = nl + 1;
    }
    c.in.erase(0, off);
  };

  while (true) {
    const std::int64_t now = now_ns();
    if (!started && now >= t0) {
      started = true;
      if (spec.on_slice && slice_ns > 0) {
        spec.on_slice(slice);
        next_slice = t0 + slice_ns;
      }
      cpu0 = d.cpu_s();
      if (!open) {
        for (int c = 0; c < spec.conns; ++c) {
          for (int w = 0; w < spec.window; ++w) issue(c, now_ns());
        }
      }
    }
    if (next_slice > 0 && now >= next_slice && next_slice < t_end) {
      spec.on_slice(++slice);
      next_slice += slice_ns;
    }
    if (started && !closed_window && now >= t_end) {
      closed_window = true;
      res.daemon_cpu_s = d.cpu_s() - cpu0;
      res.window_s = static_cast<double>(t_end - t0) / 1e9;
    }
    if (open) {
      while (next < schedule.size() && t0 + schedule[next] <= now) {
        const std::int64_t due = t0 + schedule[next];
        res.late_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
        issue(static_cast<int>(next % conns.size()), due);
        ++next;
      }
    }
    const bool all_issued = !open || next == schedule.size();
    if (closed_window && all_issued && pending.empty()) {
      break;
    }
    if (now >= drain_deadline) break;

    std::int64_t wake = drain_deadline;
    if (!started) wake = std::min(wake, t0);
    if (started && !closed_window) wake = std::min(wake, t_end);
    if (open && next < schedule.size()) wake = std::min(wake, t0 + schedule[next]);
    if (next_slice > 0 && next_slice < t_end) wake = std::min(wake, next_slice);

    pfds.clear();
    for (Conn& c : conns) {
      if (c.dead) continue;
      pfds.push_back({c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0});
    }
    const timespec ts = to_timespec(std::max<std::int64_t>(0, wake - now_ns()));
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      sys_fail("ppoll");
    }
    for (const pollfd& p : pfds) {
      if (p.revents == 0) continue;
      int ci = -1;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (conns[i].fd == p.fd) ci = static_cast<int>(i);
      }
      Conn& c = conns[static_cast<std::size_t>(ci)];
      if (p.revents & POLLOUT) c.flush();
      if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!c.fill(buf.data(), buf.size())) c.dead = true;
        drain_lines(c, [&](std::string_view l, std::int64_t t) {
          on_data_line(ci, l, t);
        });
      }
    }
  }
  if (!closed_window) {
    res.daemon_cpu_s = d.cpu_s() - cpu0;
    res.window_s = static_cast<double>(t_end - t0) / 1e9;
  }
  res.count.unanswered = static_cast<std::int64_t>(pending.size());
  return res;
}

}  // namespace perfbench
