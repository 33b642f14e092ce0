// End-to-end tests of the batch inference daemon: protocol round trips,
// bit-exactness of served results against the serial planned engine,
// concurrent clients, graceful shutdown with in-flight requests, a
// malformed-request fuzz pass, and a differential run showing the stdio
// and socket front-ends answer one script identically through the one
// serving core.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "models/small_cnn.hpp"
#include "runtime/convert.hpp"
#include "runtime/executor.hpp"
#include "serve/json.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"

#ifndef _WIN32
#include "serve/net/epoll_server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace mixq::serve {
namespace {

using runtime::Executor;
using runtime::QInferenceResult;
using runtime::QuantizedNet;

QuantizedNet make_net(std::uint64_t seed) {
  Rng rng(seed);
  models::SmallCnnConfig cfg;
  cfg.input_hw = 8;
  cfg.base_channels = 4;
  cfg.num_blocks = 1;
  cfg.num_classes = 3;
  cfg.qw = core::BitWidth::kQ4;
  cfg.wgran = core::Granularity::kPerChannel;
  auto model = models::build_small_cnn(cfg, &rng);
  return runtime::convert_qat_model(model, Shape(1, 8, 8, 3),
                                    {core::Scheme::kPCICN});
}

std::vector<std::vector<float>> make_samples(const QuantizedNet& net, int n,
                                             std::uint64_t seed) {
  Rng rng(seed);
  const std::int64_t numel = net.layers.front().in_shape.numel();
  std::vector<std::vector<float>> samples(static_cast<std::size_t>(n));
  for (auto& s : samples) {
    s.resize(static_cast<std::size_t>(numel));
    rng.fill_uniform(s, 0.0, 1.0);
  }
  return samples;
}

QInferenceResult run_planned_serial(const QuantizedNet& net,
                                    const std::vector<float>& sample) {
  Executor exec(net);
  const Shape& in = net.layers.front().in_shape;
  FloatTensor img(in);
  img.vec() = sample;
  return exec.run_planned(img);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// The malformed-request storm: every line must be answered with exactly
/// one error and leave the daemon serving.
std::vector<std::string> malformed_lines() {
  std::vector<std::string> bad = {
      "this is not json",
      "{",
      "[1,2,3]",
      "42",
      "\"str\"",
      "{\"id\":1}",
      "{\"input\":[1]}",
      "{\"id\":\"x\",\"input\":[1]}",
      "{\"id\":1.5,\"input\":[1]}",
      "{\"id\":2,\"input\":\"nope\"}",
      "{\"id\":3,\"input\":[1,2]}",                     // wrong length
      "{\"id\":4,\"input\":[true]}",
      "{\"cmd\":\"bogus\"}",
      "{\"cmd\":5}",
      "{\"id\":5,\"input\":[1e999]}",                   // number overflow
      "{\"id\":9223372036854775808,\"input\":[1]}",     // id == 2^63
      std::string(100, '['),                            // nesting bomb
      // Allocation bomb: a line far over the engine's size cap must be
      // rejected before JSON parsing can amplify it.
      "{\"id\":6,\"input\":[" + std::string(300 * 192, '1') + "]}",
  };
  // Deterministic printable garbage; '@' prefix guarantees a parse error.
  Rng rng(123);
  for (int i = 0; i < 64; ++i) {
    std::string line = "@";
    const int len = 1 + static_cast<int>(rng.uniform_int(80));
    for (int k = 0; k < len; ++k) {
      line.push_back(static_cast<char>(32 + rng.uniform_int(95)));
    }
    bad.push_back(line);
  }
  return bad;
}

TEST(StreamServer, RoundTripBitExactWithRunPlanned) {
  const QuantizedNet net = make_net(1);
  const auto samples = make_samples(net, 6, 11);

  std::string in_text;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    in_text += format_request_line(
        static_cast<std::int64_t>(i), samples[i].data(),
        static_cast<std::int64_t>(samples[i].size()));
    in_text += "\n";
  }
  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.threads = 2;
  cfg.max_batch = 4;
  cfg.max_wait_us = 200;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    // Byte-identical to the shared formatter over the serial planned
    // result: the same invariant the CLI smoke test checks end to end.
    const QInferenceResult expect = run_planned_serial(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(stats.requests, 6);
  EXPECT_EQ(stats.responses, 6);
  EXPECT_EQ(stats.errors, 0);
  EXPECT_GE(stats.batches, 2);  // max_batch 4 forces at least two batches
  EXPECT_EQ(stats.latency_us.size(), 6u);
}

TEST(StreamServer, ShutdownCmdDrainsInFlightRequests) {
  const QuantizedNet net = make_net(2);
  const auto samples = make_samples(net, 12, 5);
  std::string in_text;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    in_text += format_request_line(
        static_cast<std::int64_t>(i), samples[i].data(),
        static_cast<std::int64_t>(samples[i].size()));
    in_text += "\n";
  }
  // Shutdown arrives immediately after the burst: every accepted request
  // must still be answered before the ack.
  in_text += "{\"cmd\":\"shutdown\"}\n";
  in_text += "{\"id\":99,\"input\":[]}\n";  // after shutdown: never read

  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.max_batch = 3;
  cfg.max_wait_us = 50'000;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), samples.size() + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const QInferenceResult expect = run_planned_serial(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(lines.back(), "{\"ok\":\"shutdown\"}");
  EXPECT_EQ(stats.responses, 12);
  EXPECT_EQ(stats.errors, 0);
}

TEST(StreamServer, InfoAndStatsCommands) {
  const QuantizedNet net = make_net(3);
  const auto samples = make_samples(net, 1, 4);
  std::string in_text = "{\"cmd\":\"info\"}\n";
  in_text += format_request_line(0, samples[0].data(),
                                 static_cast<std::int64_t>(samples[0].size()));
  in_text += "\n{\"cmd\":\"stats\"}\n";
  std::istringstream in(in_text);
  std::ostringstream out;
  StreamServer server(net, ServeConfig{});
  server.serve(in, out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"info\""), std::string::npos);
  EXPECT_NE(text.find("\"layers\":" + std::to_string(net.layers.size())),
            std::string::npos);
  EXPECT_NE(text.find("\"predicted\""), std::string::npos);
  EXPECT_NE(text.find("\"stats\""), std::string::npos);
}

TEST(StreamServer, MalformedRequestFuzzNeverKillsTheDaemon) {
  const QuantizedNet net = make_net(4);
  const auto samples = make_samples(net, 1, 9);
  const std::int64_t numel = net.layers.front().in_shape.numel();

  const std::vector<std::string> bad = malformed_lines();
  std::string in_text;
  for (const auto& line : bad) in_text += line + "\n";
  // A valid request after the garbage storm must still be served.
  in_text += format_request_line(7, samples[0].data(), numel);
  in_text += "\n";

  std::istringstream in(in_text);
  std::ostringstream out;
  ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_wait_us = 100;
  StreamServer server(net, cfg);
  const ServeStats stats = server.serve(in, out);

  EXPECT_EQ(stats.errors, static_cast<std::int64_t>(bad.size()));
  EXPECT_EQ(stats.responses, 1);
  const QInferenceResult expect = run_planned_serial(net, samples[0]);
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), bad.size() + 1);
  int error_lines = 0;
  for (const auto& line : lines) {
    if (line.find("\"error\"") != std::string::npos) ++error_lines;
  }
  EXPECT_EQ(error_lines, static_cast<int>(bad.size()));
  EXPECT_EQ(lines.back(), format_result_line(7, expect));
}

TEST(ModelRegistry, ConcurrentClientsBitExactWithSerialPlanned) {
  const QuantizedNet net = make_net(5);
  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  const auto samples = make_samples(net, kClients * kPerClient, 21);

  RequestQueue queue;
  MicroBatcher batcher(queue, {/*max_batch=*/5, /*max_wait_us=*/500});
  ModelRegistry reg(/*threads=*/3);
  reg.add_model("default", net);
  const auto model = reg.resolve("default");

  std::mutex results_mu;
  std::map<std::int64_t, QInferenceResult> results;
  std::thread consumer([&] {
    std::vector<Request> batch;
    std::vector<QInferenceResult> out;
    while (batcher.next_batch(batch)) {
      reg.infer_batch(*model, batch, out);
      std::lock_guard<std::mutex> lock(results_mu);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        results[batch[i].id] = out[i];
      }
    }
  });

  // Concurrent producers racing requests into the shared queue, in
  // interleaved bursts so micro-batches mix clients.
  std::vector<std::thread> producers;
  for (int c = 0; c < kClients; ++c) {
    producers.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = c * kPerClient + i;
        Request r;
        r.id = idx;
        r.client = c;
        r.input = samples[static_cast<std::size_t>(idx)];
        ASSERT_TRUE(queue.push(std::move(r)));
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.close();
  consumer.join();

  ASSERT_EQ(results.size(), samples.size());
  for (int idx = 0; idx < kClients * kPerClient; ++idx) {
    const QInferenceResult expect =
        run_planned_serial(net, samples[static_cast<std::size_t>(idx)]);
    const QInferenceResult& got = results[idx];
    ASSERT_EQ(got.predicted, expect.predicted);
    ASSERT_EQ(got.logits.size(), expect.logits.size());
    for (std::size_t k = 0; k < expect.logits.size(); ++k) {
      // Integer equality of the dequantized logits: bit-exact, no
      // tolerance, for every batch composition and lane count.
      ASSERT_EQ(got.logits[k], expect.logits[k]);
    }
  }
}

#ifndef _WIN32
/// Connect to the unix socket at `path` with a receive timeout (a hung
/// read fails the test instead of hanging it); -1 on failure.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, path.size());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_text(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const auto n = ::send(fd, text.data() + off, text.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Read until `want` lines arrived (0 = until the peer closes).
std::string recv_lines(int fd, std::size_t want) {
  std::string text;
  char buf[4096];
  while (want == 0 ||
         static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                             '\n')) < want) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  return text;
}

TEST(EpollServer, UnixOnlyRoundTripAndShutdown) {
  const QuantizedNet net = make_net(6);
  const auto samples = make_samples(net, 3, 31);
  const std::string path =
      "/tmp/mixq_serve_test_" + std::to_string(::getpid()) + ".sock";

  NetStats stats;
  std::string server_error;
  std::thread server([&] {
    try {
      // No TCP listener: exactly what `mixq serve --socket PATH` runs.
      NetConfig cfg;
      cfg.unix_path = path;
      cfg.engine.max_batch = 2;
      cfg.engine.max_wait_us = 500;
      stats = EpollServer(net, cfg).run();
    } catch (const std::exception& e) {
      server_error = e.what();
    }
  });

  // Connect (with retries while the listener comes up).
  int fd = -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, path.size());
  for (int attempt = 0; attempt < 200 && server_error.empty(); ++attempt) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      break;
    }
    ::close(fd);
    fd = -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (fd < 0) {
    // Environment without unix-socket support: nothing to assert beyond
    // the server thread reporting the setup failure cleanly.
    server.join();
    ::unlink(path.c_str());
    EXPECT_FALSE(server_error.empty());
    return;
  }

  // A second client that connects and then idles: the daemon must still
  // exit cleanly on shutdown (its reader is unblocked, not joined-on
  // forever).
  int idle_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  if (::connect(idle_fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(idle_fd);
    idle_fd = -1;
  }

  std::string out_text;
  const auto send_line = [&](const std::string& line) {
    const std::string buf = line + "\n";
    ASSERT_EQ(::send(fd, buf.data(), buf.size(), 0),
              static_cast<ssize_t>(buf.size()));
  };
  const auto read_lines = [&](std::size_t want) {
    char buf[4096];
    while (true) {
      std::size_t have = 0;
      for (const char ch : out_text) {
        if (ch == '\n') ++have;
      }
      if (have >= want) break;
      const auto n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out_text.append(buf, static_cast<std::size_t>(n));
    }
  };

  const std::int64_t numel = net.layers.front().in_shape.numel();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    send_line(format_request_line(static_cast<std::int64_t>(i),
                                  samples[i].data(), numel));
  }
  read_lines(samples.size());
  send_line("{\"cmd\":\"shutdown\"}");
  read_lines(samples.size() + 1);
  ::close(fd);
  server.join();  // must not hang despite the idle connection
  if (idle_fd >= 0) ::close(idle_fd);
  ASSERT_TRUE(server_error.empty());

  const auto lines = split_lines(out_text);
  ASSERT_EQ(lines.size(), samples.size() + 1);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const QInferenceResult expect = run_planned_serial(net, samples[i]);
    EXPECT_EQ(lines[i],
              format_result_line(static_cast<std::int64_t>(i), expect));
  }
  EXPECT_EQ(lines.back(), "{\"ok\":\"shutdown\"}");
  EXPECT_EQ(stats.engine.responses,
            static_cast<std::int64_t>(samples.size()));
}

TEST(ServeFrontEnds, StdioAndUnixSocketAnswerOneScriptIdentically) {
  const QuantizedNet net = make_net(7);
  const auto samples = make_samples(net, 5, 41);
  const std::int64_t numel = net.layers.front().in_shape.numel();
  ModelRegistry reg(2);
  reg.add_model("default", net);

  // A socket loses framing past an over-cap line (that connection stops
  // reading), so the socket run sends it on a connection of its own; the
  // stdio run streams past it. Both answer it through the core.
  std::string over_cap;
  std::vector<std::string> script;
  for (const std::string& line : malformed_lines()) {
    if (line.size() > max_request_line_bytes(numel)) {
      over_cap = line;
    } else {
      script.push_back(line);
    }
  }
  ASSERT_FALSE(over_cap.empty());
  script.push_back("{\"id\":90,\"model\":\"nope\",\"input\":[1]}");
  script.push_back("{\"cmd\":\"info\"}");
  script.push_back("{\"cmd\":\"health\"}");  // before any request: queued 0
  for (std::size_t i = 0; i < samples.size(); ++i) {
    script.push_back(format_request_line(static_cast<std::int64_t>(i),
                                         samples[i].data(), numel));
  }
  script.push_back("{\"cmd\":\"shutdown\"}");
  std::string script_text;
  for (const std::string& line : script) script_text += line + "\n";

  ServeConfig cfg;
  cfg.max_batch = 3;
  cfg.max_wait_us = 500;
  std::istringstream in(over_cap + "\n" + script_text);
  std::ostringstream out;
  StreamServer(reg, cfg).serve(in, out);
  std::vector<std::string> stdio_lines = split_lines(out.str());

  NetConfig ncfg;
  ncfg.engine = cfg;
  ncfg.unix_path =
      "/tmp/mixq_serve_diff_" + std::to_string(::getpid()) + ".sock";
  EpollServer server(reg, ncfg);
  std::thread loop([&] { server.run(); });
  const int bomb_fd = connect_unix(ncfg.unix_path);
  const int fd = connect_unix(ncfg.unix_path);
  std::string socket_text;
  if (bomb_fd >= 0 && fd >= 0) {
    EXPECT_TRUE(send_text(bomb_fd, over_cap + "\n"));
    socket_text = recv_lines(bomb_fd, 1);
    EXPECT_TRUE(send_text(fd, script_text));
    socket_text += recv_lines(fd, 0);  // through the ack and the close
  } else {
    server.request_drain();
  }
  loop.join();
  if (bomb_fd >= 0) ::close(bomb_fd);
  if (fd >= 0) ::close(fd);
  ASSERT_GE(fd, 0);
  std::vector<std::string> socket_lines = split_lines(socket_text);

  // Every line answered once: one error per bad line and the unknown
  // model, info, health, a response per request, the shutdown ack.
  ASSERT_EQ(stdio_lines.size(), script.size() + 1);
  std::sort(stdio_lines.begin(), stdio_lines.end());
  std::sort(socket_lines.begin(), socket_lines.end());
  EXPECT_EQ(stdio_lines, socket_lines);
}
#endif  // !_WIN32

}  // namespace
}  // namespace mixq::serve
