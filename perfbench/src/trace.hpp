// perfbench/src/trace.hpp
//
// In-memory span recorder for the traced run. The benchmark wraps every
// public call it makes into mixq (plan, pool, loaders, protocol, registry)
// in a Scope; a span keeps its name, start, end, parent span and request
// id. Spans stay in a preallocated vector and are written out once, when
// the run ends. A span's self time is its duration minus the part of its
// interval covered by its children.
//
// Single-threaded: the benchmark makes its traced calls from one thread.
// A disabled tracer records nothing, so the same code path runs untraced.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name{""};  ///< static or interned: a layer-qualified call name
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  std::int32_t parent{-1};  ///< index into the span vector, -1 = root
  std::int64_t req{-1};     ///< request id, -1 when the call serves none
};

/// Monotonic nanoseconds (steady_clock).
std::int64_t now_ns();

class Tracer {
 public:
  explicit Tracer(bool enabled, std::size_t reserve = 1 << 16);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t req);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    std::int32_t index_{-1};
  };

  [[nodiscard]] Scope span(const char* name, std::int64_t req = -1) {
    return Scope(*this, name, req);
  }

  /// A span name built at run time, kept alive as long as the tracer.
  const char* intern(const std::string& name) {
    return names_.insert(name).first->c_str();
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every recorded span (same indexing as spans()).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  /// Self and total durations in ns, grouped by span name.
  struct ByName {
    std::vector<double> self_ns;
    std::vector<double> total_ns;
  };
  [[nodiscard]] std::map<std::string, ByName> by_name() const;

  /// Write every span as one JSON object per line.
  void write_ndjson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::set<std::string> names_;
  std::vector<std::int32_t> open_;  ///< stack of open span indices
};

}  // namespace perfbench
