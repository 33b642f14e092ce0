#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer(bool enabled, std::size_t reserve) : enabled_(enabled) {
  if (enabled_) spans_.reserve(reserve);
  open_.reserve(64);
}

Tracer::Scope::Scope(Tracer& t, const char* name, std::int64_t req) : t_(&t) {
  if (!t.enabled_) return;
  Span s;
  s.name = name;
  s.parent = t.open_.empty() ? -1 : t.open_.back();
  // A request id is inherited from the enclosing span when not given.
  s.req = req >= 0 || s.parent < 0
              ? req
              : t.spans_[static_cast<std::size_t>(s.parent)].req;
  index_ = static_cast<std::int32_t>(t.spans_.size());
  t.spans_.push_back(s);
  t.open_.push_back(index_);
  t.spans_.back().start_ns = now_ns();
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  t_->spans_[static_cast<std::size_t>(index_)].end_ns = now_ns();
  t_->open_.pop_back();
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::int32_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    iv.clear();
    for (std::int32_t c : children[i]) {
      const Span& k = spans_[static_cast<std::size_t>(c)];
      const std::int64_t a = std::max(k.start_ns, s.start_ns);
      const std::int64_t b = std::min(k.end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (cur_b < a) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    out[i] = (s.end_ns - s.start_ns) - covered;
  }
  return out;
}

std::map<std::string, Tracer::ByName> Tracer::by_name() const {
  std::map<std::string, ByName> out;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    ByName& b = out[spans_[i].name];
    b.self_ns.push_back(static_cast<double>(self[i]));
    b.total_ns.push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns));
  }
  return out;
}

void Tracer::write_ndjson(const std::string& path) const {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << "{\"i\":" << i << ",\"name\":\"" << s.name
      << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
      << ",\"parent\":" << s.parent << ",\"req\":" << s.req
      << ",\"self_ns\":" << self[i] << "}\n";
  }
  if (!f) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
