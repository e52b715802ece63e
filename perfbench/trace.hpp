// trace.hpp — in-memory spans for the benchmark's traced run.
//
// Spans are recorded by the benchmark itself, around its calls into each
// layer's public functions; nothing inside the library is instrumented.
// Every span is taken on the driver thread, so the tracer needs no lock.
// A disabled tracer only forwards the call: the untraced runs that give
// the end-to-end metrics pay one branch per call.
#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The svc session key a span belongs to; -1 fields for spans outside any
// session (a whole repetition, a world construction).
struct SpanKey {
  int origin = -1;
  int service = -1;
  std::int64_t seq = -1;
};

class Tracer {
 public:
  struct Span {
    const char* layer;
    const char* name;
    SpanKey key;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct LayerTime {
    std::uint64_t spans = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;  // total minus the time its child spans cover
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  // Runs f(); when enabled, keeps a span of layer.name around it.
  template <typename F>
  decltype(auto) span(const char* layer, const char* name, SpanKey key,
                      F&& f) {
    if (!enabled_) return f();
    struct Closer {
      Tracer& t;
      const char* layer;
      const char* name;
      SpanKey key;
      std::uint64_t start;
      ~Closer() { t.add(layer, name, key, start, now_ns()); }
    } closer{*this, layer, name, key, now_ns()};
    return f();
  }

  void add(const char* layer, const char* name, SpanKey key,
           std::uint64_t start_ns, std::uint64_t end_ns) {
    if (enabled_) spans_.push_back({layer, name, key, start_ns, end_ns});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

  // Mean duration in ns of the spans named layer.name (0 when none).
  double mean_ns(const std::string& layer, const std::string& name) const {
    std::uint64_t n = 0;
    std::uint64_t sum = 0;
    for (const Span& s : spans_)
      if (layer == s.layer && name == s.name) {
        ++n;
        sum += s.end_ns - s.start_ns;
      }
    return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
  }

  // Per-layer span count, total and self time. A span's parent is the
  // innermost earlier span that contains it.
  std::map<std::string, LayerTime> self_times() const {
    std::vector<const Span*> order;
    order.reserve(spans_.size());
    for (const Span& s : spans_) order.push_back(&s);
    std::sort(order.begin(), order.end(), [](const Span* a, const Span* b) {
      if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
      return a->end_ns > b->end_ns;
    });
    std::vector<std::uint64_t> child_ns(order.size(), 0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < order.size(); ++i) {
      while (!stack.empty() &&
             order[stack.back()]->end_ns <= order[i]->start_ns)
        stack.pop_back();
      if (!stack.empty())
        child_ns[stack.back()] += order[i]->end_ns - order[i]->start_ns;
      stack.push_back(i);
    }
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < order.size(); ++i) {
      const std::uint64_t dur = order[i]->end_ns - order[i]->start_ns;
      LayerTime& lt = out[order[i]->layer];
      ++lt.spans;
      lt.total_ns += dur;
      lt.self_ns += dur > child_ns[i] ? dur - child_ns[i] : 0;
    }
    return out;
  }

  // Writes the spans as Chrome trace-event JSON (chrome://tracing,
  // Perfetto), with the self-time table and `other` (a JSON object body)
  // under "otherData". Returns whether the file was written.
  bool write_chrome(const std::string& path, const std::string& other) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::uint64_t t0 = spans_.empty() ? 0 : min_start();
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"origin\":%d,\"service\":%d,\"seq\":%lld}}",
                   i == 0 ? "" : ",", s.layer, s.name, s.layer,
                   static_cast<double>(s.start_ns - t0) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   s.key.origin, s.key.service,
                   static_cast<long long>(s.key.seq));
    }
    std::fputs("\n],\"otherData\":{\"self_time_ms\":{", f);
    bool first = true;
    for (const auto& [layer, lt] : self_times()) {
      std::fprintf(f, "%s\"%s\":{\"spans\":%llu,\"total\":%.3f,\"self\":%.3f}",
                   first ? "" : ",", layer.c_str(),
                   static_cast<unsigned long long>(lt.spans),
                   static_cast<double>(lt.total_ns) / 1e6,
                   static_cast<double>(lt.self_ns) / 1e6);
      first = false;
    }
    std::fprintf(f, "}%s%s}}\n", other.empty() ? "" : ",", other.c_str());
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t min_start() const {
    std::uint64_t m = spans_.front().start_ns;
    for (const Span& s : spans_) m = std::min(m, s.start_ns);
    return m;
  }

  bool enabled_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_HPP
