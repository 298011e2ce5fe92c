#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "obs/chrome_json.hpp"

namespace greenhpc::obs {

namespace detail {
std::atomic<bool> trace_enabled{false};
}  // namespace detail

namespace {

// Per-thread ring of events. The owning thread is the only writer; `head`
// is published with release so a quiescent reader (snapshot/reset) sees
// fully written slots after an acquire load. Slots wrap silently once the
// ring is full — `dropped()` reports how much history was lost.
struct Ring {
  explicit Ring(int tid_, std::size_t capacity)
      : tid(tid_), slots(capacity) {}

  void push(const TraceEvent& e) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    slots[h % slots.size()] = e;
    head.store(h + 1, std::memory_order_release);
  }

  int tid;
  std::vector<TraceEvent> slots;
  std::atomic<std::uint64_t> head{0};
};

// Registry of every ring ever created. Rings are shared_ptr-owned so a
// buffer outlives its thread and can still be drained after joins.
struct RingRegistry {
  std::mutex mu;
  std::vector<std::shared_ptr<Ring>> rings;
  int next_tid = 0;
  std::size_t capacity = 1u << 16;
};

RingRegistry& registry() {
  static RingRegistry r;
  return r;
}

Ring& local_ring() {
  thread_local std::shared_ptr<Ring> ring = [] {
    RingRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    auto r = std::make_shared<Ring>(reg.next_tid++, reg.capacity);
    reg.rings.push_back(r);
    return r;
  }();
  return *ring;
}

std::chrono::steady_clock::time_point epoch() {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

void Tracer::set_enabled(bool on) {
  // Acts as the epoch anchor too: the first enable pins t=0 near the
  // start of the traced region instead of process start.
  if (on) (void)epoch();
  detail::trace_enabled.store(on, std::memory_order_relaxed);
}

void Tracer::set_buffer_capacity(std::size_t events) {
  RingRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  reg.capacity = events == 0 ? 1 : events;
}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch())
          .count());
}

void Tracer::record_complete(const char* name, const char* cat,
                             std::uint64_t begin_ns, std::uint64_t end_ns) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = begin_ns;
  e.dur_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  e.phase = 'X';
  local_ring().push(e);
}

void Tracer::record_instant(const char* name, const char* cat, double value) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ts_ns = now_ns();
  e.phase = 'i';
  e.value = value;
  local_ring().push(e);
}

std::vector<ThreadTrace> Tracer::snapshot() {
  std::vector<std::shared_ptr<Ring>> rings;
  {
    RingRegistry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    rings = reg.rings;
  }
  std::vector<ThreadTrace> out;
  out.reserve(rings.size());
  for (const auto& ring : rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->slots.size();
    const std::uint64_t n = std::min(h, cap);
    ThreadTrace tt;
    tt.tid = ring->tid;
    tt.dropped = h - n;
    tt.events.reserve(n);
    for (std::uint64_t i = h - n; i < h; ++i) {
      tt.events.push_back(ring->slots[i % cap]);
    }
    out.push_back(std::move(tt));
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadTrace& a, const ThreadTrace& b) { return a.tid < b.tid; });
  return out;
}

std::vector<SpanStat> Tracer::aggregate_spans() {
  std::map<std::string, SpanStat> by_name;
  for (const ThreadTrace& tt : snapshot()) {
    for (const TraceEvent& e : tt.events) {
      if (e.phase != 'X') continue;
      SpanStat& s = by_name[e.name];
      if (s.name.empty()) s.name = e.name;
      ++s.count;
      s.total_ms += static_cast<double>(e.dur_ns) * 1e-6;
    }
  }
  std::vector<SpanStat> out;
  out.reserve(by_name.size());
  for (auto& [name, stat] : by_name) out.push_back(std::move(stat));
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) {
  detail::ChromeTraceWriter out(os);
  for (const ThreadTrace& tt : snapshot()) {
    for (const TraceEvent& e : tt.events) {
      out.event(e.name, e.cat != nullptr ? e.cat : "greenhpc", e.phase, 1, tt.tid,
                e.ts_ns, e.dur_ns, e.value);
    }
  }
  out.finish();
}

void Tracer::reset() {
  RingRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    ring->head.store(0, std::memory_order_release);
  }
}

std::uint64_t Tracer::dropped() {
  std::uint64_t total = 0;
  RingRegistry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& ring : reg.rings) {
    const std::uint64_t h = ring->head.load(std::memory_order_acquire);
    const std::uint64_t cap = ring->slots.size();
    total += h > cap ? h - cap : 0;
  }
  return total;
}

}  // namespace greenhpc::obs
