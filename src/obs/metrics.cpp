#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

namespace greenhpc::obs {

namespace {

/// Fixed-bucket quantile estimate shared by Histogram and its snapshot:
/// walk the cumulative counts to the bucket holding rank q*total, then
/// interpolate linearly between that bucket's edges. The first bucket's
/// lower edge is 0 (non-negative series), the overflow bucket saturates
/// to the last finite bound.
double bucket_percentile(const std::vector<double>& bounds,
                         const std::vector<std::uint64_t>& counts, double q) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(total);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double c = static_cast<double>(counts[i]);
    if (c == 0.0 || cum + c < rank) {
      cum += c;
      continue;
    }
    if (i >= bounds.size()) break;  // overflow bucket: saturate below
    const double lo = i == 0 ? 0.0 : bounds[i - 1];
    const double hi = bounds[i];
    return lo + (hi - lo) * ((rank - cum) / c);
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

}  // namespace

unsigned detail::assign_counter_shard() {
  static std::atomic<unsigned> next{0};
  counter_shard = next.fetch_add(1, std::memory_order_relaxed) % Counter::kShards;
  return counter_shard;
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {}

void Histogram::record(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out;
  out.reserve(buckets_.size());
  for (const auto& b : buckets_) out.push_back(b.load(std::memory_order_relaxed));
  return out;
}

std::uint64_t Histogram::count() const {
  std::uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double Histogram::percentile(double q) const {
  return bucket_percentile(bounds_, counts(), q);
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

std::uint64_t HistogramSnapshot::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t c : counts) t += c;
  return t;
}

double HistogramSnapshot::percentile(double q) const {
  return bucket_percentile(bounds, counts, q);
}

const std::uint64_t* StatSnapshot::find_counter(std::string_view name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const double* StatSnapshot::find_gauge(std::string_view name) const {
  for (const auto& [n, v] : gauges) {
    if (n == name) return &v;
  }
  return nullptr;
}

const HistogramSnapshot* StatSnapshot::find_histogram(
    std::string_view name) const {
  for (const HistogramSnapshot& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Registry& Registry::global() {
  static Registry r;
  return r;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

StatSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  StatSnapshot out;
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    out.counters.emplace_back(name, c->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    out.gauges.emplace_back(name, g->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.bounds = h->bounds();
    hs.counts = h->counts();
    hs.sum = h->sum();
    out.histograms.push_back(std::move(hs));
  }
  return out;
}

namespace {

void json_escape(std::ostream& os, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
         << "0123456789abcdef"[c & 0xf];
    } else {
      os << c;
    }
  }
}

}  // namespace

void Registry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    json_escape(os, name);
    os << "\":" << c->value();
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    json_escape(os, name);
    os << "\":" << g->value();
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) os << ",";
    first = false;
    os << "\"";
    json_escape(os, name);
    os << "\":{\"bounds\":[";
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) os << ",";
      os << bounds[i];
    }
    os << "],\"counts\":[";
    const auto counts = h->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) os << ",";
      os << counts[i];
    }
    os << "],\"sum\":" << h->sum() << ",\"count\":" << h->count() << "}";
  }
  os << "}}\n";
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace greenhpc::obs
