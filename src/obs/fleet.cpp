#include "obs/fleet.hpp"

#include <cstring>
#include <iterator>

#include "obs/chrome_json.hpp"

namespace greenhpc::obs {

int FleetTrace::add_lane(long pid, std::string label) {
  Lane lane;
  lane.pid = pid;
  lane.label = std::move(label);
  lanes_.push_back(std::move(lane));
  return static_cast<int>(lanes_.size()) - 1;
}

void FleetTrace::align(int lane, std::uint64_t remote_now_ns,
                       std::uint64_t local_now_ns) {
  Lane& l = lanes_.at(static_cast<std::size_t>(lane));
  if (l.aligned) return;  // first anchor wins: the offset stays constant
  l.offset_ns = static_cast<std::int64_t>(local_now_ns) -
                static_cast<std::int64_t>(remote_now_ns);
  l.aligned = true;
}

bool FleetTrace::aligned(int lane) const {
  return lanes_.at(static_cast<std::size_t>(lane)).aligned;
}

std::uint64_t FleetTrace::map_ns(int lane, std::uint64_t remote_ts_ns) const {
  const Lane& l = lanes_.at(static_cast<std::size_t>(lane));
  const std::int64_t mapped =
      static_cast<std::int64_t>(remote_ts_ns) + l.offset_ns;
  return mapped < 0 ? 0 : static_cast<std::uint64_t>(mapped);
}

void FleetTrace::add_events(int lane, std::vector<RemoteTraceEvent> events) {
  Lane& l = lanes_.at(static_cast<std::size_t>(lane));
  // insert() grows the lane geometrically; an exact reserve per batch
  // would reallocate on every batch.
  for (RemoteTraceEvent& e : events) e.ts_ns = map_ns(lane, e.ts_ns);
  l.events.insert(l.events.end(), std::make_move_iterator(events.begin()),
                  std::make_move_iterator(events.end()));
}

void FleetTrace::add_event(int lane, RemoteTraceEvent event) {
  Lane& l = lanes_.at(static_cast<std::size_t>(lane));
  event.ts_ns = map_ns(lane, event.ts_ns);
  l.events.push_back(std::move(event));
}

void FleetTrace::add_dropped(int lane, std::uint64_t dropped) {
  lanes_.at(static_cast<std::size_t>(lane)).dropped += dropped;
}

void FleetTrace::add_local(int lane, const std::vector<ThreadTrace>& snapshot,
                           const char* cat) {
  Lane& l = lanes_.at(static_cast<std::size_t>(lane));
  for (const ThreadTrace& tt : snapshot) {
    for (const TraceEvent& e : tt.events) {
      const char* ecat = e.cat != nullptr ? e.cat : "greenhpc";
      if (cat != nullptr && std::strcmp(ecat, cat) != 0) continue;
      RemoteTraceEvent r;
      r.name = e.name;
      r.cat = ecat;
      r.tid = tt.tid;
      r.phase = e.phase;
      r.ts_ns = map_ns(lane, e.ts_ns);
      r.dur_ns = e.dur_ns;
      r.value = e.value;
      l.events.push_back(std::move(r));
    }
  }
}

std::size_t FleetTrace::event_count(int lane) const {
  return lanes_.at(static_cast<std::size_t>(lane)).events.size();
}

const std::vector<RemoteTraceEvent>& FleetTrace::events(int lane) const {
  return lanes_.at(static_cast<std::size_t>(lane)).events;
}

std::uint64_t FleetTrace::dropped(int lane) const {
  return lanes_.at(static_cast<std::size_t>(lane)).dropped;
}

void FleetTrace::write_chrome_json(std::ostream& os) const {
  detail::ChromeTraceWriter out(os);
  // Metadata first: one process_name record per lane makes every lane
  // visible in the viewer even before (or without) any events.
  for (const Lane& l : lanes_) out.process_name(l.pid, l.label);
  for (const Lane& l : lanes_) {
    for (const RemoteTraceEvent& e : l.events) {
      out.event(e.name, e.cat.empty() ? std::string_view("greenhpc") : e.cat, e.phase,
                l.pid, e.tid, e.ts_ns, e.dur_ns, e.value);
    }
  }
  out.finish();
}

}  // namespace greenhpc::obs
