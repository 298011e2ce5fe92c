#pragma once
// Deterministic fault injection for chaos testing.
//
// The sweep fabric's failure handling (worker death, torn journals, hung
// blocks, poisoned cases) is only as trustworthy as the failure schedules
// it has been driven through. FaultInjector is the hook layer that makes
// those schedules DETERMINISTIC: production code consults named sites
// ("worker.block", "journal.append", ...) at the exact points where real
// faults would bite, and an armed injector answers "fire this action at
// the k-th occurrence" from a pre-computed spec list — no randomness at
// consult time, no wall clock, so the same spec list replays the same
// fault sequence every run.
//
// Cost contract: a DISARMED injector (the production default) is one
// relaxed atomic load per consult — never a lock, never a map lookup —
// so the hooks can live on hot paths. Arming is test/chaos-harness-only.
//
// Sites are plain strings owned by the consulting code. The convention
// is `<component>.<event>`; the full catalogue lives in DESIGN.md's
// "Failure domains & containment" table. Two consult flavours exist:
//
//   consult(site)        — occurrence-counted: the n-th consult of a site
//                          fires specs whose [at, at+count) window covers n.
//   match_value(site, v) — value-keyed: fires specs whose `at` equals v,
//                          regardless of consult order (used for the
//                          poison-case site, keyed by flat case id).
//
// Specs travel between processes as a compact string (encode/decode), so
// a coordinator can arm a worker it spawns via one argv flag.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace greenhpc::util {

/// What a firing fault spec asks the consulting site to do. Sites honor
/// the actions that make sense for them and ignore the rest (a Truncate
/// at a heartbeat site is a no-op, not an error) — the schedule generator
/// only emits actions its sites interpret, but a hand-written spec must
/// not be able to crash the harness.
enum class FaultAction {
  Fail,        ///< report failure (throw / return error) without doing the work
  Kill,        ///< terminate the process (only honored when lethal() is set)
  Stall,       ///< sleep param milliseconds before proceeding
  Delay,       ///< sleep param milliseconds, then proceed normally
  Drop,        ///< silently skip the operation (e.g. a heartbeat)
  Truncate,    ///< drop the last param bytes of the payload
  BitFlip,     ///< flip bit (param % payload_bits) of the payload
  ShortWrite,  ///< emit only the first param bytes of the payload
};

/// One scheduled fault: at occurrences [at, at+count) of `site`, perform
/// `action` with `param` (action-specific: milliseconds for Stall/Delay,
/// bytes for Truncate/ShortWrite, a bit index for BitFlip, ignored
/// otherwise). For value-keyed sites, `at` is the matched value and
/// `count` is ignored.
struct FaultSpec {
  std::string site;
  std::uint64_t at = 0;
  std::uint64_t count = 1;
  FaultAction action = FaultAction::Fail;
  std::uint64_t param = 0;
};

/// The action+param of a fired spec, handed back to the consulting site.
struct FaultHit {
  FaultAction action = FaultAction::Fail;
  std::uint64_t param = 0;
};

/// Thrown by sites that contain an injected Fail by unwinding (e.g. the
/// coordinator's fold site simulating coordinator death). Distinct from
/// InvalidArgument/LogicError so harnesses can catch exactly the faults
/// they injected and treat everything else as a real bug.
class InjectedFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class FaultInjector {
 public:
  /// The process-wide injector every site consults.
  [[nodiscard]] static FaultInjector& global();

  /// Install a spec list and reset every occurrence counter. Arming an
  /// empty list is equivalent to disarm().
  void arm(std::vector<FaultSpec> specs);
  /// Remove every spec; consults return to the one-atomic-load fast path.
  void disarm();
  [[nodiscard]] bool armed() const {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Whether Kill actions may terminate this process. Worker processes
  /// set this; the coordinator never does, so a poison spec that kills
  /// workers degrades to a thrown (quarantinable) failure in-process —
  /// chaos must not be able to crash the coordinator by design.
  void set_lethal(bool lethal) {
    lethal_.store(lethal, std::memory_order_relaxed);
  }
  [[nodiscard]] bool lethal() const {
    return lethal_.load(std::memory_order_relaxed);
  }

  /// Occurrence-counted consult: increments `site`'s counter and fires
  /// the first spec whose [at, at+count) window covers the previous
  /// value. Thread-safe; counters are per-arm().
  bool consult(const std::string& site, FaultHit& hit);
  /// Value-keyed consult: fires the first spec for `site` whose `at`
  /// equals `value`. No counter is consumed — the same value fires every
  /// time it is presented (a poisoned case stays poisoned).
  bool match_value(const std::string& site, std::uint64_t value, FaultHit& hit);

  /// Occurrences of `site` consulted since the last arm().
  /// Kept for `FaultInjectorTest.OccurrenceWindowFiresExactlyAtToAtPlusCount`.
  [[nodiscard]] std::uint64_t occurrences(const std::string& site) const;

  /// Serialize specs as `site:at:count:action:param` joined by ','
  /// (argv-safe: no spaces). decode() rejects malformed text.
  [[nodiscard]] static std::string encode(const std::vector<FaultSpec>& specs);
  [[nodiscard]] static bool decode(const std::string& text,
                                   std::vector<FaultSpec>& out);
  [[nodiscard]] static const char* action_name(FaultAction action);
  [[nodiscard]] static bool parse_action(const std::string& name,
                                         FaultAction& out);

 private:
  std::atomic<bool> armed_{false};
  std::atomic<bool> lethal_{false};
  mutable std::mutex mu_;
  std::vector<FaultSpec> specs_;
  std::unordered_map<std::string, std::uint64_t> counters_;
};

}  // namespace greenhpc::util
