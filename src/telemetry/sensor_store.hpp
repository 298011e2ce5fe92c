#pragma once
// DCDB-style operational data store (paper section 3.4: "extend operational
// data analytics tools, such as DCDB, to quantify and aggregate carbon
// emissions data derived from submitted HPC jobs").
//
// Sensors are named hierarchically ("node042.power", "system.ci") and hold
// irregularly timestamped samples. The store supports the aggregation
// queries the accounting module needs: time integrals over a window
// (energy from power sensors) and weighted integrals against a second
// sensor (carbon from power x intensity). Samples are zero-order-hold
// between timestamps, matching the simulator's piecewise-constant outputs.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace greenhpc::telemetry {

/// One timestamped observation.
struct Sample {
  Duration time;
  double value = 0.0;
};

/// A single named sensor's sample sequence (monotonically increasing time).
class Sensor {
 public:
  explicit Sensor(std::string name);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Append a sample; time must be >= the last recorded time.
  void record(Duration time, double value);

  /// Zero-order-hold value at time t (last sample at or before t);
  /// nullopt before the first sample.
  [[nodiscard]] std::optional<double> value_at(Duration t) const;

  /// Integral of the zero-order-hold signal over [t0, t1] in
  /// value-units * seconds. Time before the first sample contributes 0.
  [[nodiscard]] double integrate(Duration t0, Duration t1) const;

  /// Integral of this sensor's signal multiplied by `weight`'s signal over
  /// [t0, t1] — e.g. power (W) x carbon intensity (g/kWh) integrates to
  /// carbon when divided by 3.6e6. Both signals are zero-order-hold, so
  /// the product is piecewise constant on the union of their breakpoints.
  [[nodiscard]] double integrate_weighted(const Sensor& weight, Duration t0,
                                          Duration t1) const;

 private:
  /// Index of the last sample at or before t, or npos.
  [[nodiscard]] std::size_t index_at_or_before(Duration t) const;

  std::string name_;
  std::vector<Sample> samples_;
};

/// The store: a name-indexed collection of sensors.
class SensorStore {
 public:
  /// Get or create a sensor by name.
  Sensor& sensor(const std::string& name);
  /// Lookup without creating; nullptr if absent.
  [[nodiscard]] const Sensor* find(const std::string& name) const;
  /// All sensor names in lexicographic order.
  /// Kept for `FastPathEquivalence.ReferenceAndFastPathsMatchBitForBit`.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Record into a named sensor (creates it on first use).
  void record(const std::string& name, Duration time, double value);
  /// Number of sensors.
  [[nodiscard]] std::size_t size() const { return sensors_.size(); }

  /// Energy (J) from a power sensor (values in watts) over a window.
  [[nodiscard]] Energy energy(const std::string& power_sensor, Duration t0,
                              Duration t1) const;
  /// Carbon (g) from a power sensor and an intensity sensor (g/kWh).
  [[nodiscard]] Carbon carbon(const std::string& power_sensor,
                              const std::string& intensity_sensor, Duration t0,
                              Duration t1) const;

 private:
  std::map<std::string, Sensor> sensors_;
};

}  // namespace greenhpc::telemetry
