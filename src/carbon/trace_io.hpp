#pragma once
// Carbon-intensity trace import/export.
//
// Sites that have access to a real grid-emissions feed (electricityMaps-
// style exports) can load measured traces instead of the synthetic
// generator; every policy and bench works unchanged on either source.
// Format: CSV with a `timestamp_s,intensity_g_per_kwh` pair per line
// (header optional, '#' comments ignored); timestamps must be equally
// spaced and ascending.

#include <iosfwd>

#include "util/time_series.hpp"

namespace greenhpc::carbon {

/// Parse a trace from CSV. Throws InvalidArgument on malformed rows,
/// unequal spacing or fewer than two samples. Kept as save_intensity_csv's
/// round-trip oracle in `TraceIo.RoundTripsGeneratedTrace`.
[[nodiscard]] util::TimeSeries load_intensity_csv(std::istream& in);

/// Write a trace in the same CSV format (with header).
void save_intensity_csv(const util::TimeSeries& trace, std::ostream& out);

}  // namespace greenhpc::carbon
