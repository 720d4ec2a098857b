// CSV persistence of trace datasets, mirroring the paper's dataset schema:
// taxi id, timestamp, longitude, latitude, and event kind.
#pragma once

#include <filesystem>
#include <string>

#include "trace/dataset.hpp"

namespace mcs::trace {

/// Serializes a dataset to CSV (columns: taxi_id,timestamp,lat,lon,kind).
std::string to_csv(const TraceDataset& dataset);

/// Parses a dataset from CSV produced by to_csv. Throws PreconditionError on
/// malformed rows (bad numbers, unknown kind, coordinates that are not finite
/// WGS-84 degrees).
TraceDataset from_csv(const std::string& text);

/// File convenience wrappers; throw std::runtime_error on I/O failure.
void save_csv(const std::filesystem::path& path, const TraceDataset& dataset);
TraceDataset load_csv(const std::filesystem::path& path);

}  // namespace mcs::trace
