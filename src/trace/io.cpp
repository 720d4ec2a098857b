#include "trace/io.hpp"

#include <cstdio>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/text.hpp"

namespace mcs::trace {

namespace {

const char* kind_name(EventKind kind) {
  return kind == EventKind::kPickup ? "pickup" : "dropoff";
}

EventKind kind_from_name(const std::string& name) {
  if (name == "pickup") {
    return EventKind::kPickup;
  }
  if (name == "dropoff") {
    return EventKind::kDropoff;
  }
  throw common::PreconditionError("unknown trace event kind: " + name);
}

constexpr const char* kFileKind = "trace file";

template <typename T>
T parse_number(const std::string& text) {
  const auto value = common::text::parse_number<T>(text);
  MCS_EXPECTS(value.has_value(), "malformed number in trace CSV: " + text);
  return *value;
}

std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.7f", value);
  return buffer;
}

}  // namespace

std::string to_csv(const TraceDataset& dataset) {
  common::CsvTable table;
  table.header = {"taxi_id", "timestamp", "lat", "lon", "kind"};
  for (const auto& event : dataset.all_events()) {
    table.rows.push_back({std::to_string(event.taxi_id), std::to_string(event.timestamp),
                          format_double(event.location.lat), format_double(event.location.lon),
                          kind_name(event.kind)});
  }
  return common::to_csv(table);
}

TraceDataset from_csv(const std::string& text) {
  const auto table = common::parse_csv(text);
  if (table.header.empty()) {
    return TraceDataset{};
  }
  const auto taxi_col = table.column("taxi_id");
  const auto time_col = table.column("timestamp");
  const auto lat_col = table.column("lat");
  const auto lon_col = table.column("lon");
  const auto kind_col = table.column("kind");

  std::vector<TraceEvent> events;
  events.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    events.push_back({parse_number<TaxiId>(row[taxi_col]), parse_number<Timestamp>(row[time_col]),
                      {parse_number<double>(row[lat_col]), parse_number<double>(row[lon_col])},
                      kind_from_name(row[kind_col])});
    MCS_EXPECTS(geo::within_wgs84(events.back().location),
                "coordinates out of range in trace CSV: " + row[lat_col] + "," + row[lon_col]);
  }
  return TraceDataset(std::move(events));
}

void save_csv(const std::filesystem::path& path, const TraceDataset& dataset) {
  common::text::write_file(path, to_csv(dataset), kFileKind);
}

TraceDataset load_csv(const std::filesystem::path& path) {
  return from_csv(common::text::read_file(path, kFileKind));
}

}  // namespace mcs::trace
