#include "trace/import.hpp"

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/text.hpp"

namespace mcs::trace {

using common::text::parse_number;

ImportResult import_trace_csv(const std::string& text, const ImportSpec& spec) {
  const auto table = common::parse_csv(text);
  ImportResult result;
  if (table.header.empty()) {
    return result;
  }
  const auto taxi_col = table.column(spec.taxi_column);
  const auto time_col = table.column(spec.time_column);
  const auto lat_col = table.column(spec.lat_column);
  const auto lon_col = table.column(spec.lon_column);
  const bool has_kind = !spec.kind_column.empty();
  const std::size_t kind_col = has_kind ? table.column(spec.kind_column) : 0;

  std::vector<TraceEvent> events;
  events.reserve(table.rows.size());
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    const auto reject = [&](const std::string& reason) {
      if (!spec.skip_malformed) {
        throw common::PreconditionError("trace import, data row " + std::to_string(r + 1) +
                                        ": " + reason);
      }
      result.skipped.push_back({r + 1, reason});
    };

    const auto taxi = parse_number<TaxiId>(row[taxi_col]);
    const auto time = parse_number<Timestamp>(row[time_col]);
    const auto lat = parse_number<double>(row[lat_col]);
    const auto lon = parse_number<double>(row[lon_col]);
    if (!taxi || !time || !lat || !lon) {
      reject("malformed number");
      continue;
    }
    if (!geo::within_wgs84({*lat, *lon})) {
      reject("coordinates out of range");
      continue;
    }
    EventKind kind = EventKind::kPickup;
    if (has_kind) {
      const auto& label = row[kind_col];
      if (label == spec.pickup_label) {
        kind = EventKind::kPickup;
      } else if (label == spec.dropoff_label) {
        kind = EventKind::kDropoff;
      } else {
        reject("unknown event kind '" + label + "'");
        continue;
      }
    }
    events.push_back({*taxi, *time, {*lat, *lon}, kind});
  }
  result.dataset = TraceDataset(std::move(events));
  return result;
}

}  // namespace mcs::trace
