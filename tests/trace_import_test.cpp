// Tests for the flexible trace importer: column mapping, kind labels,
// malformed-row policies, and coordinate validation.
#include "trace/import.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace mcs::trace {
namespace {

constexpr const char* kForeignCsv =
    "vehicle,unix_time,latitude,longitude,event\n"
    "7,1000,31.2,121.5,P\n"
    "7,2000,31.3,121.6,D\n"
    "9,1500,31.1,121.4,P\n";

ImportSpec foreign_spec() {
  ImportSpec spec;
  spec.taxi_column = "vehicle";
  spec.time_column = "unix_time";
  spec.lat_column = "latitude";
  spec.lon_column = "longitude";
  spec.kind_column = "event";
  spec.pickup_label = "P";
  spec.dropoff_label = "D";
  return spec;
}

TEST(TraceImport, MapsForeignColumns) {
  const auto result = import_trace_csv(kForeignCsv, foreign_spec());
  EXPECT_TRUE(result.skipped.empty());
  ASSERT_EQ(result.dataset.size(), 3u);
  const auto events = result.dataset.events_of(7);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kPickup);
  EXPECT_EQ(events[1].kind, EventKind::kDropoff);
  EXPECT_NEAR(events[1].location.lat, 31.3, 1e-9);
}

TEST(TraceImport, DefaultSpecReadsCanonicalSchema) {
  const auto result = import_trace_csv(
      "taxi_id,timestamp,lat,lon,kind\n1,100,31.2,121.5,pickup\n");
  EXPECT_TRUE(result.skipped.empty());
  EXPECT_EQ(result.dataset.size(), 1u);
}

TEST(TraceImport, MissingKindColumnMeansAllPickups) {
  ImportSpec spec;
  spec.kind_column.clear();
  const auto result =
      import_trace_csv("taxi_id,timestamp,lat,lon\n1,100,31.2,121.5\n1,200,31.3,121.6\n", spec);
  ASSERT_EQ(result.dataset.size(), 2u);
  for (const auto& event : result.dataset.all_events()) {
    EXPECT_EQ(event.kind, EventKind::kPickup);
  }
}

TEST(TraceImport, SkipsMalformedRowsWithReasons) {
  const auto result = import_trace_csv(
      "taxi_id,timestamp,lat,lon,kind\n"
      "1,100,31.2,121.5,pickup\n"
      "x,200,31.3,121.6,pickup\n"      // bad taxi id
      "2,300,91.0,121.6,pickup\n"      // latitude out of range
      "3,400,31.4,121.7,teleport\n"    // bad kind
      "4,500,31.5,121.8,dropoff\n");
  EXPECT_EQ(result.dataset.size(), 2u);
  ASSERT_EQ(result.skipped.size(), 3u);
  EXPECT_EQ(result.skipped[0].row, 2u);
  EXPECT_NE(result.skipped[0].reason.find("malformed"), std::string::npos);
  EXPECT_EQ(result.skipped[1].row, 3u);
  EXPECT_NE(result.skipped[1].reason.find("out of range"), std::string::npos);
  EXPECT_EQ(result.skipped[2].row, 4u);
}

TEST(TraceImport, StrictModeThrowsOnFirstBadRow) {
  ImportSpec spec;
  spec.skip_malformed = false;
  EXPECT_THROW(import_trace_csv("taxi_id,timestamp,lat,lon,kind\nx,1,31.2,121.5,pickup\n", spec),
               common::PreconditionError);
}

TEST(TraceImport, MissingMappedColumnAlwaysThrows) {
  ImportSpec spec;
  spec.taxi_column = "nonexistent";
  EXPECT_THROW(import_trace_csv(kForeignCsv, spec), common::PreconditionError);
}

TEST(TraceImport, EmptyInputYieldsEmptyResult) {
  const auto result = import_trace_csv("");
  EXPECT_TRUE(result.dataset.empty());
  EXPECT_TRUE(result.skipped.empty());
}

TEST(TraceImport, NonFiniteCoordinatesAreOutOfRange) {
  const std::string csv =
      "taxi_id,timestamp,lat,lon,kind\n"
      "1,100,nan,121.5,pickup\n"
      "2,100,31.2,inf,pickup\n"
      "3,100,-nan,-inf,pickup\n"
      "4,100,31.2,121.5,pickup\n";
  const auto result = import_trace_csv(csv);
  ASSERT_EQ(result.dataset.size(), 1u);
  EXPECT_EQ(result.dataset.all_events()[0].taxi_id, 4);
  ASSERT_EQ(result.skipped.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(result.skipped[k].row, k + 1);
    EXPECT_EQ(result.skipped[k].reason, "coordinates out of range");
  }
  ImportSpec strict;
  strict.skip_malformed = false;
  try {
    import_trace_csv(csv, strict);
    FAIL() << "a NaN latitude must be rejected";
  } catch (const common::PreconditionError& error) {
    EXPECT_EQ(std::string(error.what()), "trace import, data row 1: coordinates out of range");
  }
}

}  // namespace
}  // namespace mcs::trace
