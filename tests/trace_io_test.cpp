// Unit tests for trace CSV persistence: round trips and malformed inputs.
#include "trace/io.hpp"

#include <filesystem>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "trace/generator.hpp"

namespace mcs::trace {
namespace {

TraceDataset sample_dataset() {
  TraceDataset dataset;
  dataset.add({1, 100, {31.234567, 121.543210}, EventKind::kPickup});
  dataset.add({1, 200, {31.3, 121.6}, EventKind::kDropoff});
  dataset.add({2, 150, {31.1, 121.4}, EventKind::kPickup});
  return dataset;
}

TEST(TraceIo, RoundTripPreservesEvents) {
  const auto original = sample_dataset();
  const auto restored = from_csv(to_csv(original));
  ASSERT_EQ(restored.size(), original.size());
  const auto a = original.all_events();
  const auto b = restored.all_events();
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].taxi_id, b[k].taxi_id);
    EXPECT_EQ(a[k].timestamp, b[k].timestamp);
    EXPECT_EQ(a[k].kind, b[k].kind);
    EXPECT_NEAR(a[k].location.lat, b[k].location.lat, 1e-6);
    EXPECT_NEAR(a[k].location.lon, b[k].location.lon, 1e-6);
  }
}

TEST(TraceIo, EmptyDatasetRoundTrips) {
  const auto restored = from_csv(to_csv(TraceDataset{}));
  EXPECT_TRUE(restored.empty());
  EXPECT_TRUE(from_csv("").empty());
}

TEST(TraceIo, GeneratedTraceRoundTrips) {
  CityConfig config;
  config.num_taxis = 3;
  config.num_days = 1;
  config.trips_per_day = 5;
  const CityModel city(config);
  const auto original = generate_trace(city);
  const auto restored = from_csv(to_csv(original));
  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.taxi_ids(), original.taxi_ids());
}

TEST(TraceIo, RejectsUnknownKind) {
  EXPECT_THROW(from_csv("taxi_id,timestamp,lat,lon,kind\n1,100,31.2,121.5,teleport\n"),
               common::PreconditionError);
}

TEST(TraceIo, RejectsMalformedNumbers) {
  EXPECT_THROW(from_csv("taxi_id,timestamp,lat,lon,kind\nabc,100,31.2,121.5,pickup\n"),
               common::PreconditionError);
  EXPECT_THROW(from_csv("taxi_id,timestamp,lat,lon,kind\n1,100,not-a-lat,121.5,pickup\n"),
               common::PreconditionError);
}

TEST(TraceIo, RejectsMissingColumns) {
  EXPECT_THROW(from_csv("taxi_id,timestamp\n1,100\n"), common::PreconditionError);
}

TEST(TraceIo, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "mcs_trace_io_test.csv";
  const auto original = sample_dataset();
  save_csv(path, original);
  const auto restored = load_csv(path);
  EXPECT_EQ(restored.size(), original.size());
  std::filesystem::remove(path);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_csv("/nonexistent/missing_trace.csv"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Golden bytes and error texts: the CSV writer's exact output (coordinates
// in fixed 7-decimal notation, RFC 4180-style quoting) and the reader's
// diagnostics are what saved traces and their users depend on.
// ---------------------------------------------------------------------------

TEST(TraceCsvGolden, TraceBytes) {
  TraceDataset dataset;
  dataset.add({2, 150, {-33.8688, 151.2093}, EventKind::kPickup});
  dataset.add({1, 200, {31.3, 121.6}, EventKind::kDropoff});
  dataset.add({1, 100, {31.23456789, 121.54321}, EventKind::kPickup});
  EXPECT_EQ(to_csv(dataset),
            "taxi_id,timestamp,lat,lon,kind\n"
            "1,100,31.2345679,121.5432100,pickup\n"
            "1,200,31.3000000,121.6000000,dropoff\n"
            "2,150,-33.8688000,151.2093000,pickup\n");
}

TEST(TraceCsvGolden, TableQuoting) {
  common::CsvTable table;
  table.header = {"id", "text"};
  table.rows = {{"1", "plain"},    {"2", "with, comma"}, {"3", "with \"quote\""},
                {"4", "a\nb"},      {"5", ""},            {"6", "cr\rstays bare"}};
  EXPECT_EQ(common::to_csv(table),
            "id,text\n"
            "1,plain\n"
            "2,\"with, comma\"\n"
            "3,\"with \"\"quote\"\"\"\n"
            "4,\"a\nb\"\n"
            "5,\n"
            "6,cr\rstays bare\n");
}

TEST(TraceCsvGolden, ErrorTexts) {
  const auto error_text = [](const std::string& text) -> std::string {
    try {
      from_csv(text);
    } catch (const common::PreconditionError& error) {
      return error.what();
    }
    return "";
  };
  // MCS_EXPECTS appends the failed check and its source location, so only
  // the message before that suffix is pinned.
  const auto message = [](const std::string& what) { return what.substr(0, what.find(" [")); };
  EXPECT_EQ(message(error_text("taxi_id,timestamp,lat,lon,kind\nabc,100,31.2,121.5,pickup\n")),
            "precondition violated: malformed number in trace CSV: abc");
  EXPECT_EQ(message(error_text("taxi_id,timestamp,lat,lon,kind\n1,100,31.2x,121.5,pickup\n")),
            "precondition violated: malformed number in trace CSV: 31.2x");
  EXPECT_EQ(message(error_text("taxi_id,timestamp,lat,lon,kind\n1,100,31.2,121.5,teleport\n")),
            "unknown trace event kind: teleport");
  try {
    load_csv("/nonexistent/missing_trace.csv");
    FAIL() << "expected an I/O error";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "cannot open trace file for reading: /nonexistent/missing_trace.csv");
  }
}

TEST(TraceIo, RejectsNonFiniteAndOutOfRangeCoordinates) {
  const auto error_text = [](const std::string& row) -> std::string {
    try {
      from_csv("taxi_id,timestamp,lat,lon,kind\n" + row + "\n");
    } catch (const common::PreconditionError& error) {
      const std::string what = error.what();
      return what.substr(0, what.find(" ["));
    }
    return "";
  };
  EXPECT_EQ(error_text("1,100,nan,121.5,pickup"),
            "precondition violated: coordinates out of range in trace CSV: nan,121.5");
  EXPECT_EQ(error_text("1,100,31.2,-inf,pickup"),
            "precondition violated: coordinates out of range in trace CSV: 31.2,-inf");
  EXPECT_EQ(error_text("1,100,1e300,121.5,dropoff"),
            "precondition violated: coordinates out of range in trace CSV: 1e300,121.5");
  EXPECT_EQ(error_text("1,100,31.2,180.5,pickup"),
            "precondition violated: coordinates out of range in trace CSV: 31.2,180.5");
  // The boundary itself is a coordinate.
  EXPECT_EQ(error_text("1,100,-90,180,pickup"), "");
}

}  // namespace
}  // namespace mcs::trace
