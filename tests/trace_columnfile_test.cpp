// Tests for the streaming column-file trace storage (DESIGN.md §9):
// write/read roundtrip fidelity against TraceDataset::all_events(), the
// zero-copy column spans and per-taxi row ranges, the FleetModel training
// twin, and the reader's rejection of corrupt headers (bad magic, foreign
// version, truncation).
#include "trace/columnfile.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "geo/grid.hpp"
#include "mobility/predictor.hpp"
#include "trace/generator.hpp"

namespace mcs::trace {
namespace {

class TraceColumnFile : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("mcs_columnfile_test_" +
              std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TraceDataset small_dataset() {
  TraceDataset dataset;
  dataset.add({5, 100, {31.20, 121.50}, EventKind::kPickup});
  dataset.add({1, 50, {31.25, 121.55}, EventKind::kPickup});
  dataset.add({5, 90, {31.30, 121.60}, EventKind::kDropoff});
  dataset.add({1, 50, {31.25, 121.55}, EventKind::kDropoff});
  dataset.add({9, 10, {31.10, 121.40}, EventKind::kPickup});
  return dataset;
}

TEST_F(TraceColumnFile, RoundtripReproducesAllEvents) {
  const auto dataset = small_dataset();
  write_trace_columns(dataset, path_);
  const MappedTraceDataset mapped(path_);

  ASSERT_EQ(mapped.size(), dataset.size());
  EXPECT_EQ(mapped.num_taxis(), dataset.taxi_ids().size());
  EXPECT_EQ(mapped.taxi_ids(), dataset.taxi_ids());

  const auto original = dataset.all_events();
  for (std::size_t row = 0; row < mapped.size(); ++row) {
    const auto event = mapped.event_at(row);
    EXPECT_EQ(event.taxi_id, original[row].taxi_id) << "row " << row;
    EXPECT_EQ(event.timestamp, original[row].timestamp) << "row " << row;
    EXPECT_EQ(event.location.lat, original[row].location.lat) << "row " << row;
    EXPECT_EQ(event.location.lon, original[row].location.lon) << "row " << row;
    EXPECT_EQ(event.kind, original[row].kind) << "row " << row;
  }

  // to_dataset materializes the identical dataset.
  const auto rebuilt = mapped.to_dataset();
  const auto rebuilt_events = rebuilt.all_events();
  ASSERT_EQ(rebuilt_events.size(), original.size());
  for (std::size_t row = 0; row < original.size(); ++row) {
    EXPECT_EQ(rebuilt_events[row].taxi_id, original[row].taxi_id);
    EXPECT_EQ(rebuilt_events[row].timestamp, original[row].timestamp);
    EXPECT_EQ(rebuilt_events[row].kind, original[row].kind);
  }
}

TEST_F(TraceColumnFile, ColumnSpansAndRangesMatchDataset) {
  const auto dataset = small_dataset();
  write_trace_columns(dataset, path_);
  const MappedTraceDataset mapped(path_);

  const auto timestamps = mapped.timestamps();
  const auto taxis = mapped.taxi_column();
  const auto original = dataset.all_events();
  ASSERT_EQ(timestamps.size(), original.size());
  for (std::size_t row = 0; row < original.size(); ++row) {
    EXPECT_EQ(timestamps[row], original[row].timestamp);
    EXPECT_EQ(taxis[row], original[row].taxi_id);
  }

  for (const TaxiId taxi : dataset.taxi_ids()) {
    const auto [begin, end] = mapped.range_of(taxi);
    const auto events = dataset.events_of(taxi);
    ASSERT_EQ(end - begin, events.size()) << "taxi " << taxi;
    for (std::size_t k = 0; k < events.size(); ++k) {
      EXPECT_EQ(mapped.event_at(begin + k).timestamp, events[k].timestamp);
    }
  }
  EXPECT_EQ(mapped.range_of(12345), (std::pair<std::size_t, std::size_t>{0, 0}));

  const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  for (const TaxiId taxi : dataset.taxi_ids()) {
    EXPECT_EQ(mapped.cell_sequence(taxi, grid), dataset.cell_sequence(taxi, grid))
        << "taxi " << taxi;
  }
}

TEST_F(TraceColumnFile, EmptyDatasetRoundtrips) {
  write_trace_columns(TraceDataset{}, path_);
  const MappedTraceDataset mapped(path_);
  EXPECT_TRUE(mapped.empty());
  EXPECT_EQ(mapped.num_taxis(), 0u);
  EXPECT_TRUE(mapped.taxi_ids().empty());
  EXPECT_TRUE(mapped.to_dataset().empty());
}

TEST_F(TraceColumnFile, FleetModelFromMappedMatchesInMemoryTraining) {
  // The streaming training path must learn the exact models the in-memory
  // path learns: same trace, same grid, same learner => identical
  // per-taxi transition rows and holdouts.
  trace::CityConfig config;
  config.num_taxis = 12;
  config.num_days = 3;
  config.trips_per_day = 8;
  const trace::CityModel city(config);
  const auto dataset = trace::generate_trace(city);
  write_trace_columns(dataset, path_);
  const MappedTraceDataset mapped(path_);

  const mobility::MarkovLearner learner(1.0);
  const mobility::FleetModel from_memory(dataset, city.grid(), learner, 0.8);
  const mobility::FleetModel from_mapped(mapped, city.grid(), learner, 0.8);

  ASSERT_EQ(from_mapped.taxis(), from_memory.taxis());
  for (const TaxiId taxi : from_memory.taxis()) {
    const auto& memory_model = from_memory.model(taxi);
    const auto& mapped_model = from_mapped.model(taxi);
    EXPECT_EQ(mapped_model.locations(), memory_model.locations()) << "taxi " << taxi;
    for (const geo::CellId cell : memory_model.locations()) {
      EXPECT_EQ(mapped_model.row(cell), memory_model.row(cell))
          << "taxi " << taxi << " cell " << cell;
    }
    EXPECT_EQ(from_mapped.holdout(taxi), from_memory.holdout(taxi)) << "taxi " << taxi;
  }
}

TEST_F(TraceColumnFile, RejectsBadMagicVersionAndTruncation) {
  write_trace_columns(small_dataset(), path_);

  auto corrupt_at = [&](std::streamoff offset, const char* bytes, std::size_t count) {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(offset);
    file.write(bytes, static_cast<std::streamsize>(count));
  };

  {
    const char bad_magic[8] = {'N', 'O', 'T', 'A', 'T', 'R', 'C', 'E'};
    corrupt_at(0, bad_magic, sizeof(bad_magic));
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
    corrupt_at(0, kColumnFileMagic, sizeof(kColumnFileMagic));  // restore
  }
  {
    const std::uint32_t bad_version = 999;
    corrupt_at(8, reinterpret_cast<const char*>(&bad_version), sizeof(bad_version));
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
    const std::uint32_t good_version = kColumnFileVersion;
    corrupt_at(8, reinterpret_cast<const char*>(&good_version), sizeof(good_version));
  }
  {
    // A byte-swapped endian tag marks a foreign-endian writer.
    const std::uint32_t swapped = 0x04030201;
    corrupt_at(12, reinterpret_cast<const char*>(&swapped), sizeof(swapped));
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
    const std::uint32_t native = kColumnFileEndianTag;
    corrupt_at(12, reinterpret_cast<const char*>(&native), sizeof(native));
  }
  {
    // Sanity: the restored file opens again, then truncation is rejected.
    EXPECT_NO_THROW(MappedTraceDataset{path_});
    std::filesystem::resize_file(path_, std::filesystem::file_size(path_) / 2);
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
  }
  {
    // Shorter than even the header.
    std::filesystem::resize_file(path_, 8);
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
  }
  EXPECT_THROW(MappedTraceDataset{path_ + ".does-not-exist"}, common::PreconditionError);
}

TEST_F(TraceColumnFile, TruncationAtEveryByteIsRejectedNotCrashed) {
  // Exhaustive truncation sweep: a file cut at ANY byte short of its full
  // layout — header boundaries, every lane boundary, every padding byte —
  // must throw PreconditionError, never read out of bounds. The sweep covers
  // every lane boundary by covering every byte.
  write_trace_columns(small_dataset(), path_);
  std::vector<char> full;
  {
    std::ifstream in(path_, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(full.size(), 32u);
  for (std::size_t size = 0; size < full.size(); ++size) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(size));
    }
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError) << "truncated to " << size;
  }
  // The untruncated file still opens: the sweep failed on size alone.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(full.data(), static_cast<std::streamsize>(full.size()));
  }
  EXPECT_NO_THROW(MappedTraceDataset{path_});
}

TEST_F(TraceColumnFile, HugeHeaderCountsAreRejectedBeforeLayoutOverflow) {
  // Regression: a corrupt header claiming ~2^64 events used to overflow the
  // layout arithmetic into a small wrapped total that passed the size check,
  // turning every lane pointer into an out-of-bounds read. The counts must
  // be rejected against the file size BEFORE any layout math.
  write_trace_columns(small_dataset(), path_);
  auto corrupt_at = [&](std::streamoff offset, const void* bytes, std::size_t count) {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(offset);
    file.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(count));
  };
  const std::uint64_t original_n = 5;
  const std::uint64_t original_t = 3;
  for (const std::uint64_t huge :
       {std::uint64_t{0xFFFFFFFFFFFFFFF0ULL}, std::uint64_t{1} << 61, std::uint64_t{100000}}) {
    corrupt_at(16, &huge, sizeof(huge));  // event count lane
    try {
      MappedTraceDataset mapped{path_};
      FAIL() << "event count " << huge << " should have been rejected";
    } catch (const common::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(path_), std::string::npos)
          << "error must name the file: " << e.what();
    }
    corrupt_at(16, &original_n, sizeof(original_n));

    corrupt_at(24, &huge, sizeof(huge));  // taxi count lane
    EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError) << "taxi count " << huge;
    corrupt_at(24, &original_t, sizeof(original_t));
  }
  EXPECT_NO_THROW(MappedTraceDataset{path_});
}

TEST_F(TraceColumnFile, OpenFailuresNameThePath) {
  const std::string missing = path_ + ".does-not-exist";
  try {
    MappedTraceDataset mapped{missing};
    FAIL() << "opening a missing file should throw";
  } catch (const common::PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << "error must name the file: " << e.what();
  }
  // Truncated-before-header failures name the path and the byte counts.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write("MCSTRCOL", 8);
  }
  try {
    MappedTraceDataset mapped{path_};
    FAIL() << "a header-short file should throw";
  } catch (const common::PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path_), std::string::npos) << what;
    EXPECT_NE(what.find("8"), std::string::npos) << what;
  }
}

TEST_F(TraceColumnFile, CorruptIndexIsRejectedAtOpen) {
  // The index bounds every lane read: a row range past the last row, or
  // taxi ids out of order, must fail at open rather than on a later read.
  // small_dataset() has 3 taxis; the index ends the file with their ids
  // (12 bytes, padded to 16) and then 4 row starts {0, 2, 4, 5}.
  write_trace_columns(small_dataset(), path_);
  const auto size = static_cast<std::streamoff>(std::filesystem::file_size(path_));
  const std::streamoff ids_at = size - 16 - 4 * 8;
  const std::streamoff begins_at = size - 4 * 8;
  auto overwrite = [&](std::streamoff offset, const void* bytes, std::size_t count) {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(offset);
    file.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(count));
  };
  const std::uint64_t past_the_end = 1000;
  overwrite(begins_at + 8, &past_the_end, sizeof(past_the_end));
  EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
  const std::uint64_t two = 2;
  overwrite(begins_at + 8, &two, sizeof(two));
  EXPECT_NO_THROW(MappedTraceDataset{path_});

  const TaxiId descending[3] = {9, 5, 1};
  overwrite(ids_at, descending, sizeof(descending));
  EXPECT_THROW(MappedTraceDataset{path_}, common::PreconditionError);
}

TEST_F(TraceColumnFile, NonFiniteLaneValuesThrowInsteadOfReachingTheCast) {
  // TraceDataset takes events as given; a column file can therefore carry a
  // NaN or infinite coordinate, and both cell_sequence twins must refuse it.
  TraceDataset dataset;
  dataset.add({1, 10, {31.2, 121.5}, EventKind::kPickup});
  dataset.add({1, 20, {std::numeric_limits<double>::quiet_NaN(), 121.5}, EventKind::kDropoff});
  dataset.add({2, 30, {31.2, std::numeric_limits<double>::infinity()}, EventKind::kPickup});
  write_trace_columns(dataset, path_);
  const MappedTraceDataset mapped(path_);
  const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  for (const TaxiId taxi : {1, 2}) {
    EXPECT_THROW(mapped.cell_sequence(taxi, grid), common::PreconditionError) << taxi;
    EXPECT_THROW(dataset.cell_sequence(taxi, grid), common::PreconditionError) << taxi;
  }
}

}  // namespace
}  // namespace mcs::trace
