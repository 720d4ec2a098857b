// Mutation fuzz for every input parser outside the journals (those are
// journal_fuzz_test's): auction instance files of both kinds, the trace CSV
// readers (the strict from_csv and the lenient import_trace_csv) and the
// MCSTRCOL column file's header and index. Each target gets seeded byte
// flips and, for the text formats, truncations and hostile-token field
// swaps (fuzz_drivers.hpp), and one contract:
//   * instance files: the parse throws PreconditionError, or the instance's
//     canonical text re-parses to the same text — the same bits;
//   * trace CSV: the read throws PreconditionError, or every event it keeps
//     has finite, in-range coordinates that the grid can bin;
//   * MCSTRCOL (header and index bytes): opening throws PreconditionError,
//     or the file it yields is consistent — taxi ids ascending, row ranges
//     tiling [0, size()).
// Never UB, never an out-of-bounds read: the sanitizer presets run this
// suite like every other.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "auction/io.hpp"
#include "common/check.hpp"
#include "common/csv.hpp"
#include "fuzz_drivers.hpp"
#include "geo/grid.hpp"
#include "trace/columnfile.hpp"
#include "trace/import.hpp"
#include "trace/io.hpp"

namespace mcs {
namespace {

using common::PreconditionError;

constexpr std::uint64_t kSeeds[] = {20260808, 7, 1234567};

/// Runs `check` over every mutant of `intact` the text drivers produce.
template <typename Check>
void fuzz_text(const std::string& intact, std::string_view name, std::string_view separators,
               Check check) {
  test::for_each_truncation(intact, name, check);
  for (const std::uint64_t seed : kSeeds) {
    test::for_each_byte_flip(intact, name, seed, check);
  }
  test::for_each_field_swap(intact, separators, test::hostile_tokens(), name, check);
}

// ---------------------------------------------------------------------------
// Auction instance files
// ---------------------------------------------------------------------------

const std::string kSingleTaskText =
    "# a hand-prepared single-task instance\n"
    "mcs-single-task-v1\r\n"
    "requirement 0.9   # the PoS target\n"
    "\n"
    "user 3.0 0.7\n"
    "user 2.5 0.33333333333333331\n"
    "user 1e-3 1\n";

const std::string kMultiTaskText =
    "mcs-multi-task-v1\n"
    "tasks 3\n"
    "requirement 0 0.8\n"
    "requirement 1 0.5   # comment\n"
    "requirement 2 0.25\n"
    "user 5.0 2 0:0.3 2:0.25\n"
    "user 2.5 1 1:0.9\n"
    "user 0.75 3 0:0.5 1:0.5 2:0.5\n";

/// The contract for one instance-file mutant.
template <typename Parse>
void expect_rejected_or_canonical(Parse parse, const std::string& text,
                                  const std::string& label) {
  std::string canonical;
  try {
    canonical = auction::to_text(parse(text));
  } catch (const PreconditionError&) {
    return;
  }
  try {
    EXPECT_EQ(auction::to_text(parse(canonical)), canonical) << label;
  } catch (const PreconditionError& error) {
    ADD_FAILURE() << label << ": canonical text does not re-parse: " << error.what();
  }
}

TEST(InputFuzz, SingleTaskInstanceFiles) {
  const auto parse = [](const std::string& text) { return auction::single_task_from_text(text); };
  ASSERT_EQ(parse(kSingleTaskText).bids.size(), 3u);
  fuzz_text(kSingleTaskText, "single-task", " \t\r\n",
            [&](const std::string& mutant, const std::string& label) {
              expect_rejected_or_canonical(parse, mutant, label);
            });
}

TEST(InputFuzz, MultiTaskInstanceFiles) {
  const auto parse = [](const std::string& text) { return auction::multi_task_from_text(text); };
  ASSERT_EQ(parse(kMultiTaskText).num_users(), 3u);
  fuzz_text(kMultiTaskText, "multi-task", " \t\r\n:",
            [&](const std::string& mutant, const std::string& label) {
              expect_rejected_or_canonical(parse, mutant, label);
            });
}

// ---------------------------------------------------------------------------
// Trace CSV
// ---------------------------------------------------------------------------

const std::string kTraceCsv =
    "taxi_id,timestamp,lat,lon,kind\n"
    "1,100,31.2345670,121.5432100,pickup\n"
    "1,200,31.3000000,121.6000000,dropoff\n"
    "2,150,-33.8688000,151.2093000,pickup\n"
    "7,90,89.9999999,-179.9999999,dropoff\n";

/// Every event in range, and every taxi's cell sequence computable.
void expect_binnable(const trace::TraceDataset& dataset, const std::string& label) {
  static const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  for (const auto& event : dataset.all_events()) {
    EXPECT_TRUE(geo::within_wgs84(event.location))
        << label << ": kept (" << event.location.lat << ", " << event.location.lon << ")";
  }
  for (const trace::TaxiId taxi : dataset.taxi_ids()) {
    EXPECT_EQ(dataset.cell_sequence(taxi, grid).size(), dataset.events_of(taxi).size()) << label;
  }
}

TEST(InputFuzz, StrictTraceCsv) {
  ASSERT_EQ(trace::from_csv(kTraceCsv).size(), 4u);
  fuzz_text(kTraceCsv, "trace CSV", ",\n",
            [](const std::string& mutant, const std::string& label) {
              trace::TraceDataset dataset;
              try {
                dataset = trace::from_csv(mutant);
              } catch (const PreconditionError&) {
                return;
              }
              expect_binnable(dataset, label);
            });
}

TEST(InputFuzz, LenientTraceImport) {
  ASSERT_EQ(trace::import_trace_csv(kTraceCsv).dataset.size(), 4u);
  trace::ImportSpec strict;
  strict.skip_malformed = false;
  fuzz_text(kTraceCsv, "trace import", ",\n",
            [&](const std::string& mutant, const std::string& label) {
              trace::ImportResult result;
              try {
                result = trace::import_trace_csv(mutant);
              } catch (const PreconditionError&) {
                return;  // a missing column or a ragged table: a spec error
              }
              expect_binnable(result.dataset, label);
              // Every data row is either kept or skipped with a reason.
              EXPECT_EQ(result.dataset.size() + result.skipped.size(),
                        common::parse_csv(mutant).rows.size())
                  << label;
              // Strict mode keeps the same rows, or throws when one is bad.
              try {
                EXPECT_EQ(trace::import_trace_csv(mutant, strict).dataset.size(),
                          result.dataset.size())
                    << label;
                EXPECT_TRUE(result.skipped.empty()) << label;
              } catch (const PreconditionError&) {
                EXPECT_FALSE(result.skipped.empty()) << label;
              }
            });
}

// ---------------------------------------------------------------------------
// MCSTRCOL column files
// ---------------------------------------------------------------------------

class ColumnFileFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    // A random name: builds of several trees may run this suite at once.
    path_ = (std::filesystem::temp_directory_path() /
             ("mcs_input_fuzz_" + std::to_string(std::random_device{}()) + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string read() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  std::string path_;
};

/// Taxi ids ascending, their row ranges tiling [0, size()) in order, and
/// every cell sequence either binned or refused (a non-finite lane value).
void expect_consistent(const trace::MappedTraceDataset& mapped, const std::string& label) {
  static const geo::GridMap grid(geo::shanghai_bounding_box(), 2000.0);
  const auto ids = mapped.taxi_ids();
  std::size_t next_row = 0;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (k > 0) {
      ASSERT_LT(ids[k - 1], ids[k]) << label;
    }
    const auto [begin, end] = mapped.range_of(ids[k]);
    ASSERT_EQ(begin, next_row) << label;
    ASSERT_LE(begin, end) << label;
    ASSERT_LE(end, mapped.size()) << label;
    try {
      EXPECT_EQ(mapped.cell_sequence(ids[k], grid).size(), end - begin) << label;
    } catch (const PreconditionError&) {
    }
    next_row = end;
  }
  EXPECT_EQ(next_row, mapped.size()) << label;
}

TEST_F(ColumnFileFuzz, HeaderAndIndexByteFlips) {
  trace::TraceDataset dataset;
  dataset.add({5, 100, {31.20, 121.50}, trace::EventKind::kPickup});
  dataset.add({1, 50, {31.25, 121.55}, trace::EventKind::kPickup});
  dataset.add({5, 90, {31.30, 121.60}, trace::EventKind::kDropoff});
  dataset.add({1, 50, {31.25, 121.55}, trace::EventKind::kDropoff});
  dataset.add({9, 10, {31.10, 121.40}, trace::EventKind::kPickup});
  trace::write_trace_columns(dataset, path_);
  const std::string intact = read();
  expect_consistent(trace::MappedTraceDataset(path_), "intact");

  // What opening validates: the 32-byte header and the index at the end of
  // the file (three taxi ids padded to 8 bytes, then four row starts). The
  // lanes between them are values a reader takes as stored.
  constexpr std::size_t kHeaderBytes = 32;
  constexpr std::size_t kIndexBytes = 16 + 4 * sizeof(std::uint64_t);
  const auto check = [&](const std::string& mutant, const std::string& label) {
    write(mutant);
    try {
      expect_consistent(trace::MappedTraceDataset(path_), label);
    } catch (const PreconditionError&) {
    }
  };
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    test::for_each_byte_flip(intact, "MCSTRCOL header", seed, check, 0, kHeaderBytes);
    test::for_each_byte_flip(intact, "MCSTRCOL index", seed, check, intact.size() - kIndexBytes);
  }
}

}  // namespace
}  // namespace mcs
