// Streaming (mmap-backed) trace storage: a binary columnar snapshot of a
// TraceDataset plus a zero-copy reader (DESIGN.md §9). The text importer
// still parses CSV into an in-memory TraceDataset; write_trace_columns
// writes that dataset once into the column format, and MappedTraceDataset
// then serves any number of later runs directly from the page cache — the
// mobility learner touches only the taxi/timestamp/location lanes it needs,
// the kernel pages them in on demand, and private RSS stays near the index
// size instead of the full event payload.
//
// On-disk format "MCSTRCOL" version 1 (all fields little-endian; the header
// carries an explicit endianness tag and the reader rejects foreign files
// rather than byte-swapping):
//
//   offset 0   char     magic[8]   = "MCSTRCOL"
//          8   u32      version    = 1
//         12   u32      endian_tag = 0x01020304 (written in native order;
//                                    reads back as 0x04030201 on a
//                                    foreign-endian host)
//         16   u64      num_events = n
//         24   u64      num_taxis  = t
//         32   i64      timestamp[n]
//              f64      lat[n]
//              f64      lon[n]
//              i32      taxi_id[n]      (padded to 8 bytes)
//              u8       kind[n]         (padded to 8 bytes)
//              i32      index_taxi[t]   (distinct ids, ascending; padded)
//              u64      index_begin[t+1] (row ranges; entry t equals n)
//
// Rows are sorted exactly like TraceDataset::all_events() — by (taxi id,
// timestamp, pickup-before-dropoff) — so per-taxi rows are one contiguous
// [index_begin[k], index_begin[k+1]) slice per taxi and every column span
// returned by the reader aliases the mapping directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "trace/dataset.hpp"
#include "trace/record.hpp"

namespace mcs::trace {

/// Magic/version constants of the column format.
inline constexpr char kColumnFileMagic[8] = {'M', 'C', 'S', 'T', 'R', 'C', 'O', 'L'};
inline constexpr std::uint32_t kColumnFileVersion = 1;
inline constexpr std::uint32_t kColumnFileEndianTag = 0x01020304;

/// Writes `dataset` (sorted, indexed) into the column format at `path`,
/// replacing any existing file. Throws common::PreconditionError on I/O
/// failure.
void write_trace_columns(const TraceDataset& dataset, const std::string& path);

/// Read-only, mmap-backed view of a column file. Column accessors return
/// spans that alias the mapping (valid for the lifetime of this object);
/// nothing is deserialized up front, so opening a multi-gigabyte trace reads
/// only the header and the per-taxi index. Falls back to a heap read of the
/// whole file on platforms without mmap. Move-only.
class MappedTraceDataset {
 public:
  /// Opens and validates `path`. Throws common::PreconditionError when the
  /// file is missing, truncated, carries a foreign magic / version /
  /// endianness, or has an index whose taxi ids do not ascend or whose row
  /// ranges do not tile the rows.
  explicit MappedTraceDataset(const std::string& path);
  ~MappedTraceDataset();

  MappedTraceDataset(MappedTraceDataset&& other) noexcept;
  MappedTraceDataset& operator=(MappedTraceDataset&& other) noexcept;
  MappedTraceDataset(const MappedTraceDataset&) = delete;
  MappedTraceDataset& operator=(const MappedTraceDataset&) = delete;

  std::size_t size() const { return num_events_; }
  bool empty() const { return num_events_ == 0; }
  std::size_t num_taxis() const { return num_taxis_; }

  /// Whether the file is served by mmap (false on the heap-read fallback).
  bool is_mapped() const { return mapped_; }

  /// Column lanes, aliasing the mapping; rows sorted by (taxi, time).
  std::span<const Timestamp> timestamps() const { return {timestamps_, num_events_}; }
  std::span<const double> latitudes() const { return {lats_, num_events_}; }
  std::span<const double> longitudes() const { return {lons_, num_events_}; }
  std::span<const TaxiId> taxi_column() const { return {taxis_, num_events_}; }
  std::span<const std::uint8_t> kinds() const { return {kinds_, num_events_}; }

  /// Distinct taxi ids, ascending (copied out of the mapped index — the
  /// same shape TraceDataset::taxi_ids() returns).
  std::vector<TaxiId> taxi_ids() const;

  /// Row range [begin, end) of one taxi; (0, 0) when the taxi is unknown.
  std::pair<std::size_t, std::size_t> range_of(TaxiId taxi) const;

  /// Materializes one row as a TraceEvent (transposes the four lanes back).
  TraceEvent event_at(std::size_t row) const;

  /// Grid-cell visit sequence of one taxi, time order — the reader-side
  /// twin of TraceDataset::cell_sequence, streaming only the two location
  /// lanes of that taxi's row slice.
  std::vector<geo::CellId> cell_sequence(TaxiId taxi, const geo::GridMap& grid) const;

  /// Materializes the whole file back into an in-memory dataset (tests and
  /// tools; defeats the streaming purpose on large files).
  TraceDataset to_dataset() const;

 private:
  void release() noexcept;

  const std::byte* base_ = nullptr;  ///< mapping (or heap fallback buffer)
  std::size_t bytes_ = 0;
  bool mapped_ = false;

  std::size_t num_events_ = 0;
  std::size_t num_taxis_ = 0;
  const Timestamp* timestamps_ = nullptr;
  const double* lats_ = nullptr;
  const double* lons_ = nullptr;
  const TaxiId* taxis_ = nullptr;
  const std::uint8_t* kinds_ = nullptr;
  const TaxiId* index_taxi_ = nullptr;
  const std::uint64_t* index_begin_ = nullptr;  ///< num_taxis_ + 1 entries
};

}  // namespace mcs::trace
