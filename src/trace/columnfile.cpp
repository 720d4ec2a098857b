#include "trace/columnfile.hpp"

#include <algorithm>
#include <cstdio>
#include <cerrno>
#include <cstring>
#include <new>

#include "common/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MCS_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define MCS_HAVE_MMAP 0
#endif

namespace mcs::trace {

namespace {

/// Pads a byte offset up to the 8-byte alignment every column starts on.
std::size_t pad8(std::size_t offset) { return (offset + 7) & ~std::size_t{7}; }

constexpr std::size_t kHeaderBytes = 32;

/// Column offsets for n events and t taxis; `total` is the file size.
struct Layout {
  std::size_t timestamps = 0;
  std::size_t lats = 0;
  std::size_t lons = 0;
  std::size_t taxis = 0;
  std::size_t kinds = 0;
  std::size_t index_taxi = 0;
  std::size_t index_begin = 0;
  std::size_t total = 0;
};

Layout layout_for(std::size_t n, std::size_t t) {
  Layout layout;
  std::size_t offset = kHeaderBytes;
  layout.timestamps = offset;
  offset += n * sizeof(Timestamp);
  layout.lats = offset;
  offset += n * sizeof(double);
  layout.lons = offset;
  offset += n * sizeof(double);
  layout.taxis = offset;
  offset = pad8(offset + n * sizeof(TaxiId));
  layout.kinds = offset;
  offset = pad8(offset + n * sizeof(std::uint8_t));
  layout.index_taxi = offset;
  offset = pad8(offset + t * sizeof(TaxiId));
  layout.index_begin = offset;
  offset += (t + 1) * sizeof(std::uint64_t);
  layout.total = offset;
  return layout;
}

/// RAII stdio handle; good enough for one sequential write pass.
struct File {
  std::FILE* handle = nullptr;
  ~File() {
    if (handle != nullptr) {
      std::fclose(handle);
    }
  }
};

void write_bytes(std::FILE* out, const void* data, std::size_t bytes, const char* what) {
  if (bytes == 0) {
    return;  // empty column: fwrite(nullptr, ...) would be UB
  }
  MCS_EXPECTS(std::fwrite(data, 1, bytes, out) == bytes, what);
}

void pad_to(std::FILE* out, std::size_t& written, std::size_t target) {
  static constexpr char kZeros[8] = {};
  MCS_EXPECTS(target >= written && target - written < sizeof(kZeros), "bad column padding");
  if (target > written) {
    write_bytes(out, kZeros, target - written, "failed to write column padding");
    written = target;
  }
}

}  // namespace

void write_trace_columns(const TraceDataset& dataset, const std::string& path) {
  const auto events = dataset.all_events();  // sorted by (taxi, time)
  const auto ids = dataset.taxi_ids();
  const std::size_t n = events.size();
  const std::size_t t = ids.size();
  const Layout layout = layout_for(n, t);

  File out;
  out.handle = std::fopen(path.c_str(), "wb");
  MCS_EXPECTS(out.handle != nullptr, "cannot open column file for writing");

  char header[kHeaderBytes] = {};
  std::memcpy(header, kColumnFileMagic, sizeof(kColumnFileMagic));
  const std::uint32_t version = kColumnFileVersion;
  const std::uint32_t endian = kColumnFileEndianTag;
  const std::uint64_t n64 = n;
  const std::uint64_t t64 = t;
  std::memcpy(header + 8, &version, sizeof(version));
  std::memcpy(header + 12, &endian, sizeof(endian));
  std::memcpy(header + 16, &n64, sizeof(n64));
  std::memcpy(header + 24, &t64, sizeof(t64));
  write_bytes(out.handle, header, sizeof(header), "failed to write column header");
  std::size_t written = kHeaderBytes;

  // Transpose one column at a time through a reused buffer: peak extra
  // memory is one lane, not a second copy of the events.
  std::vector<Timestamp> timestamps(n);
  for (std::size_t k = 0; k < n; ++k) {
    timestamps[k] = events[k].timestamp;
  }
  write_bytes(out.handle, timestamps.data(), n * sizeof(Timestamp),
              "failed to write timestamp column");
  written += n * sizeof(Timestamp);
  timestamps.clear();
  timestamps.shrink_to_fit();

  std::vector<double> coords(n);
  for (std::size_t k = 0; k < n; ++k) {
    coords[k] = events[k].location.lat;
  }
  write_bytes(out.handle, coords.data(), n * sizeof(double), "failed to write lat column");
  written += n * sizeof(double);
  for (std::size_t k = 0; k < n; ++k) {
    coords[k] = events[k].location.lon;
  }
  write_bytes(out.handle, coords.data(), n * sizeof(double), "failed to write lon column");
  written += n * sizeof(double);
  coords.clear();
  coords.shrink_to_fit();

  std::vector<TaxiId> taxis(n);
  for (std::size_t k = 0; k < n; ++k) {
    taxis[k] = events[k].taxi_id;
  }
  write_bytes(out.handle, taxis.data(), n * sizeof(TaxiId), "failed to write taxi column");
  written += n * sizeof(TaxiId);
  pad_to(out.handle, written, layout.kinds);
  taxis.clear();
  taxis.shrink_to_fit();

  std::vector<std::uint8_t> kinds(n);
  for (std::size_t k = 0; k < n; ++k) {
    kinds[k] = static_cast<std::uint8_t>(events[k].kind);
  }
  write_bytes(out.handle, kinds.data(), n * sizeof(std::uint8_t), "failed to write kind column");
  written += n * sizeof(std::uint8_t);
  pad_to(out.handle, written, layout.index_taxi);

  write_bytes(out.handle, ids.data(), t * sizeof(TaxiId), "failed to write taxi index");
  written += t * sizeof(TaxiId);
  pad_to(out.handle, written, layout.index_begin);

  std::vector<std::uint64_t> begins;
  begins.reserve(t + 1);
  for (TaxiId taxi : ids) {
    const auto range = dataset.events_of(taxi);
    begins.push_back(static_cast<std::uint64_t>(range.data() - events.data()));
  }
  begins.push_back(n);
  write_bytes(out.handle, begins.data(), (t + 1) * sizeof(std::uint64_t),
              "failed to write range index");
  written += (t + 1) * sizeof(std::uint64_t);
  MCS_ENSURES(written == layout.total, "column layout mismatch on write");
  MCS_EXPECTS(std::fflush(out.handle) == 0, "failed to flush column file");
}

MappedTraceDataset::MappedTraceDataset(const std::string& path) {
  // Every failure throws PreconditionError NAMING THE PATH — an open/corrupt
  // file surfaces as a diagnosable exception, never an errno crash or (see
  // the count validation below) an out-of-bounds lane read.
#if MCS_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  MCS_EXPECTS(fd >= 0, "cannot open column file " + path + ": " + std::strerror(errno));
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    MCS_EXPECTS(false, "cannot stat column file " + path + ": " + detail);
  }
  bytes_ = static_cast<std::size_t>(st.st_size);
  if (bytes_ < kHeaderBytes) {
    ::close(fd);
    MCS_EXPECTS(false, "column file " + path + " truncated before header (" +
                           std::to_string(bytes_) + " of " + std::to_string(kHeaderBytes) +
                           " header bytes)");
  }
  void* mapping = ::mmap(nullptr, bytes_, PROT_READ, MAP_PRIVATE, fd, 0);
  const std::string mmap_detail = mapping == MAP_FAILED ? std::strerror(errno) : std::string();
  ::close(fd);  // the mapping keeps the file alive
  MCS_EXPECTS(mapping != MAP_FAILED, "mmap of column file " + path + " failed: " + mmap_detail);
  base_ = static_cast<const std::byte*>(mapping);
  mapped_ = true;
#else
  // No mmap on this platform: fall back to one heap read. Same accessors,
  // no streaming benefit.
  File in;
  in.handle = std::fopen(path.c_str(), "rb");
  MCS_EXPECTS(in.handle != nullptr, "cannot open column file " + path);
  std::fseek(in.handle, 0, SEEK_END);
  bytes_ = static_cast<std::size_t>(std::ftell(in.handle));
  std::fseek(in.handle, 0, SEEK_SET);
  MCS_EXPECTS(bytes_ >= kHeaderBytes, "column file " + path + " truncated before header (" +
                                          std::to_string(bytes_) + " of " +
                                          std::to_string(kHeaderBytes) + " header bytes)");
  auto* buffer = static_cast<std::byte*>(::operator new(bytes_, std::align_val_t{8}));
  if (std::fread(buffer, 1, bytes_, in.handle) != bytes_) {
    ::operator delete(buffer, std::align_val_t{8});
    MCS_EXPECTS(false, "failed to read column file " + path);
  }
  base_ = buffer;
  mapped_ = false;
#endif

  // From here the mapping (or heap buffer) is established but the object is
  // not: a throwing constructor never runs the destructor, so any validation
  // failure must release() before propagating or the resource leaks.
  try {
    MCS_EXPECTS(std::memcmp(base_, kColumnFileMagic, sizeof(kColumnFileMagic)) == 0,
                "not a trace column file (bad magic): " + path);
    std::uint32_t version = 0;
    std::uint32_t endian = 0;
    std::uint64_t n64 = 0;
    std::uint64_t t64 = 0;
    std::memcpy(&version, base_ + 8, sizeof(version));
    std::memcpy(&endian, base_ + 12, sizeof(endian));
    std::memcpy(&n64, base_ + 16, sizeof(n64));
    std::memcpy(&t64, base_ + 24, sizeof(t64));
    MCS_EXPECTS(version == kColumnFileVersion,
                "unsupported trace column file version in " + path);
    MCS_EXPECTS(endian == kColumnFileEndianTag,
                "trace column file " + path + " written on a foreign-endian host");
    // Counts a file of this size cannot possibly hold are corruption — and
    // must be rejected BEFORE layout_for: huge n64/t64 would overflow the
    // layout arithmetic into a wrapped `total` that passes the size check
    // and turns every lane pointer into an out-of-bounds read. Each event
    // occupies at least 29 lane bytes and each taxi at least 12, so counts
    // within these bounds cannot overflow the layout sums.
    const std::size_t lane_bytes = bytes_ - kHeaderBytes;
    constexpr std::size_t kMinEventBytes =
        sizeof(Timestamp) + 2 * sizeof(double) + sizeof(TaxiId) + sizeof(std::uint8_t);
    constexpr std::size_t kMinTaxiBytes = sizeof(TaxiId) + sizeof(std::uint64_t);
    MCS_EXPECTS(n64 <= lane_bytes / kMinEventBytes,
                "column file " + path + " header claims " + std::to_string(n64) +
                    " events, more than its " + std::to_string(bytes_) + " bytes can hold");
    MCS_EXPECTS(t64 <= lane_bytes / kMinTaxiBytes,
                "column file " + path + " header claims " + std::to_string(t64) +
                    " taxis, more than its " + std::to_string(bytes_) + " bytes can hold");
    num_events_ = static_cast<std::size_t>(n64);
    num_taxis_ = static_cast<std::size_t>(t64);
    const Layout layout = layout_for(num_events_, num_taxis_);
    MCS_EXPECTS(bytes_ >= layout.total,
                "column file " + path + " truncated: " + std::to_string(bytes_) + " bytes, " +
                    std::to_string(layout.total) + " needed for its lanes");

    timestamps_ = reinterpret_cast<const Timestamp*>(base_ + layout.timestamps);
    lats_ = reinterpret_cast<const double*>(base_ + layout.lats);
    lons_ = reinterpret_cast<const double*>(base_ + layout.lons);
    taxis_ = reinterpret_cast<const TaxiId*>(base_ + layout.taxis);
    kinds_ = reinterpret_cast<const std::uint8_t*>(base_ + layout.kinds);
    index_taxi_ = reinterpret_cast<const TaxiId*>(base_ + layout.index_taxi);
    index_begin_ = reinterpret_cast<const std::uint64_t*>(base_ + layout.index_begin);
    // The index bounds every lane read: ids ascending, ranges tiling [0, n).
    bool index_ok = index_begin_[0] == 0 && index_begin_[num_taxis_] == num_events_;
    for (std::size_t k = 0; index_ok && k < num_taxis_; ++k) {
      index_ok = index_begin_[k] < index_begin_[k + 1] &&
                 (k == 0 || index_taxi_[k - 1] < index_taxi_[k]);
    }
    MCS_EXPECTS(index_ok, "corrupt range index in " + path);
  } catch (...) {
    release();
    throw;
  }
}

void MappedTraceDataset::release() noexcept {
  if (base_ == nullptr) {
    return;
  }
#if MCS_HAVE_MMAP
  ::munmap(const_cast<std::byte*>(base_), bytes_);
#else
  ::operator delete(const_cast<std::byte*>(base_), std::align_val_t{8});
#endif
  base_ = nullptr;
  bytes_ = 0;
}

MappedTraceDataset::~MappedTraceDataset() { release(); }

MappedTraceDataset::MappedTraceDataset(MappedTraceDataset&& other) noexcept {
  *this = std::move(other);
}

MappedTraceDataset& MappedTraceDataset::operator=(MappedTraceDataset&& other) noexcept {
  if (this != &other) {
    release();
    base_ = other.base_;
    bytes_ = other.bytes_;
    mapped_ = other.mapped_;
    num_events_ = other.num_events_;
    num_taxis_ = other.num_taxis_;
    timestamps_ = other.timestamps_;
    lats_ = other.lats_;
    lons_ = other.lons_;
    taxis_ = other.taxis_;
    kinds_ = other.kinds_;
    index_taxi_ = other.index_taxi_;
    index_begin_ = other.index_begin_;
    other.base_ = nullptr;
    other.bytes_ = 0;
    other.num_events_ = 0;
    other.num_taxis_ = 0;
  }
  return *this;
}

std::vector<TaxiId> MappedTraceDataset::taxi_ids() const {
  return std::vector<TaxiId>(index_taxi_, index_taxi_ + num_taxis_);
}

std::pair<std::size_t, std::size_t> MappedTraceDataset::range_of(TaxiId taxi) const {
  const TaxiId* end = index_taxi_ + num_taxis_;
  const TaxiId* it = std::lower_bound(index_taxi_, end, taxi);
  if (it == end || *it != taxi) {
    return {0, 0};
  }
  const std::size_t slot = static_cast<std::size_t>(it - index_taxi_);
  return {static_cast<std::size_t>(index_begin_[slot]),
          static_cast<std::size_t>(index_begin_[slot + 1])};
}

TraceEvent MappedTraceDataset::event_at(std::size_t row) const {
  MCS_EXPECTS(row < num_events_, "row out of range");
  TraceEvent event;
  event.taxi_id = taxis_[row];
  event.timestamp = timestamps_[row];
  event.location = geo::LatLon{lats_[row], lons_[row]};
  event.kind = static_cast<EventKind>(kinds_[row]);
  return event;
}

std::vector<geo::CellId> MappedTraceDataset::cell_sequence(TaxiId taxi,
                                                           const geo::GridMap& grid) const {
  const auto [begin, end] = range_of(taxi);
  std::vector<geo::CellId> cells;
  cells.reserve(end - begin);
  for (std::size_t row = begin; row < end; ++row) {
    cells.push_back(grid.cell_of(geo::LatLon{lats_[row], lons_[row]}));
  }
  return cells;
}

TraceDataset MappedTraceDataset::to_dataset() const {
  std::vector<TraceEvent> events;
  events.reserve(num_events_);
  for (std::size_t row = 0; row < num_events_; ++row) {
    events.push_back(event_at(row));
  }
  return TraceDataset(std::move(events));
}

}  // namespace mcs::trace
