// The shared substrate of the append-only text journals: the campaign
// journal (platform/journal.hpp, mcs-journal-v1) and the service journal
// (service/journal.hpp, mcs-service-journal-v1). This module owns the block
// framing with its torn-tail rule, the append writer and the resume step; it
// scans, parses numbers and encodes doubles through common/text.hpp, and each
// journal keeps only its record codecs and its fingerprint.
//
// A journal file is
//
//     <header>                 # one line naming the format
//     config <fingerprint>     # the writer's configuration; optional
//     begin <kind> <id>        # zero or more blocks; the record codec owns
//     ...                      #   the lines between `begin` and `end`
//     end <kind> <id>
//
// Lines follow common/text.hpp's scanner rules, so `config` and `error` keep
// the raw remainder of their line; writers flatten newlines in that text to
// spaces, so a block can never be torn open by the message it carries.
// Doubles are written with text::format_double, which round-trips every
// double exactly, so a replayed record is bit-identical to the one appended.
//
// Torn tails. Every append is one flushed write, so a crash can only leave
// a torn suffix. The framing reads the text as follows:
//   * an unterminated strict prefix of the header is an empty journal; a
//     terminated first line that is not the header is a foreign file and
//     throws;
//   * a `config` line counts once its newline is written;
//   * a block counts once its newline-terminated `end <kind> <id>` line is
//     written; lines after the last such line are a torn append;
//   * a complete block that fails to parse is dropped, with everything after
//     it, only when no later line is an `end` line (a write torn mid-line can
//     leave a malformed but terminated last block); otherwise it is
//     corruption and parsing throws PreconditionError naming the journal and
//     the line;
//   * a format with sequential ids requires each kind's ids to run 0, 1, 2,
//     ... in file order; an out-of-sequence block is always corruption.
// valid_bytes is the length of the header, the config line and every
// complete block: the prefix a resume keeps.
//
// Resume (see resume()) checks the fingerprint, truncates the file to its
// valid prefix, so a torn tail never fuses with the next append, and opens
// the writer. A prefix without a complete config line holds no block, so
// resume starts such a file afresh.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/text.hpp"

namespace mcs::common::journal {

/// `text` with every '\n' and '\r' replaced by a space.
std::string flatten_newlines(std::string text);

/// One journal file format.
struct Format {
  std::string_view header;  ///< the first line, e.g. "mcs-journal-v1"
  std::string_view name;    ///< error prefix, e.g. "campaign journal"
  /// When set, each block kind's ids must run 0, 1, 2, ... in file order.
  bool sequential_ids = false;
};

using text::Line;

/// A cursor over the body of one complete block — the lines strictly between
/// its `begin <kind> <id>` and `end <kind> <id>` — plus the token parsers a
/// record codec needs. Every error names the journal and the line.
class BlockReader {
 public:
  BlockReader(const Format& format, const std::vector<Line>& lines, std::size_t begin,
              std::size_t end);

  const Line& begin_line() const { return lines_[begin_]; }
  std::string_view kind() const { return begin_line().tokens[1]; }
  std::uint64_t id() const { return id_; }

  bool at_end() const { return next_ == end_; }
  const Line& peek() const { return lines_[next_]; }
  /// The next body line, whatever its keyword.
  const Line& next();
  /// The next body line, which must be a `keyword` directive.
  const Line& expect(std::string_view keyword);
  /// `keyword <count> ...`: the next line's count.
  std::uint64_t expect_count(std::string_view keyword);
  /// Fails unless every body line has been read.
  void expect_end() const;

  /// Token `k` of `line` as a double / unsigned count / 32-bit id.
  double to_double(const Line& line, std::size_t k) const;
  std::uint64_t to_u64(const Line& line, std::size_t k) const;
  std::int32_t to_i32(const Line& line, std::size_t k) const;
  /// `keyword <value>`.
  double value(const Line& line) const;
  /// `keyword 0|1`.
  bool flag(const Line& line) const;
  /// `keyword <count> <id>...`, the count matching the ids listed.
  std::vector<std::int32_t> ids(const Line& line) const;

  /// Throws PreconditionError "<journal name>, line N: <message>".
  [[noreturn]] void fail(const Line& line, const std::string& message) const;

 private:
  /// Token `k` of `line`, which must exist.
  std::string_view token(const Line& line, std::size_t k) const;
  /// "'end <kind> <id>'", the line that closes this block.
  std::string end_line() const;

  const Format& format_;
  const std::vector<Line>& lines_;
  std::size_t begin_;
  std::size_t end_;
  std::size_t next_;
  std::uint64_t id_ = 0;
};

/// What framing reports besides the decoded blocks.
struct Frame {
  /// Byte length of the valid prefix — header, `config` line and every
  /// complete block. Anything past it is a torn tail.
  std::size_t valid_bytes = 0;
  /// The raw `config` fingerprint; empty when the journal has none.
  std::string config;
  /// Number of complete blocks decoded.
  std::size_t blocks = 0;
};

/// Decodes one complete block's body. It must read every body line, and
/// store its record only once the whole block has parsed.
using BlockDecoder = std::function<void(BlockReader&)>;

/// Frames `text` as a journal of `format` and hands every complete block,
/// in file order, to `decode`, under the torn-tail rule in the header
/// comment. It scans one block's lines at a time, so beside `text` it holds
/// only the block being decoded.
Frame parse(const Format& format, std::string_view text, const BlockDecoder& decode);

/// The text of the journal file at `path` (text::read_file); empty when
/// there is no file (the journal has not started).
std::string read(const Format& format, const std::filesystem::path& path);

/// Appends blocks to a journal file, starting a missing or empty file with
/// the header and, when non-empty, the `config` line. Each append is
/// flushed before returning, so the file never lags by more than the block
/// being written. `format` must outlive the writer (formats are
/// namespace-scope constants).
class Writer {
 public:
  Writer(const Format& format, const std::filesystem::path& path,
         const std::string& config_fingerprint = {});

  /// Installs the kJournalAppend fail point (a test/bench facility). The
  /// fault fires before any byte is written, so the file stays a valid
  /// prefix.
  void set_fault_injector(std::shared_ptr<const FaultInjector> injector);

  /// Appends one block's text; `id` is the kJournalAppend fault stream.
  void append(std::string_view block, std::uint64_t id);

 private:
  const Format* format_;
  std::filesystem::path path_;
  std::ofstream out_;
  std::shared_ptr<const FaultInjector> fault_injector_;
};

/// The resume step for the journal at `path`, already parsed into `journal`:
/// a journal with a `config` line must carry `config_fingerprint`, and one
/// without must hold no block. The file is truncated to its valid prefix —
/// to nothing when it has no complete `config` line — and a writer opened
/// on it. Throws PreconditionError on a fingerprint mismatch.
Writer resume(const Format& format, const std::filesystem::path& path, const Frame& journal,
              const std::string& config_fingerprint);

}  // namespace mcs::common::journal
