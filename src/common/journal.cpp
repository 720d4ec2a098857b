#include "common/journal.hpp"

#include <charconv>
#include <limits>
#include <map>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "common/check.hpp"

namespace mcs::common::journal {

namespace {

/// The characters `std::istream >> std::string` skips in the C locale.
constexpr std::string_view kSpace = " \t\n\v\f\r";

[[noreturn]] void fail(const Format& format, std::size_t line_number,
                       const std::string& message) {
  throw PreconditionError(std::string(format.name) + ", line " + std::to_string(line_number) +
                          ": " + message);
}

template <typename T>
bool parse_token(const std::string& token, T& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return ec == std::errc() && ptr == end;
}

/// Reads the meaningful lines of a text one at a time, so a caller holds
/// only the lines it keeps. A copy resumes from the same place.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  /// Overwrites `line` with the next meaningful line; false at the end.
  bool next(Line& line) {
    while (pos_ < text_.size()) {
      ++number_;
      const auto newline = text_.find('\n', pos_);
      const bool terminated = newline != std::string_view::npos;
      const std::size_t end_offset = terminated ? newline + 1 : text_.size();
      std::string_view raw = text_.substr(pos_, end_offset - pos_ - (terminated ? 1 : 0));
      pos_ = end_offset;
      if (!raw.empty() && raw.back() == '\r') {
        raw.remove_suffix(1);
      }
      const auto first = raw.find_first_not_of(kSpace);
      if (first == std::string_view::npos || raw[first] == '#') {
        continue;  // blank or comment
      }
      const auto keyword_end = raw.find_first_of(kSpace, first);
      const std::string_view keyword = raw.substr(first, keyword_end - first);
      line.number = number_;
      line.end_offset = end_offset;
      line.terminated = terminated;
      line.tokens.clear();
      line.raw_text.clear();
      if (keyword == "error" || keyword == "config") {
        const auto value = raw.find_first_not_of(kSpace, keyword_end);
        line.tokens.emplace_back(keyword);
        if (value != std::string_view::npos) {
          line.raw_text = raw.substr(value);
        }
      } else {
        const std::string_view body = raw.substr(0, raw.find('#'));
        for (auto start = body.find_first_not_of(kSpace); start != std::string_view::npos;) {
          const auto stop = body.find_first_of(kSpace, start);
          line.tokens.emplace_back(body.substr(start, stop - start));
          start = body.find_first_not_of(kSpace, stop);
        }
      }
      return true;
    }
    return false;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;     ///< offset of the next unread line
  std::size_t number_ = 0;  ///< 1-based number of the last line read
};

/// Whether any line `scanner` has yet to read is an `end` line.
bool any_end_line(LineScanner scanner) {
  for (Line line; scanner.next(line);) {
    if (line.keyword() == "end") {
      return true;
    }
  }
  return false;
}

}  // namespace

std::string flatten_newlines(std::string text) {
  for (char& c : text) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return text;
}

std::vector<Line> scan_lines(std::string_view text) {
  std::vector<Line> lines;
  LineScanner scanner(text);
  for (Line line; scanner.next(line);) {
    lines.push_back(std::move(line));
  }
  return lines;
}

BlockReader::BlockReader(const Format& format, const std::vector<Line>& lines, std::size_t begin,
                         std::size_t end)
    : format_(format), lines_(lines), begin_(begin), end_(end), next_(begin + 1) {
  const Line& head = lines_[begin_];
  if (head.tokens.size() != 3 || head.keyword() != "begin") {
    fail(head, "expected 'begin <kind> <id>'");
  }
  id_ = to_u64(head, 2);
  const Line& tail = lines_[end_];
  if (tail.tokens.size() != 3 || tail.tokens[1] != kind() || to_u64(tail, 2) != id_) {
    fail(tail, "expected 'end " + kind() + " " + std::to_string(id_) + "'");
  }
  for (std::size_t k = next_; k < end_; ++k) {
    if (lines_[k].keyword() == "begin") {
      fail(lines_[k], "unterminated block: 'begin' before 'end " + kind() + " " +
                          std::to_string(id_) + "'");
    }
  }
}

const Line& BlockReader::next() {
  if (at_end()) {
    fail(lines_[end_], "unexpected end of the block");
  }
  return lines_[next_++];
}

const Line& BlockReader::expect(std::string_view keyword) {
  if (at_end()) {
    fail(lines_[end_], "expected '" + std::string(keyword) + "', found 'end'");
  }
  const Line& line = lines_[next_++];
  if (line.keyword() != keyword) {
    fail(line, "expected '" + std::string(keyword) + "', found '" + line.keyword() + "'");
  }
  return line;
}

std::uint64_t BlockReader::expect_count(std::string_view keyword) {
  const Line& line = expect(keyword);
  if (line.tokens.size() < 2) {
    fail(line, "expected '" + line.keyword() + " <count> ...'");
  }
  return to_u64(line, 1);
}

void BlockReader::expect_end() const {
  if (!at_end()) {
    fail(peek(), "expected 'end " + kind() + " " + std::to_string(id_) + "', found '" +
                     peek().keyword() + "'");
  }
}

const std::string& BlockReader::token(const Line& line, std::size_t k) const {
  if (k >= line.tokens.size()) {
    fail(line, "expected " + std::to_string(k + 1) + " fields, found " +
                   std::to_string(line.tokens.size()));
  }
  return line.tokens[k];
}

double BlockReader::to_double(const Line& line, std::size_t k) const {
  double value{};
  if (!parse_token(token(line, k), value)) {
    fail(line, "malformed number '" + line.tokens[k] + "'");
  }
  return value;
}

std::uint64_t BlockReader::to_u64(const Line& line, std::size_t k) const {
  std::uint64_t value{};
  if (!parse_token(token(line, k), value)) {
    fail(line, "malformed count '" + line.tokens[k] + "'");
  }
  return value;
}

std::int32_t BlockReader::to_i32(const Line& line, std::size_t k) const {
  std::int64_t value{};
  if (!parse_token(token(line, k), value) || value < std::numeric_limits<std::int32_t>::min() ||
      value > std::numeric_limits<std::int32_t>::max()) {
    fail(line, "malformed id '" + line.tokens[k] + "'");
  }
  return static_cast<std::int32_t>(value);
}

double BlockReader::value(const Line& line) const {
  if (line.tokens.size() != 2) {
    fail(line, "expected '" + line.keyword() + " <value>'");
  }
  return to_double(line, 1);
}

bool BlockReader::flag(const Line& line) const {
  if (line.tokens.size() != 2 || (line.tokens[1] != "0" && line.tokens[1] != "1")) {
    fail(line, "expected '" + line.keyword() + " 0|1'");
  }
  return line.tokens[1] == "1";
}

std::vector<std::int32_t> BlockReader::ids(const Line& line) const {
  if (line.tokens.size() < 2) {
    fail(line, "expected '" + line.keyword() + " <count> <ids>...'");
  }
  const std::uint64_t count = to_u64(line, 1);
  if (line.tokens.size() != count + 2) {
    fail(line, line.keyword() + " count does not match the listed ids");
  }
  std::vector<std::int32_t> ids;
  ids.reserve(count);
  for (std::size_t k = 2; k < line.tokens.size(); ++k) {
    ids.push_back(to_i32(line, k));
  }
  return ids;
}

void BlockReader::fail(const Line& line, const std::string& message) const {
  journal::fail(format_, line.number, message);
}

Frame parse(const Format& format, std::string_view text, const BlockDecoder& decode) {
  // One block's lines at a time: memory stays bounded by the largest block,
  // whatever the journal's length.
  LineScanner scanner(text);
  Frame frame;
  Line line;
  if (!scanner.next(line)) {
    return frame;  // empty or comment-only: a writer died before its first byte
  }
  if (line.tokens.size() != 1 || line.keyword() != format.header) {
    // A write torn inside the very first line leaves an unterminated strict
    // prefix of the header (the text's last line): a torn tail to drop, not
    // a foreign file.
    if (!line.terminated && line.tokens.size() == 1 &&
        format.header.starts_with(line.keyword())) {
      return frame;
    }
    fail(format, line.number, "missing " + std::string(format.header) + " header");
  }
  if (!line.terminated) {
    return frame;
  }
  frame.valid_bytes = line.end_offset;
  bool more = scanner.next(line);
  if (more && line.keyword() == "config") {
    if (!line.terminated) {
      return frame;
    }
    frame.config = line.raw_text;
    frame.valid_bytes = line.end_offset;
    more = scanner.next(line);
  }
  std::map<std::string, std::uint64_t, std::less<>> next_id;  // per kind
  std::vector<Line> block;  // the current block, its `end` line last
  for (; more; more = scanner.next(line)) {
    block.clear();
    block.push_back(std::move(line));
    while (block.back().keyword() != "end") {
      if (!scanner.next(line)) {
        return frame;  // no terminator was ever written: a torn append
      }
      block.push_back(std::move(line));
    }
    const Line& end = block.back();
    if (!end.terminated) {
      break;  // the terminator itself is torn
    }
    std::string kind;
    std::uint64_t id = 0;
    try {
      BlockReader reader(format, block, 0, block.size() - 1);
      decode(reader);
      kind = reader.kind();
      id = reader.id();
    } catch (const PreconditionError&) {
      if (!any_end_line(scanner)) {
        break;  // the last block: a write torn mid-line, dropped with the tail
      }
      throw;  // corruption before the last complete block
    }
    if (format.sequential_ids && id != next_id[kind]++) {
      fail(format, end.number, "journal " + kind + "s are not contiguous from 0");
    }
    frame.valid_bytes = end.end_offset;
    ++frame.blocks;
  }
  return frame;
}

std::string read(const Format& format, const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (!std::filesystem::exists(path)) {
      return {};  // no journal yet
    }
    throw std::runtime_error("cannot open " + std::string(format.name) +
                             " for reading: " + path.string());
  }
  // One allocation of the file's size: the text is the only whole-file copy.
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  if (in.bad()) {
    throw std::runtime_error("cannot read " + std::string(format.name) + ": " + path.string());
  }
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

Writer::Writer(const Format& format, const std::filesystem::path& path,
               const std::string& config_fingerprint)
    : format_(&format), path_(path) {
  const bool fresh = !std::filesystem::exists(path) || std::filesystem::file_size(path) == 0;
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) {
    throw std::runtime_error("cannot open " + std::string(format.name) +
                             " for appending: " + path.string());
  }
  if (fresh) {
    out_ << format.header << "\n";
    if (!config_fingerprint.empty()) {
      out_ << "config " << config_fingerprint << "\n";
    }
    out_.flush();
  }
}

void Writer::set_fault_injector(std::shared_ptr<const FaultInjector> injector) {
  fault_injector_ = std::move(injector);
}

void Writer::append(std::string_view block, std::uint64_t id) {
  // The fault fires BEFORE any byte reaches the file, modelling a full-disk
  // or I/O error on the append; the on-disk journal stays a valid prefix.
  fault_point(fault_injector_.get(), FailPoint::kJournalAppend, id, 0);
  out_ << block;
  out_.flush();
  if (!out_) {
    throw std::runtime_error(std::string(format_->name) + " append failed: " + path_.string());
  }
}

Writer resume(const Format& format, const std::filesystem::path& path, const Frame& journal,
              const std::string& config_fingerprint) {
  const std::string name(format.name);
  MCS_EXPECTS(!config_fingerprint.empty(), name + " resume needs a config fingerprint");
  if (journal.config.empty()) {
    MCS_EXPECTS(journal.blocks == 0, name + " has blocks but no config fingerprint");
  } else {
    MCS_EXPECTS(journal.config == config_fingerprint,
                name + " was written under a different configuration; resuming it would "
                       "splice in outcomes this configuration would not compute");
  }
  // A prefix without a complete `config` line holds no block, so start the
  // file afresh: the writer only writes the header and `config` line into an
  // empty file, and a journal left without its fingerprint would be refused
  // by the next resume once blocks follow.
  const std::size_t keep = journal.config.empty() ? 0 : journal.valid_bytes;
  if (std::filesystem::exists(path) && std::filesystem::file_size(path) > keep) {
    std::filesystem::resize_file(path, keep);
  }
  return Writer(format, path, config_fingerprint);
}

}  // namespace mcs::common::journal
