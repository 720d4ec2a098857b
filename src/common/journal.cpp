#include "common/journal.hpp"

#include <map>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace mcs::common::journal {

namespace {

/// Whether any line `scanner` has yet to read is an `end` line.
bool any_end_line(text::LineScanner scanner) {
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
    fail(tail, "expected " + end_line());
  }
  for (std::size_t k = next_; k < end_; ++k) {
    if (lines_[k].keyword() == "begin") {
      fail(lines_[k], "unterminated block: 'begin' before " + end_line());
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
    fail(line, "expected '" + std::string(keyword) + "', found '" + std::string(line.keyword()) +
                   "'");
  }
  return line;
}

std::uint64_t BlockReader::expect_count(std::string_view keyword) {
  const Line& line = expect(keyword);
  if (line.tokens.size() < 2) {
    fail(line, "expected '" + std::string(keyword) + " <count> ...'");
  }
  return to_u64(line, 1);
}

void BlockReader::expect_end() const {
  if (!at_end()) {
    fail(peek(), "expected " + end_line() + ", found '" + std::string(peek().keyword()) + "'");
  }
}

std::string BlockReader::end_line() const {
  return "'end " + std::string(kind()) + " " + std::to_string(id_) + "'";
}

std::string_view BlockReader::token(const Line& line, std::size_t k) const {
  if (k >= line.tokens.size()) {
    fail(line, "expected " + std::to_string(k + 1) + " fields, found " +
                   std::to_string(line.tokens.size()));
  }
  return line.tokens[k];
}

double BlockReader::to_double(const Line& line, std::size_t k) const {
  return text::to_double(format_.name, line.number, token(line, k));
}

std::uint64_t BlockReader::to_u64(const Line& line, std::size_t k) const {
  return text::to_count(format_.name, line.number, token(line, k));
}

std::int32_t BlockReader::to_i32(const Line& line, std::size_t k) const {
  return text::to_id(format_.name, line.number, token(line, k));
}

double BlockReader::value(const Line& line) const {
  if (line.tokens.size() != 2) {
    fail(line, "expected '" + std::string(line.keyword()) + " <value>'");
  }
  return to_double(line, 1);
}

bool BlockReader::flag(const Line& line) const {
  if (line.tokens.size() != 2 || (line.tokens[1] != "0" && line.tokens[1] != "1")) {
    fail(line, "expected '" + std::string(line.keyword()) + " 0|1'");
  }
  return line.tokens[1] == "1";
}

std::vector<std::int32_t> BlockReader::ids(const Line& line) const {
  if (line.tokens.size() < 2) {
    fail(line, "expected '" + std::string(line.keyword()) + " <count> <ids>...'");
  }
  const std::uint64_t count = to_u64(line, 1);
  if (line.tokens.size() != count + 2) {
    fail(line, std::string(line.keyword()) + " count does not match the listed ids");
  }
  std::vector<std::int32_t> ids;
  ids.reserve(count);
  for (std::size_t k = 2; k < line.tokens.size(); ++k) {
    ids.push_back(to_i32(line, k));
  }
  return ids;
}

void BlockReader::fail(const Line& line, const std::string& message) const {
  text::fail(format_.name, line.number, message);
}

Frame parse(const Format& format, std::string_view text, const BlockDecoder& decode) {
  // One block's lines at a time: memory stays bounded by the largest block,
  // whatever the journal's length.
  text::LineScanner scanner(text);
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
    text::fail(format.name, line.number, "missing " + std::string(format.header) + " header");
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
    std::string_view kind;
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
    if (format.sequential_ids && id != next_id[std::string(kind)]++) {
      text::fail(format.name, end.number,
                 "journal " + std::string(kind) + "s are not contiguous from 0");
    }
    frame.valid_bytes = end.end_offset;
    ++frame.blocks;
  }
  return frame;
}

std::string read(const Format& format, const std::filesystem::path& path) {
  if (!std::filesystem::exists(path)) {
    return {};  // no journal yet
  }
  return text::read_file(path, format.name);
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
