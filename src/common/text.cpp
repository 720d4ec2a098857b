#include "common/text.hpp"

#include <charconv>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "common/check.hpp"

namespace mcs::common::text {

namespace {

/// The characters `std::isspace` accepts in the C locale.
constexpr std::string_view kSpace = " \t\n\v\f\r";

/// `token` as a T, or fail() with "malformed <kind> '<token>'".
template <typename T>
T to_number(std::string_view source, std::size_t line, std::string_view token,
            std::string_view kind) {
  const auto value = parse_number<T>(token);
  if (!value) {
    fail(source, line, "malformed " + std::string(kind) + " '" + std::string(token) + "'");
  }
  return *value;
}

}  // namespace

template <typename T>
std::optional<T> parse_number(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return std::nullopt;
  }
  return value;
}

template std::optional<double> parse_number<double>(std::string_view);
template std::optional<std::int32_t> parse_number<std::int32_t>(std::string_view);
template std::optional<std::int64_t> parse_number<std::int64_t>(std::string_view);
template std::optional<std::uint64_t> parse_number<std::uint64_t>(std::string_view);

bool LineScanner::next(Line& line) {
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
    line.raw_text = {};
    if (keyword == "error" || keyword == "config") {
      const auto value = raw.find_first_not_of(kSpace, keyword_end);
      line.tokens.push_back(keyword);
      if (value != std::string_view::npos) {
        line.raw_text = raw.substr(value);
      }
    } else {
      const std::string_view body = raw.substr(0, raw.find('#'));
      for (auto start = first; start != std::string_view::npos;) {
        const auto stop = body.find_first_of(kSpace, start);
        line.tokens.push_back(body.substr(start, stop - start));
        start = body.find_first_not_of(kSpace, stop);
      }
    }
    return true;
  }
  return false;
}

std::vector<Line> scan_lines(std::string_view text) {
  std::vector<Line> lines;
  LineScanner scanner(text);
  for (Line line; scanner.next(line);) {
    lines.push_back(std::move(line));
  }
  return lines;
}

void fail(std::string_view source, std::size_t line, const std::string& message) {
  throw PreconditionError(std::string(source) + ", line " + std::to_string(line) + ": " + message);
}

double to_double(std::string_view source, std::size_t line, std::string_view token) {
  return to_number<double>(source, line, token, "number");
}

std::uint64_t to_count(std::string_view source, std::size_t line, std::string_view token) {
  return to_number<std::uint64_t>(source, line, token, "count");
}

std::int32_t to_id(std::string_view source, std::size_t line, std::string_view token) {
  return to_number<std::int32_t>(source, line, token, "id");
}

std::string read_file(const std::filesystem::path& path, std::string_view what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open " + std::string(what) + " for reading: " + path.string());
  }
  // One allocation of the file's size, read in place. The size is a hint:
  // whatever lies past it (a pipe reports none) is appended below.
  std::error_code size_error;
  const auto size = std::filesystem::file_size(path, size_error);
  std::string text(size_error ? 0 : static_cast<std::size_t>(size), '\0');
  in.read(text.data(), static_cast<std::streamsize>(text.size()));
  text.resize(static_cast<std::size_t>(in.gcount()));
  for (char chunk[4096]; in.read(chunk, sizeof(chunk)) || in.gcount() > 0;) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) {
    throw std::runtime_error("cannot read " + std::string(what) + ": " + path.string());
  }
  return text;
}

void write_file(const std::filesystem::path& path, std::string_view text, std::string_view what) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("cannot open " + std::string(what) + " for writing: " + path.string());
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) {
    throw std::runtime_error("failed writing " + std::string(what) + ": " + path.string());
  }
}

}  // namespace mcs::common::text
