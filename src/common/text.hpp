// The text codec every file format shares: the double encoder, the number
// parser, the line scanner with its "<source>, line N: ..." errors, and
// whole-file reads and writes. The journals, auction instance files and
// trace CSVs go through it and keep their own rules (framing, finite-only
// numbers, ranges) as checks on top.
//
// Scanner rules: lines end at '\n' (the last may lack it) and lose a
// trailing '\r'; whitespace is the C locale's isspace set. Blank lines and
// lines starting with '#' are skipped, and '#' ends a line's tokens, except
// that `config` and `error` keep the raw remainder of their line. Line
// numbers count every line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::common::text {

/// `value` with 17 significant digits, which parse back to the same double
/// ("inf", "-inf" and "nan" when not finite). Inline: the journal encoders
/// call it once per double of every appended block.
inline std::string format_double(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// `token` as a T when the whole token is one number in T's range, else
/// nullopt. Doubles accept "inf" and "nan". Defined for double,
/// std::int32_t, std::int64_t and std::uint64_t.
template <typename T>
std::optional<T> parse_number(std::string_view token);

/// One meaningful line (not blank, not a comment). Its views point into the
/// scanned text, which must outlive the line.
struct Line {
  std::size_t number = 0;  ///< 1-based line number in the text
  /// Whitespace-split fields with any '#' comment removed; for the `config`
  /// and `error` directives only the keyword.
  std::vector<std::string_view> tokens;
  std::string_view raw_text;  ///< the rest of a `config`/`error` line, verbatim
  /// Byte offset just past this line's '\n'; truncating to it keeps the line.
  std::size_t end_offset = 0;
  /// False when the line is the text's last and lacks its '\n'.
  bool terminated = false;

  std::string_view keyword() const { return tokens.front(); }
};

/// Reads the meaningful lines of a text one at a time, so a caller holds
/// only the lines it keeps. A copy resumes from the same place.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text) : text_(text) {}

  /// Overwrites `line` with the next meaningful line; false at the end.
  bool next(Line& line);

 private:
  std::string_view text_;
  std::size_t pos_ = 0;     ///< offset of the next unread line
  std::size_t number_ = 0;  ///< 1-based number of the last line read
};

/// Splits `text` into its meaningful lines.
std::vector<Line> scan_lines(std::string_view text);

/// Throws PreconditionError "<source>, line <line>: <message>".
[[noreturn]] void fail(std::string_view source, std::size_t line, const std::string& message);

/// `token` read on line `line` of `source`, or fail() with
/// "malformed number|count|id '<token>'". An id is a signed 32-bit integer.
double to_double(std::string_view source, std::size_t line, std::string_view token);
std::uint64_t to_count(std::string_view source, std::size_t line, std::string_view token);
std::int32_t to_id(std::string_view source, std::size_t line, std::string_view token);

/// The whole file at `path`, read into one string of the file's size.
/// Throws std::runtime_error "cannot open <what> for reading: <path>" or
/// "cannot read <what>: <path>".
std::string read_file(const std::filesystem::path& path, std::string_view what);

/// Replaces the file at `path` with `text`. Throws std::runtime_error
/// "cannot open <what> for writing: <path>" or "failed writing <what>: <path>".
void write_file(const std::filesystem::path& path, std::string_view text, std::string_view what);

}  // namespace mcs::common::text
