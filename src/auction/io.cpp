#include "auction/io.hpp"

#include <cmath>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/text.hpp"

namespace mcs::auction {

namespace {

using common::text::fail;
using common::text::format_double;
using common::text::Line;
using common::text::to_count;

constexpr const char* kSingleHeader = "mcs-single-task-v1";
constexpr const char* kMultiHeader = "mcs-multi-task-v1";
constexpr const char* kDefaultSource = "instance text";
constexpr const char* kFileKind = "instance file";

/// Upper bound on the declared task count: a hostile 'tasks 1e15' line must
/// fail cleanly instead of attempting a huge allocation.
constexpr std::size_t kMaxTaskCount = std::size_t{1} << 20;

/// The meaningful lines of `text`, whose first must be the `header` line.
std::vector<Line> scan_instance(std::string_view text, std::string_view header,
                                const std::string& source) {
  auto lines = common::text::scan_lines(text);
  if (lines.empty() || lines.front().tokens.size() != 1 || lines.front().keyword() != header) {
    fail(source, lines.empty() ? 1 : lines.front().number,
         "missing " + std::string(header) + " header");
  }
  return lines;
}

double parse_double(const std::string& source, std::string_view token, std::size_t line_number) {
  const double value = common::text::to_double(source, line_number, token);
  // The number parser accepts "inf" and "nan"; neither is a valid cost, PoS,
  // or requirement anywhere in the formats.
  if (!std::isfinite(value)) {
    fail(source, line_number, "non-finite number '" + std::string(token) + "'");
  }
  return value;
}

double parse_pos(const std::string& source, std::string_view token, std::size_t line_number) {
  const double pos = parse_double(source, token, line_number);
  if (pos < 0.0 || pos > 1.0) {
    fail(source, line_number, "PoS " + std::string(token) + " out of range [0, 1]");
  }
  return pos;
}

double parse_requirement(const std::string& source, std::string_view token,
                         std::size_t line_number) {
  const double requirement = parse_double(source, token, line_number);
  if (requirement <= 0.0 || requirement >= 1.0) {
    fail(source, line_number, "PoS requirement " + std::string(token) + " out of range (0, 1)");
  }
  return requirement;
}

double parse_cost(const std::string& source, std::string_view token, std::size_t line_number) {
  const double cost = parse_double(source, token, line_number);
  if (cost <= 0.0) {
    fail(source, line_number, "cost " + std::string(token) + " must be strictly positive");
  }
  return cost;
}

/// Final whole-instance validation, with the source folded into any error so
/// a bad file is named in the message.
template <typename Instance>
void validate_parsed(const Instance& instance, const std::string& source) {
  try {
    instance.validate();
  } catch (const common::PreconditionError& e) {
    throw common::PreconditionError(source + ": " + e.what());
  }
}

SingleTaskInstance parse_single_task(std::string_view text, const std::string& source) {
  const auto lines = scan_instance(text, kSingleHeader, source);
  SingleTaskInstance instance;
  bool have_requirement = false;
  for (std::size_t r = 1; r < lines.size(); ++r) {
    const std::size_t line_number = lines[r].number;
    const auto& tokens = lines[r].tokens;
    if (tokens.front() == "requirement") {
      if (tokens.size() != 2 || have_requirement) {
        fail(source, line_number, "expected exactly one 'requirement <pos>' line");
      }
      instance.requirement_pos = parse_requirement(source, tokens[1], line_number);
      have_requirement = true;
    } else if (tokens.front() == "user") {
      if (tokens.size() != 3) {
        fail(source, line_number, "expected 'user <cost> <pos>'");
      }
      instance.bids.push_back({parse_cost(source, tokens[1], line_number),
                               parse_pos(source, tokens[2], line_number)});
    } else {
      fail(source, line_number, "unknown directive '" + std::string(tokens.front()) + "'");
    }
  }
  if (!have_requirement) {
    fail(source, lines.back().number, "instance is missing its requirement line");
  }
  validate_parsed(instance, source);
  return instance;
}

MultiTaskInstance parse_multi_task(std::string_view text, const std::string& source) {
  const auto lines = scan_instance(text, kMultiHeader, source);
  MultiTaskInstance instance;
  bool have_tasks = false;
  std::size_t tasks_line = 0;
  std::vector<bool> requirement_seen;
  for (std::size_t r = 1; r < lines.size(); ++r) {
    const std::size_t line_number = lines[r].number;
    const auto& tokens = lines[r].tokens;
    if (tokens.front() == "tasks") {
      if (tokens.size() != 2 || have_tasks) {
        fail(source, line_number, "expected exactly one 'tasks <count>' line before anything else");
      }
      const std::size_t count = to_count(source, line_number, tokens[1]);
      if (count == 0 || count > kMaxTaskCount) {
        fail(source, line_number,
             "task count must lie in [1, " + std::to_string(kMaxTaskCount) + "]");
      }
      instance.requirement_pos.assign(count, 0.0);
      requirement_seen.assign(count, false);
      have_tasks = true;
      tasks_line = line_number;
    } else if (tokens.front() == "requirement") {
      if (!have_tasks) {
        fail(source, line_number, "'tasks <count>' must come before requirements");
      }
      if (tokens.size() != 3) {
        fail(source, line_number, "expected 'requirement <task> <pos>'");
      }
      const std::size_t task = to_count(source, line_number, tokens[1]);
      if (task >= instance.num_tasks()) {
        fail(source, line_number, "task index out of range");
      }
      if (requirement_seen[task]) {
        fail(source, line_number, "duplicate requirement for task " + std::string(tokens[1]));
      }
      instance.requirement_pos[task] = parse_requirement(source, tokens[2], line_number);
      requirement_seen[task] = true;
    } else if (tokens.front() == "user") {
      if (!have_tasks) {
        fail(source, line_number, "'tasks <count>' must come before users");
      }
      if (tokens.size() < 3) {
        fail(source, line_number, "expected 'user <cost> <count> <task:pos>...'");
      }
      MultiTaskUserBid bid;
      bid.cost = parse_cost(source, tokens[1], line_number);
      const std::size_t count = to_count(source, line_number, tokens[2]);
      if (count == 0) {
        fail(source, line_number, "single-minded users must demand at least one task");
      }
      if (tokens.size() != 3 + count) {
        fail(source, line_number, "task:pos pair count does not match the declared count");
      }
      for (std::size_t k = 0; k < count; ++k) {
        const std::string_view pair = tokens[3 + k];
        const auto colon = pair.find(':');
        if (colon == std::string_view::npos) {
          fail(source, line_number, "expected task:pos, got '" + std::string(pair) + "'");
        }
        const std::size_t task = to_count(source, line_number, pair.substr(0, colon));
        if (task >= instance.num_tasks()) {
          fail(source, line_number, "task index out of range in '" + std::string(pair) + "'");
        }
        if (!bid.tasks.empty() && static_cast<std::size_t>(bid.tasks.back()) >= task) {
          fail(source, line_number,
               (static_cast<std::size_t>(bid.tasks.back()) == task
                    ? "duplicate task index in '"
                    : "task set must be strictly ascending at '") +
                   std::string(pair) + "'");
        }
        bid.tasks.push_back(static_cast<TaskIndex>(task));
        bid.pos.push_back(parse_pos(source, pair.substr(colon + 1), line_number));
      }
      instance.users.push_back(std::move(bid));
    } else {
      fail(source, line_number, "unknown directive '" + std::string(tokens.front()) + "'");
    }
  }
  if (!have_tasks) {
    fail(source, lines.back().number, "instance is missing its tasks line");
  }
  for (std::size_t j = 0; j < requirement_seen.size(); ++j) {
    if (!requirement_seen[j]) {
      fail(source, tasks_line, "task " + std::to_string(j) + " has no requirement line");
    }
  }
  validate_parsed(instance, source);
  return instance;
}

}  // namespace

std::string to_text(const SingleTaskInstance& instance) {
  std::ostringstream out;
  out << kSingleHeader << "\n";
  out << "requirement " << format_double(instance.requirement_pos) << "\n";
  for (const auto& bid : instance.bids) {
    out << "user " << format_double(bid.cost) << ' ' << format_double(bid.pos) << "\n";
  }
  return out.str();
}

std::string to_text(const MultiTaskInstance& instance) {
  std::ostringstream out;
  out << kMultiHeader << "\n";
  out << "tasks " << instance.num_tasks() << "\n";
  for (std::size_t j = 0; j < instance.num_tasks(); ++j) {
    out << "requirement " << j << ' ' << format_double(instance.requirement_pos[j]) << "\n";
  }
  for (const auto& user : instance.users) {
    out << "user " << format_double(user.cost) << ' ' << user.tasks.size();
    for (std::size_t k = 0; k < user.tasks.size(); ++k) {
      out << ' ' << user.tasks[k] << ':' << format_double(user.pos[k]);
    }
    out << "\n";
  }
  return out.str();
}

SingleTaskInstance single_task_from_text(const std::string& text) {
  return parse_single_task(text, kDefaultSource);
}

MultiTaskInstance multi_task_from_text(const std::string& text) {
  return parse_multi_task(text, kDefaultSource);
}

void save_single_task(const std::filesystem::path& path, const SingleTaskInstance& instance) {
  common::text::write_file(path, to_text(instance), kFileKind);
}

void save_multi_task(const std::filesystem::path& path, const MultiTaskInstance& instance) {
  common::text::write_file(path, to_text(instance), kFileKind);
}

SingleTaskInstance load_single_task(const std::filesystem::path& path) {
  return parse_single_task(common::text::read_file(path, kFileKind), path.string());
}

MultiTaskInstance load_multi_task(const std::filesystem::path& path) {
  return parse_multi_task(common::text::read_file(path, kFileKind), path.string());
}

AuctionInstance load_instance(const std::filesystem::path& path) {
  const std::string text = common::text::read_file(path, kFileKind);
  const std::string kind = detect_instance_kind(text);
  if (kind == "single") {
    return parse_single_task(text, path.string());
  }
  if (kind == "multi") {
    return parse_multi_task(text, path.string());
  }
  throw common::PreconditionError("unrecognized instance header in " + path.string());
}

std::string detect_instance_kind(const std::string& text) {
  Line header;
  if (!common::text::LineScanner(text).next(header) || header.tokens.size() != 1) {
    return "";
  }
  if (header.keyword() == kSingleHeader) {
    return "single";
  }
  if (header.keyword() == kMultiHeader) {
    return "multi";
  }
  return "";
}

}  // namespace mcs::auction
