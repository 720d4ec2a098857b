// Plain-text persistence of auction instances, so the mechanisms can run on
// data a user prepares by hand or exports from another system (see
// examples/auction_cli.cpp).
//
// Single-task format (mcs-single-task-v1):
//     mcs-single-task-v1
//     requirement 0.9
//     user 3.0 0.7        # cost pos
//     user 2.0 0.7
//
// Multi-task format (mcs-multi-task-v1):
//     mcs-multi-task-v1
//     tasks 3
//     requirement 0 0.8    # task index, PoS requirement
//     requirement 1 0.8
//     requirement 2 0.7
//     user 5.0 2 0:0.3 2:0.25   # cost, #tasks, task:pos pairs
//
// Lines starting with '#' and blank lines are ignored; '#' starts a comment
// anywhere on a line. Parsers throw PreconditionError with the offending
// line number on malformed input; writers produce canonical output that
// round-trips exactly.
#pragma once

#include <filesystem>
#include <string>

#include "auction/instance.hpp"

namespace mcs::auction {

std::string to_text(const SingleTaskInstance& instance);
std::string to_text(const MultiTaskInstance& instance);

SingleTaskInstance single_task_from_text(const std::string& text);
MultiTaskInstance multi_task_from_text(const std::string& text);

/// File wrappers; throw std::runtime_error on I/O failure.
void save_single_task(const std::filesystem::path& path, const SingleTaskInstance& instance);
void save_multi_task(const std::filesystem::path& path, const MultiTaskInstance& instance);
SingleTaskInstance load_single_task(const std::filesystem::path& path);
MultiTaskInstance load_multi_task(const std::filesystem::path& path);

/// Peeks at the header line: "single", "multi", or "" when unrecognized.
std::string detect_instance_kind(const std::string& text);

/// Reads the instance file at `path` once (a pipe works too) and parses it
/// as the format its header names; parse errors name the path. Throws
/// PreconditionError "unrecognized instance header in <path>" for any other
/// header, and std::runtime_error when the file cannot be read.
AuctionInstance load_instance(const std::filesystem::path& path);

}  // namespace mcs::auction
