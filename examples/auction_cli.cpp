// auction_cli: run the strategy-proof mechanisms on instance files through
// the batched auction::Engine — the unified entry point that takes any mix
// of single- and multi-task instances plus one shared MechanismConfig.
//
// Usage:
//   example_auction_cli <instance-file>... [alpha] [epsilon] [--telemetry out.json]
//   example_auction_cli            (no args: writes demo files, runs all)
//
// Every argument naming an existing file is loaded as an instance; the first
// non-file numeric argument is alpha, the second epsilon. All instances run
// as ONE engine batch, so auctions execute concurrently and outcomes come
// back in submission order. Instance files use the plain-text format of
// auction/io.hpp (header mcs-single-task-v1 or mcs-multi-task-v1; '#'
// comments allowed), so a downstream user can run the mechanisms on their
// own marketplace data without writing any C++.
//
// --telemetry <path> enables mcs::obs for the run and writes a JSON report:
// one mechanism record per auction (phase split, probe/degradation counts)
// plus the merged process-wide registry (engine status tallies, pool queue
// depth / utilization). Telemetry never changes outcomes — the same batch
// with the flag off is bit-identical.
//
// The batch is fault-isolated: a file that fails to parse, or an auction
// that throws or exceeds its wall-clock budget, reports its own error while
// every other slot completes normally (Engine::run_isolated). The no-args
// demo shows this by poisoning one of its three instance files.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "auction/engine.hpp"
#include "auction/io.hpp"
#include "common/table.hpp"
#include "obs/telemetry.hpp"
#include "sim/metrics.hpp"

namespace {

using namespace mcs;

void report_single(const auction::SingleTaskInstance& instance,
                   const auction::MechanismOutcome& outcome) {
  if (!outcome.allocation.feasible) {
    std::cout << "INFEASIBLE: no user set reaches the required PoS "
              << instance.requirement_pos << "\n";
    return;
  }
  common::TextTable table("single-task outcome (social cost " +
                              common::TextTable::num(outcome.allocation.total_cost, 2) + ")",
                          {"winner", "cost", "declared PoS", "critical PoS",
                           "pay on success", "pay on failure"});
  for (const auto& winner : outcome.rewards) {
    const auto& bid = instance.bids[static_cast<std::size_t>(winner.user)];
    table.add_row({std::to_string(winner.user), common::TextTable::num(bid.cost, 3),
                   common::TextTable::num(bid.pos, 3),
                   common::TextTable::num(winner.reward.critical_pos, 4),
                   common::TextTable::num(winner.reward.on_success(), 3),
                   common::TextTable::num(winner.reward.on_failure(), 3)});
  }
  table.print(std::cout);
  std::cout << "achieved PoS " << common::TextTable::num(
                   sim::achieved_pos(instance, outcome.allocation.winners), 4)
            << " (required " << instance.requirement_pos << ")\n";
}

void report_multi(const auction::MultiTaskInstance& instance,
                  const auction::MechanismOutcome& outcome) {
  if (!outcome.allocation.feasible) {
    std::cout << "INFEASIBLE: the users cannot cover every task requirement\n";
    return;
  }
  common::TextTable table("multi-task outcome (social cost " +
                              common::TextTable::num(outcome.allocation.total_cost, 2) + ")",
                          {"winner", "cost", "tasks", "critical PoS", "pay on success",
                           "pay on failure"});
  for (const auto& winner : outcome.rewards) {
    const auto& bid = instance.users[static_cast<std::size_t>(winner.user)];
    table.add_row({std::to_string(winner.user), common::TextTable::num(bid.cost, 3),
                   std::to_string(bid.tasks.size()),
                   common::TextTable::num(winner.reward.critical_pos, 4),
                   common::TextTable::num(winner.reward.on_success(), 3),
                   common::TextTable::num(winner.reward.on_failure(), 3)});
  }
  table.print(std::cout);
  const auto achieved = sim::achieved_pos(instance, outcome.allocation.winners);
  for (std::size_t j = 0; j < achieved.size(); ++j) {
    std::cout << "task " << j << ": achieved " << common::TextTable::num(achieved[j], 4)
              << " (required " << instance.requirement_pos[j] << ")\n";
  }
}

void report(const auction::AuctionInstance& instance,
            const auction::MechanismOutcome& outcome) {
  if (const auto* single = std::get_if<auction::SingleTaskInstance>(&instance)) {
    report_single(*single, outcome);
  } else {
    report_multi(std::get<auction::MultiTaskInstance>(instance), outcome);
  }
}

/// One instance per file. A file that cannot be opened or parsed becomes a
/// load error instead of aborting the run — the io parsers name the file and
/// line, and the rest of the batch still executes.
struct LoadedFile {
  std::filesystem::path path;
  std::optional<auction::AuctionInstance> instance;
  std::string load_error;
};

LoadedFile load_file(const std::filesystem::path& path) {
  LoadedFile loaded{path, std::nullopt, {}};
  try {
    loaded.instance = auction::load_instance(path);
  } catch (const std::exception& error) {
    loaded.load_error = error.what();
  }
  return loaded;
}

/// Writes the run's telemetry JSON: per-auction mechanism records keyed by
/// file plus the merged registry snapshot.
void write_telemetry_json(const std::filesystem::path& out_path,
                          const std::vector<LoadedFile>& files,
                          const std::vector<std::size_t>& slot_of_file,
                          const std::vector<auction::AuctionOutcome>& slots) {
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open telemetry sink " << out_path << " for writing\n";
    return;
  }
  out << "{\n  \"telemetry_version\": 1,\n  \"auctions\": [\n";
  bool first = true;
  for (std::size_t k = 0; k < files.size(); ++k) {
    if (slot_of_file[k] == SIZE_MAX) {
      continue;  // unreadable file: never reached the engine
    }
    const auto& slot = slots[slot_of_file[k]];
    if (!first) {
      out << ",\n";
    }
    first = false;
    out << "    {\"file\": \"" << files[k].path.generic_string() << "\", \"status\": \""
        << auction::to_string(slot.status) << "\", \"mechanism\": "
        << obs::to_json(slot.outcome.telemetry) << "}";
  }
  out << "\n  ],\n  \"registry\": " << obs::Registry::global().snapshot().to_json() << "\n}\n";
  std::cout << "telemetry written to " << out_path << "\n";
}

int run_files(const std::vector<std::filesystem::path>& paths, double alpha, double epsilon,
              const std::filesystem::path& telemetry_path = {}) {
  std::vector<LoadedFile> files;
  files.reserve(paths.size());
  std::vector<auction::AuctionInstance> batch;
  std::vector<std::size_t> slot_of_file(paths.size(), SIZE_MAX);
  for (const auto& path : paths) {
    files.push_back(load_file(path));
    if (files.back().instance) {
      slot_of_file[files.size() - 1] = batch.size();
      batch.push_back(*files.back().instance);
    }
  }

  // One config serves both families: shared fields at the top level,
  // family-only knobs nested (the other family's sub-struct is ignored).
  const auction::MechanismConfig config{.alpha = alpha, .single_task = {.epsilon = epsilon}};
  if (!telemetry_path.empty()) {
    obs::set_enabled(true);
  }
  const auction::Engine engine;  // process-wide shared thread pool
  const auto slots = engine.run_isolated(batch, config);
  if (!telemetry_path.empty()) {
    write_telemetry_json(telemetry_path, files, slot_of_file, slots);
  }

  std::size_t healthy = 0;
  for (std::size_t k = 0; k < files.size(); ++k) {
    const auto& file = files[k];
    const bool single =
        file.instance && std::holds_alternative<auction::SingleTaskInstance>(*file.instance);
    std::cout << "== " << file.path << " ("
              << (file.instance ? (single ? "single" : "multi") : "unreadable") << ") ==\n";
    if (!file.instance) {
      std::cout << "SKIPPED: " << file.load_error << "\n";
    } else {
      const auto& slot = slots[slot_of_file[k]];
      if (slot.status == auction::AuctionStatus::kDegraded) {
        std::cout << "[degraded: fell back to the 2-approximation or partial coverage]\n";
      }
      if (!slot.ok()) {
        std::cout << "AUCTION " << auction::to_string(slot.status) << ": " << slot.error << "\n";
      } else {
        ++healthy;
        report(*file.instance, slot.outcome);
      }
    }
    if (k + 1 < files.size()) {
      std::cout << "\n";
    }
  }
  std::cout << "\n" << healthy << "/" << files.size() << " auctions completed\n";
  // The batch as a whole succeeds if anything ran; per-slot failures are in
  // the report above.
  return healthy > 0 ? 0 : 1;
}

int demo() {
  const auto dir = std::filesystem::temp_directory_path();
  const auto single_path = dir / "mcs_demo_single.txt";
  const auto multi_path = dir / "mcs_demo_multi.txt";
  const auto poisoned_path = dir / "mcs_demo_poisoned.txt";

  auction::SingleTaskInstance single;
  single.requirement_pos = 0.9;
  single.bids = {{3.0, 0.7}, {2.0, 0.7}, {1.0, 0.5}, {4.0, 0.8}};
  auction::save_single_task(single_path, single);

  auction::MultiTaskInstance multi;
  multi.requirement_pos = {0.6, 0.5};
  multi.users = {
      {{0}, {0.5}, 2.0},
      {{1}, {0.4}, 1.5},
      {{0, 1}, {0.4, 0.3}, 3.0},
      {{0, 1}, {0.3, 0.4}, 2.5},
  };
  auction::save_multi_task(multi_path, multi);

  // A hostile file — negative cost — that the hardened parser rejects with
  // the file and line; the other two auctions are unaffected.
  std::ofstream(poisoned_path) << "mcs-single-task-v1\nrequirement 0.9\nuser -3.0 0.7\n";

  std::cout << "no arguments: wrote demo instances to " << single_path << ", " << multi_path
            << ", and (deliberately poisoned) " << poisoned_path
            << "\nrunning all three as one fault-isolated engine batch\n\n";
  return run_files({single_path, poisoned_path, multi_path}, 10.0, 0.1);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return demo();
  }
  std::vector<std::filesystem::path> paths;
  std::vector<double> numbers;
  std::filesystem::path telemetry_path;
  for (int k = 1; k < argc; ++k) {
    // Flags are claimed before the file-or-number classification: the sink
    // path usually does not exist yet, so it must never be mistaken for a
    // malformed number.
    if (std::string(argv[k]) == "--telemetry") {
      if (k + 1 >= argc) {
        std::cerr << "--telemetry requires an output path\n";
        return 1;
      }
      telemetry_path = argv[++k];
      continue;
    }
    const std::filesystem::path candidate(argv[k]);
    if (std::filesystem::exists(candidate)) {
      paths.push_back(candidate);
    } else {
      char* end = nullptr;
      const double value = std::strtod(argv[k], &end);
      if (end == argv[k] || *end != '\0') {
        std::cerr << "argument is neither an existing file nor a number: " << argv[k] << "\n";
        return 1;
      }
      numbers.push_back(value);
    }
  }
  if (paths.empty()) {
    std::cerr << "no instance files given\n";
    return 1;
  }
  const double alpha = numbers.size() > 0 ? numbers[0] : 10.0;
  const double epsilon = numbers.size() > 1 ? numbers[1] : 0.1;
  return run_files(paths, alpha, epsilon, telemetry_path);
}
