// Tests for the auction instance text format: round trips, comments,
// malformed-input diagnostics, and file wrappers.
#include "auction/io.hpp"

#include <sys/stat.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <variant>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "test_util.hpp"

namespace mcs::auction {
namespace {

TEST(SingleTaskText, RoundTrips) {
  const auto original = test::random_single_task(12, 0.8, 3);
  const auto restored = single_task_from_text(to_text(original));
  EXPECT_DOUBLE_EQ(restored.requirement_pos, original.requirement_pos);
  ASSERT_EQ(restored.bids.size(), original.bids.size());
  for (std::size_t k = 0; k < original.bids.size(); ++k) {
    EXPECT_DOUBLE_EQ(restored.bids[k].cost, original.bids[k].cost);
    EXPECT_DOUBLE_EQ(restored.bids[k].pos, original.bids[k].pos);
  }
}

TEST(SingleTaskText, ParsesCommentsAndBlankLines) {
  const auto instance = single_task_from_text(
      "mcs-single-task-v1\n"
      "\n"
      "# the requirement\n"
      "requirement 0.9   # inline comment\n"
      "user 3.0 0.7\n"
      "user 2.0 0.7\n");
  EXPECT_DOUBLE_EQ(instance.requirement_pos, 0.9);
  ASSERT_EQ(instance.bids.size(), 2u);
  EXPECT_DOUBLE_EQ(instance.bids[1].cost, 2.0);
}

TEST(SingleTaskText, DiagnosesMalformedInput) {
  EXPECT_THROW(single_task_from_text(""), common::PreconditionError);
  EXPECT_THROW(single_task_from_text("wrong-header\nrequirement 0.5\n"),
               common::PreconditionError);
  EXPECT_THROW(single_task_from_text("mcs-single-task-v1\nuser 1 0.5\n"),
               common::PreconditionError);  // missing requirement
  EXPECT_THROW(single_task_from_text("mcs-single-task-v1\nrequirement 0.5\nuser 1\n"),
               common::PreconditionError);  // short user line
  EXPECT_THROW(
      single_task_from_text("mcs-single-task-v1\nrequirement 0.5\nuser one 0.5\n"),
      common::PreconditionError);  // bad number
  EXPECT_THROW(
      single_task_from_text("mcs-single-task-v1\nrequirement 0.5\nbogus 1 2\n"),
      common::PreconditionError);  // unknown directive
  EXPECT_THROW(
      single_task_from_text("mcs-single-task-v1\nrequirement 1.5\nuser 1 0.5\n"),
      common::PreconditionError);  // fails instance validation
}

TEST(SingleTaskText, ErrorsCarryLineNumbers) {
  try {
    single_task_from_text("mcs-single-task-v1\nrequirement 0.5\nuser bad 0.5\n");
    FAIL() << "expected a parse error";
  } catch (const common::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("line 3"), std::string::npos) << error.what();
  }
}

TEST(MultiTaskText, RoundTrips) {
  const auto original = test::random_multi_task(10, 4, 0.6, 5);
  const auto restored = multi_task_from_text(to_text(original));
  ASSERT_EQ(restored.num_tasks(), original.num_tasks());
  ASSERT_EQ(restored.num_users(), original.num_users());
  for (std::size_t j = 0; j < original.num_tasks(); ++j) {
    EXPECT_DOUBLE_EQ(restored.requirement_pos[j], original.requirement_pos[j]);
  }
  for (std::size_t i = 0; i < original.num_users(); ++i) {
    EXPECT_DOUBLE_EQ(restored.users[i].cost, original.users[i].cost);
    EXPECT_EQ(restored.users[i].tasks, original.users[i].tasks);
    for (std::size_t k = 0; k < original.users[i].pos.size(); ++k) {
      EXPECT_DOUBLE_EQ(restored.users[i].pos[k], original.users[i].pos[k]);
    }
  }
}

TEST(MultiTaskText, DiagnosesMalformedInput) {
  EXPECT_THROW(multi_task_from_text("mcs-multi-task-v1\nrequirement 0 0.5\n"),
               common::PreconditionError);  // tasks line must come first
  EXPECT_THROW(multi_task_from_text("mcs-multi-task-v1\ntasks 2\nrequirement 5 0.5\n"),
               common::PreconditionError);  // task index out of range
  EXPECT_THROW(
      multi_task_from_text("mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 2 0:0.3\n"),
      common::PreconditionError);  // declared pair count mismatch
  EXPECT_THROW(
      multi_task_from_text("mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 0-0.3\n"),
      common::PreconditionError);  // missing colon
}

/// Expects the text to be rejected with a message carrying both a line
/// number and the given fragment.
template <typename Parser>
void expect_rejects(Parser parse, const std::string& text, const std::string& fragment) {
  try {
    parse(text);
    FAIL() << "expected a parse error containing '" << fragment << "'";
  } catch (const common::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(", line "), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

TEST(SingleTaskText, RejectsHostileInputWithLineNumbers) {
  const auto parse = [](const std::string& text) { return single_task_from_text(text); };
  expect_rejects(parse, "", "missing mcs-single-task-v1 header");
  expect_rejects(parse, "mcs-single-task-v\nrequirement 0.5\n",
                 "missing mcs-single-task-v1 header");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser inf 0.5\n", "non-finite");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser nan 0.5\n", "non-finite");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser 1 inf\n", "non-finite");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser 1 1.5\n",
                 "out of range [0, 1]");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser 1 -0.1\n",
                 "out of range [0, 1]");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser 0 0.5\n",
                 "strictly positive");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0.5\nuser -2 0.5\n",
                 "strictly positive");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement 0\nuser 1 0.5\n",
                 "out of range (0, 1)");
  expect_rejects(parse, "mcs-single-task-v1\nrequirement nan\nuser 1 0.5\n", "non-finite");
  expect_rejects(parse, "mcs-single-task-v1\nuser 1 0.5\n", "missing its requirement");
}

TEST(MultiTaskText, RejectsHostileInputWithLineNumbers) {
  const auto parse = [](const std::string& text) { return multi_task_from_text(text); };
  expect_rejects(parse, "mcs-multi-task-v\ntasks 1\n", "missing mcs-multi-task-v1 header");
  // A huge declared task count must fail cleanly, not attempt an allocation.
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 999999999999999999\n", "task count");
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 1048577\n", "task count");
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 0\n", "task count");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nrequirement 0 0.6\n",
                 "duplicate requirement for task 0");
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 2\nrequirement 0 0.5\nuser 1 1 0:0.3\n",
                 "task 1 has no requirement line");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 2 0:0.3 0:0.4\n",
                 "duplicate task index");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 2\nrequirement 0 0.5\nrequirement 1 0.5\n"
                 "user 1 2 1:0.3 0:0.4\n",
                 "strictly ascending");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 0:nan\n",
                 "non-finite");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser inf 1 0:0.3\n",
                 "non-finite");
  expect_rejects(parse,
                 "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 5:0.3\n",
                 "task index out of range");
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 0\n",
                 "at least one task");
  expect_rejects(parse, "mcs-multi-task-v1\ntasks 1\nrequirement 0 1.5\nuser 1 1 0:0.3\n",
                 "out of range (0, 1)");
}

TEST(InstanceFiles, LoadErrorsNameTheFile) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = dir / "mcs_io_hostile_test.txt";
  {
    std::ofstream out(path);
    out << "mcs-single-task-v1\nrequirement 0.5\nuser inf 0.5\n";
  }
  try {
    load_single_task(path);
    FAIL() << "expected a parse error";
  } catch (const common::PreconditionError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path.string()), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  {
    std::ofstream out(path);
    out << "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 0:2.0\n";
  }
  try {
    load_multi_task(path);
    FAIL() << "expected a parse error";
  } catch (const common::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(path.string()), std::string::npos)
        << error.what();
  }
  std::filesystem::remove(path);
  try {
    save_single_task("/nonexistent-dir/mcs-io.txt", test::random_single_task(4, 0.7, 3));
    FAIL() << "expected an I/O error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("/nonexistent-dir/mcs-io.txt"),
              std::string::npos)
        << error.what();
  }
}

TEST(InstanceFiles, SaveAndLoad) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto single_path = dir / "mcs_io_single_test.txt";
  const auto multi_path = dir / "mcs_io_multi_test.txt";

  const auto single = test::random_single_task(6, 0.7, 7);
  save_single_task(single_path, single);
  EXPECT_EQ(load_single_task(single_path).bids.size(), single.bids.size());

  const auto multi = test::random_multi_task(6, 3, 0.5, 9);
  save_multi_task(multi_path, multi);
  EXPECT_EQ(load_multi_task(multi_path).num_users(), multi.num_users());

  std::filesystem::remove(single_path);
  std::filesystem::remove(multi_path);
  EXPECT_THROW(load_single_task(single_path), std::runtime_error);
}

TEST(DetectInstanceKind, RecognizesHeaders) {
  EXPECT_EQ(detect_instance_kind("mcs-single-task-v1\n"), "single");
  EXPECT_EQ(detect_instance_kind("# comment\nmcs-multi-task-v1\n"), "multi");
  EXPECT_EQ(detect_instance_kind("something else\n"), "");
  EXPECT_EQ(detect_instance_kind(""), "");
}

TEST(LoadInstance, ParsesEitherKindAndNamesTheFile) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto single_path = dir / "mcs_io_load_single_test.txt";
  const auto multi_path = dir / "mcs_io_load_multi_test.txt";
  const auto single = test::random_single_task(6, 0.7, 11);
  const auto multi = test::random_multi_task(6, 3, 0.5, 12);
  save_single_task(single_path, single);
  save_multi_task(multi_path, multi);

  const auto loaded_single = load_instance(single_path);
  ASSERT_TRUE(std::holds_alternative<SingleTaskInstance>(loaded_single));
  EXPECT_EQ(to_text(std::get<SingleTaskInstance>(loaded_single)), to_text(single));
  const auto loaded_multi = load_instance(multi_path);
  ASSERT_TRUE(std::holds_alternative<MultiTaskInstance>(loaded_multi));
  EXPECT_EQ(to_text(std::get<MultiTaskInstance>(loaded_multi)), to_text(multi));

  {
    std::ofstream out(single_path);
    out << "mcs-single-task-v1\nrequirement 0.5\nuser -3.0 0.7\n";
  }
  try {
    load_instance(single_path);
    FAIL() << "expected a parse error";
  } catch (const common::PreconditionError& error) {
    EXPECT_EQ(std::string(error.what()),
              single_path.string() + ", line 3: cost -3.0 must be strictly positive");
  }
  std::filesystem::remove(single_path);
  std::filesystem::remove(multi_path);
  EXPECT_THROW(load_instance(single_path), std::runtime_error);
}

TEST(LoadInstance, RejectsAnUnknownHeader) {
  const auto path = std::filesystem::temp_directory_path() / "mcs_io_load_unknown_test.txt";
  {
    std::ofstream out(path);
    out << "mcs-something-v9\nrequirement 0.5\n";
  }
  try {
    load_instance(path);
    FAIL() << "expected an unrecognized header";
  } catch (const common::PreconditionError& error) {
    EXPECT_EQ(std::string(error.what()), "unrecognized instance header in " + path.string());
  }
  std::filesystem::remove(path);
}

TEST(LoadInstance, ReadsAFifoOnce) {
  // A pipe can be read only once: load_instance must detect the kind and
  // parse from the same read (a shell's <(...) hands the CLI such a path).
  const auto path = std::filesystem::temp_directory_path() / "mcs_io_load_fifo_test";
  std::filesystem::remove(path);
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // The future's destructor joins the writer on every path out of the test.
  auto writer = std::async(std::launch::async, [&] {
    std::ofstream out(path);
    out << "mcs-single-task-v1\nrequirement 0.5\nuser 1 0.6\n";
  });
  const auto loaded = load_instance(path);
  writer.get();
  std::filesystem::remove(path);
  ASSERT_TRUE(std::holds_alternative<SingleTaskInstance>(loaded));
  const auto& instance = std::get<SingleTaskInstance>(loaded);
  EXPECT_EQ(instance.requirement_pos, 0.5);
  ASSERT_EQ(instance.bids.size(), 1u);
  EXPECT_EQ(instance.bids[0].cost, 1.0);
  EXPECT_EQ(instance.bids[0].pos, 0.6);
}

// ---------------------------------------------------------------------------
// Golden bytes and error texts. Saved instance files must keep loading and
// diffing cleanly, so the exact text the writers emit and the exact
// diagnostics the readers raise are the contract, not just the round trip.
// ---------------------------------------------------------------------------

TEST(InstanceTextGolden, SingleTaskBytes) {
  SingleTaskInstance instance;
  instance.requirement_pos = 0.9;
  instance.bids = {{3.0, 0.7}, {0.1 + 0.2, 0.5}};
  EXPECT_EQ(to_text(instance),
            "mcs-single-task-v1\n"
            "requirement 0.90000000000000002\n"
            "user 3 0.69999999999999996\n"
            "user 0.30000000000000004 0.5\n");
}

TEST(InstanceTextGolden, MultiTaskBytes) {
  MultiTaskInstance instance;
  instance.requirement_pos = {0.8, 0.25};
  instance.users.push_back({{0, 1}, {0.3, 0.25}, 0.1 + 0.2});
  instance.users.push_back({{1}, {1e-300}, 5.0});
  EXPECT_EQ(to_text(instance),
            "mcs-multi-task-v1\n"
            "tasks 2\n"
            "requirement 0 0.80000000000000004\n"
            "requirement 1 0.25\n"
            "user 0.30000000000000004 2 0:0.29999999999999999 1:0.25\n"
            "user 5 1 1:1e-300\n");
}

/// The full message `parse(text)` throws; "" when it does not throw.
template <typename Parser>
std::string error_text(Parser parse, const std::string& text) {
  try {
    parse(text);
  } catch (const common::PreconditionError& error) {
    return error.what();
  }
  return "";
}

TEST(InstanceTextGolden, SingleTaskErrorTexts) {
  const auto parse = [](const std::string& text) { return single_task_from_text(text); };
  EXPECT_EQ(error_text(parse, ""), "instance text, line 1: missing mcs-single-task-v1 header");
  EXPECT_EQ(error_text(parse, "mcs-single-task-v1\nrequirement 0.5\nuser one 0.5\n"),
            "instance text, line 3: malformed number 'one'");
  EXPECT_EQ(error_text(parse, "mcs-single-task-v1\nrequirement 0.5\nuser inf 0.5\n"),
            "instance text, line 3: non-finite number 'inf'");
  EXPECT_EQ(error_text(parse, "mcs-single-task-v1\nrequirement 0.5\nbogus 1 2\n"),
            "instance text, line 3: unknown directive 'bogus'");
  // Comments, blank lines and CRLF endings count toward the line number.
  EXPECT_EQ(error_text(parse,
                       "# header next\n\nmcs-single-task-v1\r\nrequirement 0.5 # x\r\n \t\n"
                       "user 1e999 0.5\n"),
            "instance text, line 6: malformed number '1e999'");
  EXPECT_EQ(error_text(parse, "mcs-single-task-v1\nrequirement 0.5\nuser 2#3 0.5\n"),
            "instance text, line 3: expected 'user <cost> <pos>'");
  EXPECT_EQ(error_text(parse, "mcs-single-task-v1\nrequirement 0.5\nerror # 1 2\n"),
            "instance text, line 3: unknown directive 'error'");
}

TEST(InstanceTextGolden, MultiTaskErrorTexts) {
  const auto parse = [](const std::string& text) { return multi_task_from_text(text); };
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks x\n"),
            "instance text, line 2: malformed count 'x'");
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks 2\nrequirement 5 0.5\n"),
            "instance text, line 3: task index out of range");
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 5:0.3\n"),
            "instance text, line 4: task index out of range in '5:0.3'");
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks 1\nrequirement 0 0.5\nuser 1 1 x:0.3\n"),
            "instance text, line 4: malformed count 'x'");
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks 1\nrequirement 0 nan\n"),
            "instance text, line 3: non-finite number 'nan'");
  EXPECT_EQ(error_text(parse, "mcs-multi-task-v1\ntasks 1\nconfig 0 0.5\n"),
            "instance text, line 3: unknown directive 'config'");
}

TEST(InstanceTextGolden, FileErrorTexts) {
  const std::filesystem::path missing = "/nonexistent-dir/mcs-io.txt";
  try {
    load_single_task(missing);
    FAIL() << "expected an I/O error";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "cannot open instance file for reading: /nonexistent-dir/mcs-io.txt");
  }
  try {
    save_multi_task(missing, test::random_multi_task(4, 2, 0.5, 3));
    FAIL() << "expected an I/O error";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()),
              "cannot open instance file for writing: /nonexistent-dir/mcs-io.txt");
  }
}

}  // namespace
}  // namespace mcs::auction
