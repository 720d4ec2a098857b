#include "auction/multi_task/greedy.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <queue>
#include <utility>

#include "auction/multi_task/gain.hpp"
#include "common/check.hpp"

namespace mcs::auction::multi_task {

namespace {

/// The selected user's gain read through the overlay.
double effective_of(const MultiTaskView& view, const ViewOverlay& overlay, UserId user,
                    std::span<const double> residual) {
  return effective_contribution(view.user_tasks(user), overlay.contributions_of(view, user),
                                residual);
}

/// Deducts the user's contributions from the residuals: the loop's update.
void deduct(const MultiTaskView& view, const ViewOverlay& overlay, UserId user,
            std::vector<double>& residual) {
  const auto tasks = view.user_tasks(user);
  const auto contributions = overlay.contributions_of(view, user);
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const auto task = static_cast<std::size_t>(tasks[k]);
    residual[task] = std::max(0.0, residual[task] - contributions[k]);
  }
}

/// The state a run starts from: the residuals after a prefix of picks, and
/// those picks, which stay blocked. An empty prefix leaves the requirements.
struct Start {
  std::vector<double> residual;
  std::vector<bool> picked;     ///< per user
  std::vector<UserId> winners;  ///< the prefix's picks, in order
};

Start start_after(const MultiTaskView& view, const ViewOverlay& overlay,
                  std::span<const GreedyStep> prefix) {
  Start start{{view.requirements.begin(), view.requirements.end()},
              std::vector<bool>(view.num_users(), false),
              {}};
  start.winners.reserve(prefix.size());
  for (const GreedyStep& step : prefix) {
    const auto user = static_cast<std::size_t>(step.selected);
    MCS_EXPECTS(user < view.num_users() && !start.picked[user],
                "a resumed prefix must pick distinct users of the view");
    MCS_EXPECTS(!overlay.excludes(step.selected) && step.selected != overlay.overridden_user,
                "the overlay must leave a resumed prefix's picks unchanged");
    start.picked[user] = true;
    start.winners.push_back(step.selected);
    deduct(view, overlay, step.selected, start.residual);
  }
  return start;
}

/// One round's argmax: the user, her gain, and her ratio.
struct Pick {
  UserId user = 0;
  double effective = 0.0;
  double ratio = 0.0;
};

/// Closes out a keep_partial run: the allocation stays infeasible but keeps
/// the selected prefix and its cost, and the unmet tasks are reported.
GreedyResult finish_partial(const MultiTaskView& view, GreedyResult result,
                            const std::vector<double>& residual, bool timed_out) {
  for (std::size_t j = 0; j < residual.size(); ++j) {
    if (residual[j] > kResidualFloor) {
      result.uncovered_tasks.push_back(static_cast<TaskIndex>(j));
    }
  }
  result.timed_out = timed_out;
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = view.cost_of(result.allocation.winners);
  return result;
}

/// The paper-literal argmax: rescan every unselected user each round.
/// Ascending id order plus the strict `>` comparison break ratio ties toward
/// the lower user id.
class ReferencePicker {
 public:
  ReferencePicker(const MultiTaskView& view, const ViewOverlay& overlay,
                  obs::PhaseCounters* counters, const Start& start)
      : view_(view), overlay_(overlay), counters_(counters), selected_(start.picked) {}

  std::optional<Pick> next(const std::vector<double>& residual) {
    UserId best = -1;
    double best_ratio = 0.0;
    double best_effective = 0.0;
    for (std::size_t i = 0; i < view_.num_users(); ++i) {
      const auto user = static_cast<UserId>(i);
      if (selected_[i] || overlay_.excludes(user)) {
        continue;
      }
      if (counters_ != nullptr) {
        ++counters_->heap_reevaluations;
      }
      const double effective = effective_of(view_, overlay_, user, residual);
      if (effective <= 0.0) {
        continue;
      }
      const double ratio = effective / view_.costs[i];
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_effective = effective;
        best = user;
      }
    }
    if (best < 0) {
      return std::nullopt;
    }
    selected_[static_cast<std::size_t>(best)] = true;
    return Pick{best, best_effective, best_ratio};
  }

 private:
  const MultiTaskView& view_;
  const ViewOverlay& overlay_;
  obs::PhaseCounters* counters_;
  std::vector<bool> selected_;
};

/// The CELF-style lazy argmax. Every heap entry carries the round its ratio
/// was computed in; ratios are non-increasing across rounds (the gain is
/// submodular in the shrinking residuals and costs are constant), so a stale
/// ratio is an upper bound. Popping until the top entry is fresh therefore
/// yields the true argmax, and ordering equal ratios by ascending user id
/// reproduces the reference scan's lowest-id tie-break: a smaller-id user
/// whose stale bound ties the fresh top would still sit above it, so she is
/// recomputed first and, on a true tie, selected first. The start heap holds
/// every candidate's fresh gain at the start residuals.
class LazyPicker {
 public:
  LazyPicker(const MultiTaskView& view, const ViewOverlay& overlay, obs::PhaseCounters* counters,
             const Start& start)
      : view_(view), overlay_(overlay), counters_(counters) {
    const bool cold = start.winners.empty();
    std::vector<Entry> entries;
    entries.reserve(view.num_users());
    for (std::size_t i = 0; i < view.num_users(); ++i) {
      const auto user = static_cast<UserId>(i);
      if (overlay.excludes(user) || start.picked[i]) {
        continue;
      }
      // A cold run's start residuals ARE the requirements, so the
      // precomputed first-round gains apply; only an overridden user needs
      // a fresh scan. A resumed run scans every candidate once.
      const double effective = cold && user != overlay.overridden_user
                                   ? view.initial_effective[i]
                                   : effective_of(view, overlay, user, start.residual);
      if (effective <= 0.0) {
        continue;
      }
      entries.push_back({effective / view.costs[i], effective, user, 0});
    }
    heap_ = Heap(Order{}, std::move(entries));
  }

  std::optional<Pick> next(const std::vector<double>& residual) {
    while (!heap_.empty()) {
      const Entry top = heap_.top();
      heap_.pop();
      if (top.round == round_) {
        ++round_;
        return Pick{top.user, top.effective, top.ratio};
      }
      if (counters_ != nullptr) {
        ++counters_->heap_reevaluations;
      }
      const double effective = effective_of(view_, overlay_, top.user, residual);
      if (effective <= 0.0) {
        // Gains never recover (residuals only shrink): drop the user for good.
        continue;
      }
      heap_.push({effective / view_.costs[static_cast<std::size_t>(top.user)], effective,
                  top.user, round_});
    }
    ++round_;
    return std::nullopt;
  }

 private:
  struct Entry {
    double ratio;
    double effective;
    UserId user;
    std::uint32_t round;
  };
  struct Order {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.ratio != b.ratio) {
        return a.ratio < b.ratio;
      }
      return a.user > b.user;  // equal ratios: lower id on top
    }
  };
  using Heap = std::priority_queue<Entry, std::vector<Entry>, Order>;

  const MultiTaskView& view_;
  const ViewOverlay& overlay_;
  obs::PhaseCounters* counters_;
  Heap heap_;
  std::uint32_t round_ = 0;
};

template <typename Picker>
GreedyResult run_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                        const GreedyOptions& options, Start start, Picker& picker) {
  GreedyResult result;
  result.allocation.winners = std::move(start.winners);
  std::vector<double> residual = std::move(start.residual);

  while (any_residual(residual)) {
    if (options.counters != nullptr) {
      ++options.counters->deadline_polls;
    }
    if (options.deadline.expired()) {
      if (options.keep_partial) {
        return finish_partial(view, std::move(result), residual, /*timed_out=*/true);
      }
      options.deadline.check("multi-task greedy cover");
    }
    const auto pick = picker.next(residual);
    if (!pick) {
      // Stalled with unmet requirements: infeasible instance.
      if (options.keep_partial) {
        return finish_partial(view, std::move(result), residual, /*timed_out=*/false);
      }
      return GreedyResult{};
    }
    if (options.counters != nullptr) {
      ++options.counters->rounds;
    }
    result.steps.push_back({pick->user, pick->effective, pick->ratio,
                            options.record_residuals ? residual : std::vector<double>{}});
    result.allocation.winners.push_back(pick->user);
    deduct(view, overlay, pick->user, residual);
  }

  result.allocation.feasible = true;
  std::sort(result.allocation.winners.begin(), result.allocation.winners.end());
  result.allocation.total_cost = view.cost_of(result.allocation.winners);
  return result;
}

}  // namespace

GreedyResult solve_greedy(const MultiTaskInstance& instance) {
  return solve_greedy(instance, GreedyOptions{});
}

GreedyResult solve_greedy(const MultiTaskInstance& instance, const GreedyOptions& options) {
  return solve_greedy(MultiTaskView::from_instance(instance), ViewOverlay::none(), options);
}

GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options) {
  return solve_greedy(view, overlay, options, {});
}

GreedyResult solve_greedy(const MultiTaskView& view, const ViewOverlay& overlay,
                          const GreedyOptions& options, std::span<const GreedyStep> prefix) {
  auto start = start_after(view, overlay, prefix);
  switch (options.algorithm) {
    case GreedyAlgorithm::kLazy: {
      LazyPicker picker(view, overlay, options.counters, start);
      return run_greedy(view, overlay, options, std::move(start), picker);
    }
    case GreedyAlgorithm::kReferenceScan: {
      ReferencePicker picker(view, overlay, options.counters, start);
      return run_greedy(view, overlay, options, std::move(start), picker);
    }
  }
  throw common::PreconditionError("unknown greedy algorithm");
}

}  // namespace mcs::auction::multi_task
