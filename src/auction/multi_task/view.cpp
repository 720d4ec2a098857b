#include "auction/multi_task/view.hpp"

#include "auction/multi_task/gain.hpp"
#include "common/check.hpp"
#include "common/math.hpp"

namespace mcs::auction::multi_task {

double MultiTaskView::total_contribution(UserId user) const {
  double total = 0.0;
  for (double q : user_contributions(user)) {
    total += q;
  }
  return total;
}

double MultiTaskView::cost_of(const std::vector<UserId>& users) const {
  double total = 0.0;
  for (UserId user : users) {
    total += costs[static_cast<std::size_t>(user)];
  }
  return total;
}

namespace {

/// A whole instance read as its own slice.
struct WholeInstance {
  std::size_t num_tasks;
  std::size_t num_users;
  TaskIndex task(std::size_t k) const { return static_cast<TaskIndex>(k); }
  UserId user(std::size_t k) const { return static_cast<UserId>(k); }
  TaskIndex local(TaskIndex task) const { return task; }
};

/// One part of a partitioned instance; local() is -1 off the part.
struct PartOf {
  const InstanceSlice& slice;
  std::size_t num_tasks;
  std::size_t num_users;
  TaskIndex task(std::size_t k) const { return slice.tasks[k]; }
  UserId user(std::size_t k) const { return slice.users[k]; }
  TaskIndex local(TaskIndex task) const {
    const TaskPlacement& at = slice.placement[static_cast<std::size_t>(task)];
    return at.part == slice.part ? at.local : -1;
  }
};

/// The one fill loop. The checks run in MultiTaskInstance::validate()'s
/// order on the slice's sub-instance — requirements, then per user the cost,
/// the bid's shape and each kept entry's range, order and PoS — and each
/// runs before the value it guards is used, so the first failure is the one
/// validate() would report.
template <typename Slice>
MultiTaskView build(const MultiTaskInstance& flat, const Slice& slice) {
  MultiTaskView view;
  view.requirements.reserve(slice.num_tasks);
  for (std::size_t k = 0; k < slice.num_tasks; ++k) {
    const auto task = static_cast<std::size_t>(slice.task(k));
    MCS_EXPECTS(task < flat.num_tasks(), "slice task id out of range");
    const double requirement = flat.requirement_pos[task];
    checks::requirement(requirement);
    view.requirements.push_back(common::contribution_from_pos(requirement));
  }
  std::size_t entries = 0;  // an upper bound: a straddler's dropped entries count too
  for (std::size_t k = 0; k < slice.num_users; ++k) {
    const auto user = static_cast<std::size_t>(slice.user(k));
    MCS_EXPECTS(user < flat.num_users(), "slice user id out of range");
    entries += flat.users[user].tasks.size();
  }
  view.offsets.reserve(slice.num_users + 1);
  view.costs.reserve(slice.num_users);
  view.tasks.reserve(entries);
  view.contributions.reserve(entries);
  view.offsets.push_back(0);
  for (std::size_t k = 0; k < slice.num_users; ++k) {
    const auto& bid = flat.users[static_cast<std::size_t>(slice.user(k))];
    checks::cost(bid.cost);
    checks::bid_shape(bid);
    view.costs.push_back(bid.cost);
    for (std::size_t e = 0; e < bid.tasks.size(); ++e) {
      checks::task_in_range(bid.tasks[e], flat.num_tasks());
      const TaskIndex local = slice.local(bid.tasks[e]);
      if (local < 0) {
        continue;
      }
      if (view.tasks.size() > view.offsets.back()) {
        checks::ascending(view.tasks.back(), local);
      }
      checks::pos(bid.pos[e]);
      view.tasks.push_back(local);
      view.contributions.push_back(common::contribution_from_pos(bid.pos[e]));
    }
    view.offsets.push_back(view.tasks.size());
  }
  view.initial_effective.reserve(slice.num_users);
  for (std::size_t i = 0; i < slice.num_users; ++i) {
    view.initial_effective.push_back(
        effective_contribution(view.user_tasks(static_cast<UserId>(i)),
                               view.user_contributions(static_cast<UserId>(i)),
                               view.requirements));
  }
  return view;
}

}  // namespace

MultiTaskView MultiTaskView::from_instance(const MultiTaskInstance& instance) {
  return build(instance, WholeInstance{instance.num_tasks(), instance.num_users()});
}

MultiTaskView MultiTaskView::from_slice(const MultiTaskInstance& flat,
                                        const InstanceSlice& slice) {
  MCS_EXPECTS(slice.placement.size() == flat.num_tasks(),
              "slice placement must cover every task of the flat instance");
  return build(flat, PartOf{slice, slice.tasks.size(), slice.users.size()});
}

ViewOverlay ViewOverlay::without(UserId user) {
  ViewOverlay overlay;
  overlay.excluded_user = user;
  return overlay;
}

ViewOverlay ViewOverlay::with_declared_total_contribution(const MultiTaskView& view, UserId user,
                                                          double declared_total_q) {
  MCS_EXPECTS(user >= 0 && static_cast<std::size_t>(user) < view.num_users(),
              "user id out of range");
  MCS_EXPECTS(declared_total_q >= 0.0, "declared contribution must be non-negative");
  ViewOverlay overlay;
  overlay.overridden_user = user;
  const auto original = view.user_contributions(user);
  overlay.overridden_contributions.reserve(original.size());
  const double current = view.total_contribution(user);
  if (current <= 0.0) {
    // A user with zero true contribution declares uniformly over her tasks.
    const double share = declared_total_q / static_cast<double>(original.size());
    const double q = common::contribution_from_pos(common::pos_from_contribution(share));
    overlay.overridden_contributions.assign(original.size(), q);
    return overlay;
  }
  const double scale = declared_total_q / current;
  for (double q : original) {
    overlay.overridden_contributions.push_back(
        common::contribution_from_pos(common::pos_from_contribution(q * scale)));
  }
  return overlay;
}

}  // namespace mcs::auction::multi_task
