#include "sim/metrics.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math.hpp"
#include "common/stats.hpp"

namespace mcs::sim {

double achieved_pos(const auction::SingleTaskInstance& instance,
                    const std::vector<auction::UserId>& winners) {
  return common::pos_from_contribution(instance.contribution_of(winners));
}

std::vector<double> achieved_pos(const auction::MultiTaskInstance& instance,
                                 const std::vector<auction::UserId>& winners) {
  std::vector<double> pos(instance.num_tasks());
  for (std::size_t j = 0; j < pos.size(); ++j) {
    pos[j] = instance.achieved_pos(winners, static_cast<auction::TaskIndex>(j));
  }
  return pos;
}

double average_achieved_pos(const auction::MultiTaskInstance& instance,
                            const std::vector<auction::UserId>& winners) {
  const auto pos = achieved_pos(instance, winners);
  MCS_EXPECTS(!pos.empty(), "instance has no tasks");
  return common::mean(pos);
}

std::vector<double> expected_utilities(const auction::SingleTaskInstance& instance,
                                       const auction::MechanismOutcome& outcome) {
  std::vector<double> utilities;
  utilities.reserve(outcome.rewards.size());
  for (const auto& winner : outcome.rewards) {
    const double true_pos = instance.bids[static_cast<std::size_t>(winner.user)].pos;
    utilities.push_back(winner.reward.expected_utility(true_pos));
  }
  return utilities;
}

std::vector<double> expected_utilities(const auction::MultiTaskInstance& instance,
                                       const auction::MechanismOutcome& outcome) {
  std::vector<double> utilities;
  utilities.reserve(outcome.rewards.size());
  for (const auto& winner : outcome.rewards) {
    const double true_any =
        instance.users[static_cast<std::size_t>(winner.user)].any_success_probability();
    utilities.push_back(winner.reward.expected_utility(true_any));
  }
  return utilities;
}

double expected_utility_of(const auction::SingleTaskInstance& truth,
                           const auction::MechanismOutcome& outcome, auction::UserId user) {
  if (!outcome.allocation.contains(user)) {
    return 0.0;
  }
  return outcome.reward_of(user).reward.expected_utility(truth.bids[user].pos);
}

double expected_utility_of(const auction::MultiTaskInstance& truth,
                           const auction::MechanismOutcome& outcome, auction::UserId user) {
  if (!outcome.allocation.contains(user)) {
    return 0.0;
  }
  return outcome.reward_of(user).reward.expected_utility(
      truth.users[user].any_success_probability());
}

bool individually_rational(const std::vector<double>& utilities, double tolerance) {
  return std::all_of(utilities.begin(), utilities.end(),
                     [&](double u) { return u >= -tolerance; });
}

}  // namespace mcs::sim
