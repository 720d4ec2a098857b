// Analytic evaluation metrics of the paper's Section IV: achieved task PoS
// under a winner set, winners' expected utilities, and individual-rationality
// checks — all computed in closed form from true types (the Bernoulli engine
// in execution.hpp provides the empirical cross-check).
#pragma once

#include <vector>

#include "auction/instance.hpp"

namespace mcs::sim {

/// Achieved PoS of the single task under a winner set: 1 - Π (1 - p_i).
double achieved_pos(const auction::SingleTaskInstance& instance,
                    const std::vector<auction::UserId>& winners);

/// Achieved PoS of every task under a winner set (multi-task).
std::vector<double> achieved_pos(const auction::MultiTaskInstance& instance,
                                 const std::vector<auction::UserId>& winners);

/// Average of the per-task achieved PoS (the paper's Fig 7 aggregates the
/// multi-task case this way).
double average_achieved_pos(const auction::MultiTaskInstance& instance,
                            const std::vector<auction::UserId>& winners);

/// Expected utilities of the outcome's winners, aligned with its rewards:
/// (p_i - p̄_i)·α with p_i the user's true success probability (single task:
/// her PoS; multi-task: the probability she completes at least one task).
std::vector<double> expected_utilities(const auction::SingleTaskInstance& instance,
                                       const auction::MechanismOutcome& outcome);
std::vector<double> expected_utilities(const auction::MultiTaskInstance& instance,
                                       const auction::MechanismOutcome& outcome);

/// Expected utility of one user under the outcome, accounted against her
/// true type in `truth`: 0 when she loses, (p_i - p̄_i)·α when she wins.
double expected_utility_of(const auction::SingleTaskInstance& truth,
                           const auction::MechanismOutcome& outcome, auction::UserId user);
double expected_utility_of(const auction::MultiTaskInstance& truth,
                           const auction::MechanismOutcome& outcome, auction::UserId user);

/// True when every winner's expected utility is >= -tolerance (individual
/// rationality, Theorems 1 and 4).
bool individually_rational(const std::vector<double>& utilities, double tolerance = 1e-9);

}  // namespace mcs::sim
