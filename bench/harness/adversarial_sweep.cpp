#include "harness/adversarial_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "auction/multi_task/exact.hpp"
#include "auction/multi_task/mechanism.hpp"
#include "auction/single_task/exact.hpp"
#include "auction/single_task/mechanism.hpp"
#include "common/check.hpp"
#include "common/math.hpp"
#include "oracle/mechanism.hpp"
#include "sim/adversary.hpp"
#include "sim/failures.hpp"
#include "sim/metrics.hpp"

namespace mcs::harness {

using namespace sim;

void SweepConfig::validate() const {
  MCS_EXPECTS(instances > 0, "the sweep needs at least one instance per point");
  MCS_EXPECTS(users >= 3 && tasks >= 1 && tasks <= (2 * users) / 3,
              "sweep users/tasks must satisfy the hostile-generator bounds");
  MCS_EXPECTS(alpha > 0.0, "alpha must be positive");
  MCS_EXPECTS(tolerance > 0.0, "tolerance must be positive");
  for (const double eps : epsilons) {
    MCS_EXPECTS(eps > 0.0 && std::isfinite(eps), "swept epsilons must be positive");
  }
  for (const double p : event_probs) {
    MCS_EXPECTS(p >= 0.0 && p < 1.0, "event probabilities must lie in [0, 1)");
  }
  for (const double s : shade_grid) {
    MCS_EXPECTS(s > 0.0, "coalition shades must be positive");
  }
  for (const std::size_t k : coalition_sizes) {
    MCS_EXPECTS(k >= 2 && k <= users, "coalition sizes must lie in [2, users]");
  }
  for (const std::size_t k : sybil_clones) {
    MCS_EXPECTS(k >= 2, "sybil splits need at least 2 clones");
  }
}

namespace {

auction::MultiTaskInstance replace_user(const auction::MultiTaskInstance& base,
                                        auction::UserId user,
                                        const auction::MultiTaskUserBid& bid) {
  auction::MultiTaskInstance out = base;
  out.users[user] = bid;
  return out;
}

bool rewards_identical(const std::vector<auction::WinnerReward>& a,
                       const std::vector<auction::WinnerReward>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user ||
        a[i].critical_contribution != b[i].critical_contribution ||
        a[i].reward.critical_pos != b[i].reward.critical_pos ||
        a[i].reward.cost != b[i].reward.cost || a[i].reward.alpha != b[i].reward.alpha) {
      return false;
    }
  }
  return true;
}

bool outcomes_identical(const auction::MechanismOutcome& a,
                        const auction::MechanismOutcome& b) {
  return a.allocation.feasible == b.allocation.feasible &&
         a.allocation.winners == b.allocation.winners &&
         a.allocation.total_cost == b.allocation.total_cost &&
         a.degraded == b.degraded && a.uncovered_tasks == b.uncovered_tasks &&
         rewards_identical(a.rewards, b.rewards);
}

/// Per-run state of the sweep: the production configuration plus the
/// divergence counters every auction in the sweep reports into.
struct SweepContext {
  const SweepConfig& cfg;
  auction::MechanismConfig fast;
  SweepResult* result = nullptr;

  auction::MechanismOutcome run(const auction::SingleTaskInstance& instance) {
    const auto out = auction::single_task::run_mechanism(instance, fast);
    ++result->auctions_run;
    if (cfg.check_fast_paths && !outcomes_identical(out, oracle::run_mechanism(instance, fast))) {
      ++result->fast_oracle_mismatches;
    }
    return out;
  }

  auction::MechanismOutcome run(const auction::MultiTaskInstance& instance) {
    const auto out = auction::multi_task::run_mechanism(instance, fast);
    ++result->auctions_run;
    if (cfg.check_fast_paths && !outcomes_identical(out, oracle::run_mechanism(instance, fast))) {
      ++result->fast_oracle_mismatches;
    }
    return out;
  }
};

auction::MechanismConfig fast_config(const SweepConfig& cfg) {
  auction::MechanismConfig config;
  config.alpha = cfg.alpha;
  return config;  // the defaults ARE the fast paths
}

/// OPT's social cost on the truthful instance; +inf when nothing covers.
double opt_cost(const auction::SingleTaskInstance& instance) {
  const auto exact = auction::single_task::solve_exact(instance);
  return exact.allocation.feasible ? exact.allocation.total_cost
                                   : std::numeric_limits<double>::infinity();
}

double opt_cost(const auction::MultiTaskInstance& instance) {
  const auto exact = auction::multi_task::solve_exact(instance);
  return exact.allocation.feasible ? exact.allocation.total_cost
                                   : std::numeric_limits<double>::infinity();
}

/// True-type coverage of a winner set: fraction of the tasks whose TRUE
/// achieved PoS meets the truthful requirement.
double true_coverage(const auction::SingleTaskInstance& truth,
                     const std::vector<auction::UserId>& winners) {
  return common::approx_ge(achieved_pos(truth, winners), truth.requirement_pos) ? 1.0 : 0.0;
}

double true_coverage(const auction::MultiTaskInstance& truth,
                     const std::vector<auction::UserId>& winners) {
  const auto achieved = achieved_pos(truth, winners);
  std::size_t hit = 0;
  for (std::size_t j = 0; j < achieved.size(); ++j) {
    if (common::approx_ge(achieved[j], truth.requirement_pos[j])) {
      ++hit;
    }
  }
  return achieved.empty() ? 0.0 : static_cast<double>(hit) / static_cast<double>(achieved.size());
}

/// The strategic-deviation grid of user `u` in the single-task family: a
/// deviated declared PoS routed through the SAME report-noise realization
/// (common random numbers), compared against (a) the noised-truthful play and
/// (b) the clean-truthful envelope.
struct ProbeAccumulator {
  PrivacyPoint* pt = nullptr;
  SweepResult* result = nullptr;
  bool baseline = false;  ///< ε disabled: violations are theorem violations
  double tolerance = 1e-6;
  double sum_violation_gain = 0.0;

  void record(double deviated, double truthful, double clean) {
    ++pt->sp_probes;
    const double gain = deviated - truthful;
    if (gain > tolerance) {
      ++pt->sp_violations;
      sum_violation_gain += gain;
      pt->max_sp_gain = std::max(pt->max_sp_gain, gain);
      if (baseline) {
        ++result->truthful_sp_violations;
      }
    }
    pt->max_envelope_excess = std::max(pt->max_envelope_excess, deviated - clean);
  }
};

struct PointAverages {
  double sum_cost_ratio = 0.0;
  std::size_t cost_samples = 0;
  double sum_opt_ratio = 0.0;
  std::size_t opt_samples = 0;
  double sum_coverage = 0.0;
  std::size_t coverage_samples = 0;

  void finish(PrivacyPoint& pt) const {
    pt.cost_ratio_vs_truthful = cost_samples ? sum_cost_ratio / cost_samples : 0.0;
    pt.approx_ratio_vs_opt = opt_samples ? sum_opt_ratio / opt_samples : 0.0;
    pt.coverage_rate = coverage_samples ? sum_coverage / coverage_samples : 0.0;
  }
};

void finish_point(PrivacyPoint& pt, const ProbeAccumulator& acc, const PointAverages& avg) {
  pt.sp_violation_rate =
      pt.sp_probes ? static_cast<double>(pt.sp_violations) / pt.sp_probes : 0.0;
  pt.ir_violation_rate =
      pt.ir_winners ? static_cast<double>(pt.ir_violations) / pt.ir_winners : 0.0;
  pt.mean_sp_gain = pt.sp_violations ? acc.sum_violation_gain / pt.sp_violations : 0.0;
  avg.finish(pt);
}

void record_ir(const std::vector<double>& utilities, PrivacyPoint& pt, SweepResult& result,
               bool baseline, double tolerance) {
  for (const double u : utilities) {
    ++pt.ir_winners;
    if (u < -tolerance) {
      ++pt.ir_violations;
      if (baseline) {
        ++result.truthful_ir_violations;
      }
    }
  }
}

std::vector<PrivacyPoint> privacy_axis_single(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<double> eps_grid = {0.0};  // the truthful baseline
  eps_grid.insert(eps_grid.end(), cfg.epsilons.begin(), cfg.epsilons.end());

  std::vector<PrivacyPoint> points;
  for (const double eps : eps_grid) {
    PrivacyPoint pt;
    pt.epsilon = eps;
    const bool baseline = eps <= 0.0;
    ProbeAccumulator acc{&pt, ctx.result, baseline, cfg.tolerance};
    PointAverages avg;
    AttackConfig atk;
    atk.seed = cfg.seed;
    atk.privacy.epsilon = eps;
    atk.privacy.mechanism = cfg.mechanism;

    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto truth = hostile_single_task(cfg.users, shape, cfg.seed + i);
      const auto noised = noised_reports(atk, truth, i);
      const auto outcome = ctx.run(noised);

      if (outcome.allocation.feasible) {
        record_ir(expected_utilities(truth, outcome), pt, *ctx.result, baseline,
                  cfg.tolerance);
        avg.sum_coverage += true_coverage(truth, outcome.allocation.winners);
        ++avg.coverage_samples;
        const auto honest = ctx.run(truth);
        if (honest.allocation.feasible && honest.allocation.total_cost > 0.0) {
          avg.sum_cost_ratio += outcome.allocation.total_cost / honest.allocation.total_cost;
          ++avg.cost_samples;
        }
        if (cfg.compute_opt) {
          const double opt = opt_cost(truth);
          if (std::isfinite(opt) && opt > 0.0) {
            avg.sum_opt_ratio += outcome.allocation.total_cost / opt;
            ++avg.opt_samples;
          }
        }
      } else {
        ++pt.infeasible_noised;
      }

      for (std::size_t u = 0; u < cfg.users; ++u) {
        const auto user = static_cast<auction::UserId>(u);
        const double u_truthful = expected_utility_of(truth, outcome, user);
        // The envelope: the user's exact true report, un-noised, with the
        // others' noised reports held fixed. SP of the underlying mechanism
        // says NO deviation (noised or not) beats this.
        const auto clean = noised.with_declared_pos(user, truth.bids[user].pos);
        const double u_clean = expected_utility_of(truth, ctx.run(clean), user);
        for (std::size_t trial = 0; trial < cfg.misreport_trials; ++trial) {
          auto dev_rng =
              attack_user_stream(cfg.seed, AttackAxis::kMisreport, (i << 16) | trial, user);
          double declared = dev_rng.uniform(0.0, 0.95);
          if (!baseline) {
            auto noise = report_stream(atk, i, user);
            declared = privatize_pos(declared, atk.privacy, noise);
          }
          const auto deviated = noised.with_declared_pos(user, declared);
          acc.record(expected_utility_of(truth, ctx.run(deviated), user), u_truthful, u_clean);
        }
      }
    }
    finish_point(pt, acc, avg);
    points.push_back(pt);
  }
  return points;
}

std::vector<PrivacyPoint> privacy_axis_multi(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<double> eps_grid = {0.0};
  eps_grid.insert(eps_grid.end(), cfg.epsilons.begin(), cfg.epsilons.end());

  std::vector<PrivacyPoint> points;
  for (const double eps : eps_grid) {
    PrivacyPoint pt;
    pt.epsilon = eps;
    const bool baseline = eps <= 0.0;
    ProbeAccumulator acc{&pt, ctx.result, baseline, cfg.tolerance};
    PointAverages avg;
    AttackConfig atk;
    atk.seed = cfg.seed ^ 0x6d756c7469ULL;  // decorrelate from the single-task axis
    atk.privacy.epsilon = eps;
    atk.privacy.mechanism = cfg.mechanism;

    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto truth = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + i);
      const auto noised = noised_reports(atk, truth, i);
      const auto outcome = ctx.run(noised);

      if (outcome.allocation.feasible) {
        record_ir(expected_utilities(truth, outcome), pt, *ctx.result, baseline,
                  cfg.tolerance);
        avg.sum_coverage += true_coverage(truth, outcome.allocation.winners);
        ++avg.coverage_samples;
        const auto honest = ctx.run(truth);
        if (honest.allocation.feasible && honest.allocation.total_cost > 0.0) {
          avg.sum_cost_ratio += outcome.allocation.total_cost / honest.allocation.total_cost;
          ++avg.cost_samples;
        }
        if (cfg.compute_opt) {
          const double opt = opt_cost(truth);
          if (std::isfinite(opt) && opt > 0.0) {
            avg.sum_opt_ratio += outcome.allocation.total_cost / opt;
            ++avg.opt_samples;
          }
        }
      } else {
        ++pt.infeasible_noised;
      }

      for (std::size_t u = 0; u < cfg.users; ++u) {
        const auto user = static_cast<auction::UserId>(u);
        const double u_truthful = expected_utility_of(truth, outcome, user);
        const auto clean = replace_user(noised, user, truth.users[user]);
        const double u_clean = expected_utility_of(truth, ctx.run(clean), user);
        const double true_total = truth.users[user].total_contribution();
        for (std::size_t trial = 0; trial < cfg.misreport_trials; ++trial) {
          auto dev_rng =
              attack_user_stream(cfg.seed, AttackAxis::kMisreport, (i << 16) | trial, user);
          // Deviate in contribution space (scale the whole declared vector),
          // then push the deviated vector through the SAME noise stream the
          // truthful report would have seen.
          const double scale = dev_rng.uniform(0.1, 1.9);
          auto deviated_bid =
              truth.with_declared_total_contribution(user, scale * true_total).users[user];
          if (!baseline) {
            auto noise = report_stream(atk, i, user);
            for (auto& pos : deviated_bid.pos) {
              pos = privatize_pos(pos, atk.privacy, noise);
            }
          }
          const auto deviated = replace_user(noised, user, deviated_bid);
          acc.record(expected_utility_of(truth, ctx.run(deviated), user), u_truthful, u_clean);
        }
      }
    }
    finish_point(pt, acc, avg);
    points.push_back(pt);
  }
  return points;
}

std::vector<FailurePoint> failure_axis(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<geo::CellId> task_cells(cfg.tasks);
  for (std::size_t j = 0; j < cfg.tasks; ++j) {
    task_cells[j] = static_cast<geo::CellId>(j);
  }

  std::vector<FailurePoint> points;
  for (const double event_prob : cfg.event_probs) {
    FailurePoint pt;
    pt.event_prob = event_prob;
    pt.rounds = cfg.failure_rounds;
    AttackConfig atk;
    atk.seed = cfg.seed ^ 0x77656174686572ULL;
    atk.cell_failures.event_prob = event_prob;
    atk.cell_failures.cells = task_cells;
    const auto schedule = make_attack_schedule(atk, cfg.failure_rounds);

    double sum_coverage = 0.0;
    std::size_t hit = 0;
    std::size_t task_samples = 0;
    for (std::size_t r = 0; r < cfg.failure_rounds; ++r) {
      const auto& event = schedule.events[r];
      if (event.occurred) {
        ++pt.events;
      }
      const auto truth =
          hostile_multi_task(cfg.users, cfg.tasks, HostileShape::kRandom, cfg.seed + 7000 + r);
      const auto outcome = ctx.run(truth);
      if (!outcome.allocation.feasible) {
        continue;
      }
      for (std::size_t j = 0; j < cfg.tasks; ++j) {
        const auto task = static_cast<auction::TaskIndex>(j);
        const double achieved = achieved_pos_with_cell_failure(
            truth, outcome.allocation.winners, task, task_cells, event);
        const double required = truth.requirement_pos[j];
        sum_coverage += std::min(achieved / required, 1.0);
        if (common::approx_ge(achieved, required)) {
          ++hit;
        }
        ++task_samples;
      }
    }
    pt.mean_coverage = task_samples ? sum_coverage / task_samples : 0.0;
    pt.requirement_hit_rate = task_samples ? static_cast<double>(hit) / task_samples : 0.0;
    points.push_back(pt);
  }
  return points;
}

/// The first `size` winners of the truthful run, padded with the lowest-id
/// losers when the winner set is smaller than the coalition.
std::vector<auction::UserId> pick_members(const auction::Allocation& allocation,
                                          std::size_t size, std::size_t users) {
  std::vector<auction::UserId> members(
      allocation.winners.begin(),
      allocation.winners.begin() +
          static_cast<std::ptrdiff_t>(std::min(size, allocation.winners.size())));
  for (std::size_t u = 0; members.size() < size && u < users; ++u) {
    const auto id = static_cast<auction::UserId>(u);
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      members.push_back(id);
    }
  }
  std::sort(members.begin(), members.end());
  return members;
}

std::vector<CollusionPoint> collusion_axis(SweepContext& ctx) {
  const auto& cfg = ctx.cfg;
  std::vector<CollusionPoint> points;

  for (const std::size_t size : cfg.coalition_sizes) {
    CollusionPoint pt;
    pt.kind = "coalition";
    pt.size = size;
    double sum_gain = 0.0;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto st = hostile_single_task(cfg.users, shape, cfg.seed + 9000 + i);
      const auto st_probe = probe_coalition_shading(
          st, pick_members(ctx.run(st).allocation, size, cfg.users), cfg.shade_grid,
          ctx.fast, cfg.tolerance);
      const auto mt = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + 9000 + i);
      const auto mt_probe = probe_coalition_shading(
          mt, pick_members(ctx.run(mt).allocation, size, cfg.users), cfg.shade_grid,
          ctx.fast, cfg.tolerance);
      for (const auto& probe : {st_probe, mt_probe}) {
        ++pt.probes;
        if (probe.profitable) {
          ++profitable;
          sum_gain += probe.gain;
          pt.max_gain = std::max(pt.max_gain, probe.gain);
        }
      }
    }
    pt.profitable_rate = pt.probes ? static_cast<double>(profitable) / pt.probes : 0.0;
    pt.mean_gain = profitable ? sum_gain / profitable : 0.0;
    points.push_back(pt);
  }

  for (const std::size_t clones : cfg.sybil_clones) {
    CollusionPoint pt;
    pt.kind = "sybil";
    pt.size = clones;
    double sum_gain = 0.0;
    std::size_t profitable = 0;
    for (std::size_t i = 0; i < cfg.instances; ++i) {
      const auto shape = kHostileShapes[i % kHostileShapes.size()];
      const auto st = hostile_single_task(cfg.users, shape, cfg.seed + 9500 + i);
      const auto st_out = ctx.run(st);
      const auto mt = hostile_multi_task(cfg.users, cfg.tasks, shape, cfg.seed + 9500 + i);
      const auto mt_out = ctx.run(mt);
      std::vector<DeviationProbe> probes;
      if (!st_out.allocation.winners.empty()) {
        probes.push_back(probe_sybil_split(st, st_out.allocation.winners.front(), clones,
                                           ctx.fast, cfg.tolerance));
      }
      if (!mt_out.allocation.winners.empty()) {
        probes.push_back(probe_sybil_split(mt, mt_out.allocation.winners.front(), clones,
                                           ctx.fast, cfg.tolerance));
      }
      for (const auto& probe : probes) {
        ++pt.probes;
        if (probe.profitable) {
          ++profitable;
          sum_gain += probe.gain;
          pt.max_gain = std::max(pt.max_gain, probe.gain);
        }
      }
    }
    pt.profitable_rate = pt.probes ? static_cast<double>(profitable) / pt.probes : 0.0;
    pt.mean_gain = profitable ? sum_gain / profitable : 0.0;
    points.push_back(pt);
  }
  return points;
}

}  // namespace

SweepResult run_adversarial_sweep(const SweepConfig& config) {
  config.validate();
  SweepResult result;
  SweepContext ctx{config, fast_config(config), &result};
  result.single_task = privacy_axis_single(ctx);
  result.multi_task = privacy_axis_multi(ctx);
  result.failures = failure_axis(ctx);
  result.collusion = collusion_axis(ctx);
  return result;
}

SweepConfig quick_sweep_config() {
  SweepConfig cfg;
  cfg.instances = 2;
  cfg.users = 10;
  cfg.tasks = 4;
  cfg.misreport_trials = 1;
  cfg.epsilons = {0.5, 2.0};
  cfg.event_probs = {0.0, 0.5};
  cfg.failure_rounds = 8;
  cfg.coalition_sizes = {2};
  cfg.shade_grid = {0.5, 0.9, 1.25};
  cfg.sybil_clones = {2};
  return cfg;
}

}  // namespace mcs::harness
