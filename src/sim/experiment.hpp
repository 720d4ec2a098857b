// Shared experiment plumbing for the benches and examples: one call builds
// the full pipeline of the paper's evaluation — synthetic city, trace,
// per-taxi mobility models, and the derived mobile-user population from
// which sim/scenario.hpp samples auction participants.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/pos.hpp"
#include "sim/scenario.hpp"
#include "trace/generator.hpp"

namespace mcs::sim {

/// Configuration of the evaluation workload.
struct WorkloadConfig {
  trace::CityConfig city;
  double laplace_alpha = 1.0;       ///< Markov learner smoothing
  double train_fraction = 1.0;      ///< use < 1 to keep a prediction holdout
  mobility::UserDerivationConfig users;
  std::uint64_t user_seed = 7;      ///< seed of the user derivation draws
};

/// The materialized workload: city model, generated trace, learned fleet
/// models, and derived user population.
class Workload {
 public:
  explicit Workload(const WorkloadConfig& config);

  const WorkloadConfig& config() const { return config_; }
  const trace::CityModel& city() const { return city_; }
  const trace::TraceDataset& dataset() const { return dataset_; }
  const mobility::FleetModel& fleet() const { return fleet_; }
  const std::vector<mobility::MobilityUser>& users() const { return users_; }

 private:
  WorkloadConfig config_;
  trace::CityModel city_;
  trace::TraceDataset dataset_;
  mobility::FleetModel fleet_;
  std::vector<mobility::MobilityUser> users_;
};

/// The workload the bench binaries share (paper-default parameters, sized to
/// finish in seconds rather than minutes).
WorkloadConfig default_bench_workload();

}  // namespace mcs::sim
