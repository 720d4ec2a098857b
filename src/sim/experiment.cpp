#include "sim/experiment.hpp"

#include "common/rng.hpp"

namespace mcs::sim {

Workload::Workload(const WorkloadConfig& config)
    : config_(config),
      city_(config.city),
      dataset_(trace::generate_trace(city_)),
      fleet_(dataset_, city_.grid(), mobility::MarkovLearner(config.laplace_alpha),
             config.train_fraction) {
  common::Rng rng(config.user_seed);
  users_ = mobility::derive_users(fleet_, config.users, rng);
}

WorkloadConfig default_bench_workload() {
  WorkloadConfig config;
  config.city.num_taxis = 250;
  config.city.num_days = 12;
  config.city.trips_per_day = 25;
  return config;
}

}  // namespace mcs::sim
