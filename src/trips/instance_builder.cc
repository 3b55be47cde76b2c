#include "trips/instance_builder.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "trips/preferences.h"

namespace urr {

InstanceBuilder::InstanceBuilder(const RoadNetwork* network,
                                 const SocialGraph* social,
                                 const CheckInMap* checkins,
                                 DistanceOracle* oracle)
    : network_(network), social_(social), checkins_(checkins), oracle_(oracle) {}

Result<UrrInstance> InstanceBuilder::BuildFromRecords(
    const TripRecords& records, const InstanceOptions& options,
    Rng* rng) const {
  if (static_cast<int>(records.size()) < options.num_riders) {
    return Status::InvalidArgument("not enough records (" +
                                   std::to_string(records.size()) + " < " +
                                   std::to_string(options.num_riders) + ")");
  }
  UrrInstance instance;
  instance.network = network_;
  instance.social = social_;

  TripRecords pool = records;
  rng->Shuffle(&pool);
  for (const TripRecord& rec : pool) {
    if (static_cast<int>(instance.riders.size()) >= options.num_riders) break;
    if (oracle_->Distance(rec.pickup_node, rec.dropoff_node) == kInfiniteCost) {
      continue;  // unroutable pair (possible on directed extracts)
    }
    Rider r;
    r.source = rec.pickup_node;
    r.destination = rec.dropoff_node;
    instance.riders.push_back(r);
  }
  if (static_cast<int>(instance.riders.size()) < options.num_riders) {
    return Status::Internal("too many unroutable records");
  }
  // Vehicles appear where previous trips ended (§7.1.2).
  for (int j = 0; j < options.num_vehicles; ++j) {
    const TripRecord& rec = pool[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(pool.size()) - 1))];
    instance.vehicles.push_back({rec.dropoff_node, options.capacity});
  }
  URR_RETURN_NOT_OK(Finalize(options, rng, &instance));
  return instance;
}

Result<UrrInstance> InstanceBuilder::BuildFromModel(
    const PoissonDemandModel& model, const InstanceOptions& options,
    Rng* rng) const {
  UrrInstance instance;
  instance.network = network_;
  instance.social = social_;

  // Generate per-node Poisson arrivals over the frame, then top up / trim to
  // exactly m riders (the paper fixes m per experiment).
  std::vector<std::pair<NodeId, NodeId>> trips;
  for (NodeId i = 0; i < network_->num_nodes(); ++i) {
    if (model.Lambda(i) <= 0) continue;
    const int arrivals = model.SampleArrivals(i, model.frame_length(), rng);
    for (int a = 0; a < arrivals; ++a) {
      trips.emplace_back(i, model.SampleDestination(i, rng));
    }
  }
  rng->Shuffle(&trips);
  int guard = options.num_riders * 8;
  while (static_cast<int>(trips.size()) < options.num_riders && guard-- > 0) {
    trips.push_back(model.SampleTrip(rng));
  }
  for (const auto& [src, dst] : trips) {
    if (static_cast<int>(instance.riders.size()) >= options.num_riders) break;
    if (src == dst) continue;
    if (oracle_->Distance(src, dst) == kInfiniteCost) continue;
    Rider r;
    r.source = src;
    r.destination = dst;
    instance.riders.push_back(r);
  }
  if (static_cast<int>(instance.riders.size()) < options.num_riders) {
    return Status::Internal("demand model could not supply enough riders");
  }
  for (int j = 0; j < options.num_vehicles; ++j) {
    instance.vehicles.push_back(
        {model.SampleVehicleLocation(rng), options.capacity});
  }
  URR_RETURN_NOT_OK(Finalize(options, rng, &instance));
  return instance;
}

Result<UrrInstance> InstanceBuilder::BuildFromTrips(
    const std::vector<std::pair<NodeId, NodeId>>& od_pairs,
    const std::vector<Vehicle>& vehicles, const InstanceOptions& options,
    Cost now, Rng* rng) const {
  UrrInstance instance;
  instance.network = network_;
  instance.social = social_;
  instance.now = now;
  for (const auto& [src, dst] : od_pairs) {
    if (src < 0 || src >= network_->num_nodes() || dst < 0 ||
        dst >= network_->num_nodes()) {
      return Status::InvalidArgument("OD pair out of range");
    }
    if (src == dst) continue;
    if (oracle_->Distance(src, dst) == kInfiniteCost) continue;
    Rider r;
    r.source = src;
    r.destination = dst;
    instance.riders.push_back(r);
  }
  instance.vehicles = vehicles;
  URR_RETURN_NOT_OK(Finalize(options, rng, &instance));
  return instance;
}

Status InstanceBuilder::Finalize(const InstanceOptions& options, Rng* rng,
                                 UrrInstance* instance) const {
  if (options.pickup_deadline_min <= 0 ||
      options.pickup_deadline_max < options.pickup_deadline_min) {
    return Status::InvalidArgument("bad pickup deadline range");
  }
  if (options.epsilon < 1.0) {
    return Status::InvalidArgument("flexible factor must be >= 1");
  }
  for (Rider& r : instance->riders) {
    // rt⁻ ~ U[rt⁻min, rt⁻max] (§7.1.2); rt⁺ adds ε times the minimum
    // travel cost an experienced driver would need.
    r.pickup_deadline =
        instance->now +
        rng->Uniform(options.pickup_deadline_min, options.pickup_deadline_max);
    const Cost direct = oracle_->Distance(r.source, r.destination);
    r.dropoff_deadline = r.pickup_deadline + options.epsilon * direct;
    r.user = (checkins_ != nullptr) ? checkins_->NearestUser(r.source) : -1;
  }
  if (options.stated_preferences) {
    std::vector<RiderPreferences> prefs;
    prefs.reserve(instance->riders.size());
    for (size_t i = 0; i < instance->riders.size(); ++i) {
      prefs.push_back(SampleRiderPreferences(rng));
    }
    std::vector<VehicleAttributes> attrs;
    attrs.reserve(instance->vehicles.size());
    for (size_t j = 0; j < instance->vehicles.size(); ++j) {
      attrs.push_back(SampleVehicleAttributes(rng));
    }
    return instance->SetVehicleUtility(
        BuildPreferenceUtilityMatrix(prefs, attrs));
  }
  // Latent-factor μ_v matrix: rider preference and vehicle feature vectors
  // in [0,1]^rank; μ_v = normalized dot product (∈ [0,1]).
  const int rank = std::max(1, options.utility_rank);
  const size_t m = instance->riders.size();
  const size_t n = instance->vehicles.size();
  std::vector<double> rider_pref(m * static_cast<size_t>(rank));
  std::vector<double> vehicle_feat(n * static_cast<size_t>(rank));
  for (double& x : rider_pref) x = rng->Uniform();
  for (double& x : vehicle_feat) x = rng->Uniform();
  std::vector<float> mu(m * n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double dot = 0;
      for (int d = 0; d < rank; ++d) {
        dot += rider_pref[i * static_cast<size_t>(rank) + static_cast<size_t>(d)] *
               vehicle_feat[j * static_cast<size_t>(rank) + static_cast<size_t>(d)];
      }
      // sqrt maps the mean of a product-of-uniforms dot (~0.25) to ~0.5,
      // matching the magnitude of the paper's Table-1 preference values
      // while staying monotone and inside [0,1].
      mu[i * n + j] =
          static_cast<float>(std::sqrt(dot / static_cast<double>(rank)));
    }
  }
  return instance->SetVehicleUtility(std::move(mu));
}

}  // namespace urr
