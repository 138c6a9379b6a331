#include "analysis/scenario.hpp"

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "topology/scale_generator.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"

namespace vp::analysis {

namespace {

/// The value of environment variable `name`; nullopt when it is unset or
/// empty.
std::optional<std::string_view> env_value(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return std::nullopt;
  return value;
}

[[noreturn]] void bad_env(const char* name, const char* expects) {
  throw std::invalid_argument(std::string{name} + " expects " + expects);
}

}  // namespace

ScenarioConfig ScenarioConfig::from_env(double default_scale) {
  ScenarioConfig config;
  config.scale = default_scale;
  if (const auto text = env_value("VP_SCALE")) {
    const auto scale = util::parse_number<double>(*text);
    if (!scale || !(*scale > 0)) bad_env("VP_SCALE", "a finite number > 0");
    config.scale = *scale;
  }
  if (const auto text = env_value("VP_SEED")) {
    const auto seed = util::parse_number<long>(*text);
    if (!seed) bad_env("VP_SEED", "a whole number");
    config.seed = static_cast<std::uint64_t>(*seed);  // as --seed
  }
  if (const auto text = env_value("VP_GEN_ASES")) {
    const auto ases = util::parse_count<std::uint32_t>(*text);
    if (!ases) bad_env("VP_GEN_ASES", "a number in [0, 4294967295]");
    config.generated_ases = *ases;
  }
  return config;
}

Scenario::Scenario(const ScenarioConfig& config) : config_(config) {
  if (config.generated_ases > 0) {
    // Scale-generator path: the full stack runs unchanged over a
    // synthetic Internet of arbitrary size (VP_GEN_ASES).
    topology::ScaleConfig gen;
    gen.seed = config.seed;
    gen.as_count = config.generated_ases;
    gen.target_blocks = static_cast<std::uint64_t>(
        std::max(2000.0, 13.0 * config.generated_ases * config.scale));
    topo_ = std::make_unique<topology::Topology>(
        topology::generate_scale_topology(gen));
  } else {
    topology::TopologyConfig topo_config =
        topology::TopologyConfig::scaled(config.scale);
    topo_config.seed = config.seed;
    topo_ = std::make_unique<topology::Topology>(
        topology::generate_topology(topo_config));
  }

  sim::InternetConfig internet_config;
  internet_config.responsiveness.seed = util::hash_combine(config.seed, 1);
  internet_config.flips.seed = util::hash_combine(config.seed, 2);
  internet_ = std::make_unique<sim::InternetSim>(*topo_, internet_config);

  hitlist::HitlistConfig hitlist_config;
  hitlist_config.seed = util::hash_combine(config.seed, 3);
  hitlist_ = std::make_unique<hitlist::Hitlist>(hitlist::Hitlist::build(
      *topo_, internet_->responsiveness(), hitlist_config));

  engine_ = std::make_unique<core::ProbeEngine>(*internet_, *hitlist_);

  // Atlas VP count: sized so the Verfploeter/Atlas responding-block ratio
  // lands near the paper's 430x (Table 4). Expected responding blocks
  // ~ 0.53 x allocated; the 1.10 compensates for shared blocks and
  // down probes.
  atlas::AtlasConfig atlas_config;
  atlas_config.seed = util::hash_combine(config.seed, 4);
  atlas_config.vp_count = static_cast<std::uint32_t>(
      std::max<double>(24.0, 0.53 * static_cast<double>(topo_->block_count()) /
                                 430.0 * 1.10));
  atlas_ = std::make_unique<atlas::AtlasPlatform>(
      *topo_, internet_->responsiveness(), atlas_config);

  atlas::AtlasConfig small = atlas_config;
  small.seed = util::hash_combine(config.seed, 5);
  small.vp_count = std::max<std::uint32_t>(20, atlas_config.vp_count / 10);
  atlas_small_ = std::make_unique<atlas::AtlasPlatform>(
      *topo_, internet_->responsiveness(), small);

  route_cache_ = std::make_unique<bgp::RouteCache>(*topo_);

  if (config.generated_ases > 0) {
    // Same site counts as the paper's deployments (Table 3), hosted at
    // the generated transit core instead of the hand-built upstreams.
    broot_ = anycast::make_generated(*topo_, 2, config.seed);
    tangled_ = anycast::make_generated(*topo_, 9,
                                       util::hash_combine(config.seed, 9));
    tangled_.name = "Generated-9";
  } else {
    broot_ = anycast::make_broot(*topo_);
    tangled_ = anycast::make_tangled(*topo_);
  }
}

bgp::RoutingOptions Scenario::routing_options(std::uint64_t epoch_salt) const {
  bgp::RoutingOptions options;
  options.tiebreak_salt = util::hash_combine(config_.seed, epoch_salt);
  return options;
}

std::shared_ptr<const bgp::RoutingTable> Scenario::route(
    const anycast::Deployment& deployment, std::uint64_t epoch_salt) const {
  return route_cache_->routes(deployment, routing_options(epoch_salt));
}

std::shared_ptr<const bgp::RoutingTable> Scenario::route_delta(
    const anycast::Deployment& base, const anycast::ConfigDelta& delta,
    std::uint64_t epoch_salt) const {
  anycast::Deployment target = base;
  delta.apply_to(target);
  return route(target, epoch_salt);
}

DeltaSession Scenario::delta_session(const anycast::Deployment& base,
                                     std::uint64_t epoch_salt) const {
  return DeltaSession{*topo_, base, routing_options(epoch_salt)};
}

dnsload::LoadModel Scenario::broot_load(std::uint64_t date_seed) const {
  dnsload::LoadConfig load_config;
  load_config.seed = util::hash_combine(config_.seed, date_seed);
  // The resolver population is the same on both dates; only volumes drift.
  load_config.membership_seed = util::hash_combine(config_.seed, 0x6d656d);
  load_config.profile = dnsload::LoadProfile::kRootLike;
  return dnsload::LoadModel{*topo_, internet_->responsiveness(), load_config};
}

dnsload::LoadModel Scenario::nl_load() const {
  dnsload::LoadConfig load_config;
  load_config.seed = util::hash_combine(config_.seed, 0x6e6c);
  load_config.profile = dnsload::LoadProfile::kNlLike;
  return dnsload::LoadModel{*topo_, internet_->responsiveness(), load_config};
}

}  // namespace vp::analysis
