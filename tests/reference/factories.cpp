#include "reference/factories.hpp"

#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "scenario/registries.hpp"
#include "util/strfmt.hpp"

namespace dualcast {
namespace {

template <typename P, typename Config>
ProcessFactory factory_of(Config config) {
  return [config](const ProcessEnv&) { return std::make_unique<P>(config); };
}

using ReferenceBuilder =
    std::function<ProcessFactory(const scenario::SpecArgs& args)>;

/// Each built-in's name and its reference builder, parsing the arguments
/// through the built-in's own grammar.
const std::map<std::string, ReferenceBuilder>& references() {
  static const std::map<std::string, ReferenceBuilder> builders = {
      {"decay_global",
       [](const scenario::SpecArgs& args) {
         return decay_global_factory(scenario::parse_decay_global(args));
       }},
      {"decay_local",
       [](const scenario::SpecArgs& args) {
         return decay_local_factory(scenario::parse_decay_local(args));
       }},
      {"geo_local",
       [](const scenario::SpecArgs& args) {
         return geo_local_factory(scenario::parse_geo_local(args));
       }},
      {"round_robin",
       [](const scenario::SpecArgs& args) {
         return round_robin_factory(scenario::parse_round_robin(args));
       }},
      {"gossip",
       [](const scenario::SpecArgs& args) {
         return gossip_factory(scenario::parse_gossip(args));
       }},
      {"robust_mix",
       [](const scenario::SpecArgs& args) {
         return robust_mix_factory(scenario::parse_robust_mix(args));
       }},
  };
  return builders;
}

}  // namespace

ProcessFactory decay_global_factory(DecayGlobalConfig config) {
  return factory_of<DecayGlobalBroadcast>(config);
}

ProcessFactory decay_local_factory(DecayLocalConfig config) {
  return factory_of<DecayLocalBroadcast>(config);
}

ProcessFactory round_robin_factory(RoundRobinConfig config) {
  return factory_of<RoundRobinBroadcast>(config);
}

ProcessFactory geo_local_factory(GeoLocalConfig config) {
  return factory_of<GeoLocalBroadcast>(config);
}

ProcessFactory robust_mix_factory(RobustMixConfig config) {
  return factory_of<RobustMixBroadcast>(config);
}

ProcessFactory gossip_factory(GossipConfig config) {
  return factory_of<GossipBroadcast>(config);
}

KernelFactory adapter_factory(ProcessFactory factory) {
  return [factory] { return make_scalar_kernel_adapter(factory); };
}

KernelFactory reference_kernel(const std::string& algorithm_spec) {
  const scenario::SpecCall call = scenario::parse_call(algorithm_spec);
  const auto it = references().find(call.name);
  if (it == references().end()) {
    throw scenario::ScenarioError(
        str("no reference for algorithm \"", algorithm_spec, "\""));
  }
  return adapter_factory(it->second(scenario::SpecArgs(call)));
}

std::string reference_spec(const std::string& algorithm_spec) {
  return "reference_" + algorithm_spec;
}

void register_reference_algorithms() {
  static std::once_flag once;
  std::call_once(once, [] {
    for (const auto& [name, build] : references()) {
      scenario::algorithms().add(
          reference_spec(name), "scalar reference of " + name,
          [build](const scenario::SpecArgs& args) {
            return adapter_factory(build(args));
          });
    }
  });
}

}  // namespace dualcast
