#include "core/stack.hpp"

// Context method bodies (the sealed sim fast path) are inline in
// sim/simulator.hpp; every TU calling them must see the definitions.
#include "sim/simulator.hpp"

namespace snapstab::core {

namespace {

svc::HostConfig base_config(int degree, int channel_capacity) {
  svc::HostConfig cfg;
  cfg.degree = degree;
  cfg.channel_capacity = channel_capacity;
  return cfg;
}

svc::HostConfig pif_config(
    int degree, int channel_capacity,
    std::function<Value(sim::Context&, int, const Value&)> app_brd) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.app_brd = std::move(app_brd);
  return cfg;
}

svc::HostConfig idl_config(std::int64_t id, int degree, int channel_capacity,
                           bool unsafe_lower_layer_first) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.id = id;
  cfg.with_idl = true;
  cfg.unsafe_lower_layer_first = unsafe_lower_layer_first;
  return cfg;
}

svc::HostConfig me_config(std::int64_t id, int degree, StackOptions options) {
  svc::HostConfig cfg = base_config(degree, options.channel_capacity);
  cfg.id = id;
  cfg.with_me = true;
  cfg.me_options = std::move(options.me);
  return cfg;
}

svc::HostConfig reset_config(int degree, int channel_capacity,
                             std::function<void(sim::Context&)> on_reset) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.with_reset = true;
  cfg.on_reset = std::move(on_reset);
  return cfg;
}

svc::HostConfig election_config(std::int64_t id, int degree,
                                int channel_capacity) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.id = id;
  cfg.with_election = true;
  return cfg;
}

svc::HostConfig snapshot_config(int degree, int channel_capacity,
                                std::function<Value()> local_state) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.with_snapshot = true;
  cfg.local_state = std::move(local_state);
  return cfg;
}

svc::HostConfig termdetect_config(int degree, int channel_capacity,
                                  DiffusingApp app) {
  svc::HostConfig cfg = base_config(degree, channel_capacity);
  cfg.with_termdetect = true;
  cfg.app = std::move(app);
  return cfg;
}

}  // namespace

PifProcess::PifProcess(
    int degree, int channel_capacity,
    std::function<Value(sim::Context&, int, const Value&)> app_brd)
    : ServiceHost(pif_config(degree, channel_capacity, std::move(app_brd))) {}

IdlProcess::IdlProcess(std::int64_t id, int degree, int channel_capacity,
                       bool unsafe_lower_layer_first)
    : ServiceHost(
          idl_config(id, degree, channel_capacity, unsafe_lower_layer_first)) {
}

MeStackProcess::MeStackProcess(std::int64_t id, int degree,
                               StackOptions options)
    : ServiceHost(me_config(id, degree, std::move(options))) {}

ResetProcess::ResetProcess(int degree, int channel_capacity,
                           std::function<void(sim::Context&)> on_reset)
    : ServiceHost(
          reset_config(degree, channel_capacity, std::move(on_reset))) {}

ElectionProcess::ElectionProcess(std::int64_t id, int degree,
                                 int channel_capacity)
    : ServiceHost(election_config(id, degree, channel_capacity)) {}

SnapshotProcess::SnapshotProcess(int degree, int channel_capacity,
                                 std::function<Value()> local_state)
    : ServiceHost(
          snapshot_config(degree, channel_capacity, std::move(local_state))) {}

TermDetectProcess::TermDetectProcess(int degree, int channel_capacity,
                                     DiffusingApp app)
    : ServiceHost(
          termdetect_config(degree, channel_capacity, std::move(app))) {}

}  // namespace snapstab::core
