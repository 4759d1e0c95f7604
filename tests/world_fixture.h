// Shared helpers for protocol-level tests: build small worlds with
// controlled acoustic events and inspect component state.
#pragma once

#include <memory>

#include "enviromic.h"

namespace enviromic::testing {

struct WorldBuilder {
  core::WorldConfig cfg;

  WorldBuilder& mode(core::Mode m, double beta = 2.0) {
    cfg.node_defaults = core::paper_node_params(m, beta);
    return *this;
  }

  WorldBuilder& seed(std::uint64_t s) {
    cfg.seed = s;
    return *this;
  }

  WorldBuilder& flash_bytes(std::uint64_t bytes) {
    cfg.node_defaults.flash.capacity_bytes = bytes;
    return *this;
  }

  WorldBuilder& perfect_detection() {
    cfg.node_defaults.detector.detect_probability = 1.0;
    return *this;
  }

  WorldBuilder& lossless_radio() {
    cfg.channel.loss_probability = 0.0;
    return *this;
  }

  std::unique_ptr<core::World> grid(int nx, int ny, double spacing = 2.0) {
    auto world = std::make_unique<core::World>(cfg);
    core::grid_deployment(*world, nx, ny, spacing);
    return world;
  }
};

/// A constant static event, audible within `range` of `at`.
inline acoustic::SourceId add_event(core::World& world, sim::Position at,
                                    double start_s, double end_s,
                                    double range = 2.0, double loudness = 1.0) {
  return world.add_source(std::make_shared<acoustic::StaticTrajectory>(at),
                          std::make_shared<acoustic::ConstantWave>(1.0),
                          sim::Time::seconds(start_s),
                          sim::Time::seconds(end_s), loudness, range);
}

/// Sum a per-node statistic over all nodes.
template <typename Fn>
std::uint64_t sum_nodes(core::World& world, Fn&& fn) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    total += fn(world.node(i));
  }
  return total;
}

/// Count how many nodes currently believe they lead an active group.
inline int leader_count(core::World& world) {
  int n = 0;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    if (world.node(i).group().is_leader()) ++n;
  }
  return n;
}

/// Starts a stand-alone detector and polls it every poll interval, the way
/// World's detector pump drives each node's detector (the detector keeps no
/// timer of its own). `det` must outlive the scheduler's run.
inline void start_pumped(sim::Scheduler& sched, acoustic::Detector& det) {
  struct Pump {
    static void arm(sim::Scheduler& s, acoustic::Detector& d) {
      s.after(d.config().poll_interval, [&s, &d] {
        arm(s, d);
        d.poll_once();
      });
    }
  };
  det.start();
  Pump::arm(sched, det);
}

}  // namespace enviromic::testing
