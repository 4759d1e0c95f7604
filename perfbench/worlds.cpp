// Benchmark of record for the EnviroMic simulator.
//
// Runs one seeded workload (indoor, outdoor or chaos_drain) through the
// library's public API — World construction, World::run_until in fixed
// simulated slices, Node::retrieval().start_drain, and the end-of-run census
// (World::snapshot, World::drain_decoded, ChunkStore::recover) — and prints
// one JSON object as the last line of stdout:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones: host time measured with
// the scheduler profiler off, plus the paper's simulated outcomes (which a
// fixed seed repeats exactly). With --trace 1 they are the per-layer ones:
// profiler self-time per tag, exact work counters, and this file's own timers
// around each public call. See README.md for every metric.
//
// A run simulates a panel of `seeds_per_run` distinct world seeds derived
// from --seed (world 0 is --seed itself) and repeats the panel until
// --seconds have passed. Every repeat of a seed must reproduce the same
// behaviour digest, and world 0 must match the library's canned runner for
// that seed bit for bit; a world that fails either check counts as failed.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/retrieval.h"
#include "core/workload.h"
#include "core/world.h"
#include "storage/chunk_store.h"
#include "util/parse.h"

namespace {

namespace core = enviromic::core;
namespace sim = enviromic::sim;
namespace storage = enviromic::storage;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Workloads ---------------------------------------------------------------

enum class Kind { kIndoor, kOutdoor, kChaosDrain };

struct Workload {
  const char* name;
  Kind kind;
  /// Distinct world seeds per run. The simulated outcomes are means over
  /// this panel, so its size sets how far they move from one --seed to the
  /// next; it is fixed per workload so that they never depend on host speed.
  int seeds_per_run;
  /// Simulated slice per timed run_until step (>= 100 steps per world).
  sim::Time step;
};

// The canned runners' own defaults define indoor and outdoor; chaos_drain is
// the 500-node chaos field with a four-sink drain of /chunks/all at the end.
const Workload kWorkloads[] = {
    {"indoor", Kind::kIndoor, 20, sim::Time::seconds_i(20)},
    {"outdoor", Kind::kOutdoor, 4, sim::Time::seconds_i(60)},
    {"chaos_drain", Kind::kChaosDrain, 20, sim::Time::seconds_i(10)},
};

core::IndoorRunConfig indoor_config(std::uint64_t seed) {
  core::IndoorRunConfig cfg;
  cfg.seed = seed;
  return cfg;
}

core::OutdoorRunConfig outdoor_config(std::uint64_t seed) {
  core::OutdoorRunConfig cfg;
  cfg.seed = seed;
  return cfg;
}

core::ChaosRunConfig chaos_drain_config(std::uint64_t seed) {
  core::ChaosRunConfig cfg;
  cfg.seed = seed;
  cfg.grid_nx = 25;
  cfg.grid_ny = 20;
  cfg.horizon = sim::Time::seconds_i(1200);
  cfg.faults.crash_probability = 0.3;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.faults.brownout_probability = 0.2;
  cfg.burst.enabled = true;
  cfg.link_asymmetry_max = 0.1;
  cfg.drain_sinks = 4;
  cfg.drain_hops = 4;
  // Long enough that the drains end on their own stall timeout.
  cfg.grace = sim::Time::seconds_i(600);
  cfg.flight_recorder = false;
  return cfg;
}

// run_indoor takes its last snapshot at the last whole sample period, so the
// indoor world ends there too.
sim::Time indoor_end(const core::IndoorRunConfig& cfg) {
  return cfg.sample_period * (cfg.horizon / cfg.sample_period);
}

// --- One world ---------------------------------------------------------------

/// A world under construction or run, with the drain-leg state the scheduled
/// drain start writes into. Heap-allocated and never moved: the scheduled
/// callback holds its address.
struct Built {
  std::unique_ptr<core::World> world;
  sim::Time end;
  sim::Time drain_at;  //!< chaos_drain: drain start (= fault horizon)
  bool drains = false;
  std::vector<std::size_t> sinks;
  std::uint64_t drain_eligible = 0;
};

core::WorldConfig base_world_config(std::uint64_t seed, core::Mode mode,
                                    double beta_max, double flash_scale) {
  core::WorldConfig wc;
  wc.seed = seed;
  wc.node_defaults = core::paper_node_params(mode, beta_max);
  if (flash_scale != 1.0) {
    wc.node_defaults.flash.capacity_bytes = static_cast<std::uint64_t>(
        static_cast<double>(wc.node_defaults.flash.capacity_bytes) *
        flash_scale);
  }
  return wc;
}

// Each build_* function mirrors the matching canned runner in
// core/experiment.cpp: every WorldConfig field it sets from its config, and
// its construction order (RNG forks, event and fault plans, scheduled drain
// start); the canned-runner digest check in main() proves they agree.
std::unique_ptr<Built> build_indoor(std::uint64_t seed) {
  const auto cfg = indoor_config(seed);
  auto b = std::make_unique<Built>();
  b->world = std::make_unique<core::World>(
      base_world_config(cfg.seed, cfg.mode, cfg.beta_max, cfg.flash_scale));
  core::World& world = *b->world;
  core::grid_deployment(world, cfg.grid_nx, cfg.grid_ny, cfg.spacing_ft);
  core::IndoorEventPlanConfig events = cfg.events;
  events.horizon = cfg.horizon;
  if (events.generators.empty()) {
    const double s = cfg.spacing_ft;
    events.generators = {{2.5 * s, 1.5 * s},
                         {(cfg.grid_nx - 2.5) * s, (cfg.grid_ny - 2.5) * s}};
  }
  core::schedule_indoor_events(world, events, world.rng().fork("plan"));
  world.start();
  b->end = indoor_end(cfg);
  return b;
}

std::unique_ptr<Built> build_outdoor(std::uint64_t seed) {
  const auto cfg = outdoor_config(seed);
  auto b = std::make_unique<Built>();
  core::WorldConfig wc =
      base_world_config(cfg.seed, core::Mode::kFull, cfg.beta_max, 1.0);
  wc.channel.comm_range = 40.0;
  b->world = std::make_unique<core::World>(wc);
  core::World& world = *b->world;
  core::forest_deployment(world, cfg.nodes, cfg.plot_ft, cfg.plot_ft, 8.0,
                          world.rng().fork("deploy"));
  core::OutdoorPlanConfig plan = cfg.plan;
  plan.horizon = cfg.horizon;
  plan.plot = cfg.plot_ft;
  core::schedule_outdoor_events(world, plan, world.rng().fork("outdoor"));
  world.start();
  b->end = cfg.horizon;
  return b;
}

std::unique_ptr<Built> build_chaos_drain(std::uint64_t seed) {
  const auto cfg = chaos_drain_config(seed);
  auto b = std::make_unique<Built>();
  core::WorldConfig wc = base_world_config(cfg.seed, core::Mode::kFull,
                                           cfg.beta_max, cfg.flash_scale);
  wc.channel.burst = cfg.burst;
  wc.channel.link_asymmetry_max = cfg.link_asymmetry_max;
  wc.channel.use_spatial_index = cfg.spatial_index;
  wc.channel.batched_delivery = cfg.batched_delivery;
  auto& proto = wc.node_defaults.protocol;
  proto.beacon_idle_backoff_max = cfg.beacon_idle_backoff_max;
  wc.node_defaults.flash.store_payloads = cfg.store_payloads;
  if (cfg.transfer_window_frags != 0)
    proto.transfer_window_frags = cfg.transfer_window_frags;
  proto.storage_policy = cfg.storage_policy;
  proto.coded_k = cfg.coded_k;
  proto.coded_n = cfg.coded_n;
  proto.recording_replicas = cfg.recording_replicas;
  b->world = std::make_unique<core::World>(wc);
  core::World& world = *b->world;
  core::grid_deployment(world, cfg.grid_nx, cfg.grid_ny, cfg.spacing_ft);
  core::IndoorEventPlanConfig events = cfg.events;
  events.horizon = cfg.horizon;
  if (events.generators.empty()) {
    const double s = cfg.spacing_ft;
    events.generators = {{1.5 * s, 1.5 * s},
                         {(cfg.grid_nx - 2.5) * s, (cfg.grid_ny - 2.5) * s}};
  }
  core::schedule_indoor_events(world, events, world.rng().fork("plan"));

  std::vector<enviromic::net::NodeId> ids;
  for (std::size_t i = 0; i < world.node_count(); ++i)
    ids.push_back(world.node(i).id());
  world.apply_faults(core::FaultPlan::randomized(
      cfg.faults, ids, cfg.horizon, world.rng().fork("faults")));

  const std::size_t nx = static_cast<std::size_t>(cfg.grid_nx);
  const std::size_t ny = static_cast<std::size_t>(cfg.grid_ny);
  std::vector<std::size_t> corners = {0, nx * ny - 1, nx - 1, (ny - 1) * nx};
  corners.resize(std::min<std::size_t>(
      static_cast<std::size_t>(cfg.drain_sinks), corners.size()));
  const auto sel = core::parse_resource(cfg.drain_resource)
                       .value_or(core::ResourceSelector::all());
  Built* state = b.get();
  world.sched().at(cfg.horizon, [state, corners, sel,
                                 hops = cfg.drain_hops] {
    core::World& w = *state->world;
    std::set<std::uint64_t> eligible;
    for (std::size_t i = 0; i < w.node_count(); ++i) {
      core::Node& n = w.node(i);
      if (n.failed() || n.down()) continue;
      n.store().for_each([&](const storage::ChunkMeta& m) {
        if (sel.matches(m)) eligible.insert(m.key);
      });
    }
    state->drain_eligible = eligible.size();
    for (std::size_t idx : corners) {
      core::Node& n = w.node(idx);
      if (n.failed() || n.down()) continue;
      core::DrainOptions opts;
      opts.selector = sel;
      opts.hops = static_cast<std::uint8_t>(hops);
      n.retrieval().start_drain(opts);
      state->sinks.push_back(idx);
    }
  });
  world.start();
  b->drains = true;
  b->drain_at = cfg.horizon;
  b->end = cfg.horizon + cfg.grace;
  return b;
}

std::unique_ptr<Built> build(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::kIndoor: return build_indoor(seed);
    case Kind::kOutdoor: return build_outdoor(seed);
    case Kind::kChaosDrain: return build_chaos_drain(seed);
  }
  return nullptr;
}

// --- Digest ------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    pod(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void time(sim::Time t) { pod(t.raw_ticks()); }
};

std::uint64_t snapshot_digest(const core::Metrics::Snapshot& s) {
  Fnv f;
  f.time(s.t);
  f.pod(s.miss_ratio);
  f.pod(s.redundancy_ratio);
  f.time(s.hearable);
  f.time(s.covered_unique);
  f.time(s.stored_total);
  f.pod(s.total_messages);
  f.pod(s.control_messages);
  f.pod(s.transfer_messages);
  f.vec(s.per_node_ids);
  f.vec(s.per_node_used_bytes);
  f.vec(s.per_node_packets_sent);
  f.vec(s.per_node_recorded_bytes);
  f.vec(s.per_node_wear_max);
  f.vec(s.per_node_wear_min);
  f.vec(s.per_node_battery_j);
  f.pod(s.wear_min);
  f.pod(s.wear_max);
  f.pod(s.wear_spread);
  f.pod(s.battery_total_j);
  f.pod(s.battery_min_j);
  f.pod(s.faults.crashes);
  f.pod(s.faults.permanent_failures);
  f.pod(s.faults.reboots);
  f.pod(s.faults.brownouts);
  f.pod(s.faults.clock_steps);
  f.pod(s.faults.chunks_recovered);
  f.pod(s.faults.recovery_mismatches);
  f.time(s.faults.downtime_total);
  for (std::uint32_t v :
       {s.transfer_aborts, s.transfer_duplicate_risks, s.transfer_rx_expired,
        s.transfer_fragments_retried, s.transfer_window_stalls,
        s.transfer_max_in_flight, s.retrieval_queries_served,
        s.retrieval_chunks_uploaded, s.retrieval_chunks_relayed,
        s.retrieval_relay_fallbacks, s.retrieval_descriptor_acks})
    f.pod(v);
  return f.h;
}

std::uint64_t full_digest(std::uint64_t snap,
                          const enviromic::net::ChannelStats& c,
                          std::uint64_t executed) {
  Fnv f;
  f.pod(snap);
  for (std::uint64_t v :
       {c.transmissions, c.deliveries, c.losses_random, c.losses_collision,
        c.losses_radio_off, c.losses_burst, c.busy_ticks, executed})
    f.pod(v);
  return f.h;
}

// --- Running a world ---------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct WorldRecord {
  std::uint64_t seed = 0;
  bool profiled = false;
  // Host time.
  double setup_s = 0, run_s = 0, census_s = 0;
  double record_phase_s = 0, drain_phase_s = 0;
  double snapshot_s = 0, recover_s = 0, drain_decoded_s = 0;
  std::vector<double> step_s;
  double sim_s = 0;
  sim::Profiler::Report profile;
  // Behaviour. `digest` covers what the canned runners return (Metrics
  // snapshot, ChannelStats, executed events); `behaviour` adds every
  // outcome and counter below.
  std::uint64_t snap_digest = 0, digest = 0, behaviour = 0;
  bool stores_recoverable = true;
  std::map<std::string, double> outcome;  //!< simulated, repeats exactly
  std::map<std::string, double> counter;  //!< exact work counters
};

double coefficient_of_variation(const std::vector<std::uint64_t>& v) {
  if (v.empty()) return 0.0;
  double mean = 0.0;
  for (auto x : v) mean += static_cast<double>(x);
  mean /= static_cast<double>(v.size());
  if (mean == 0.0) return 0.0;
  double var = 0.0;
  for (auto x : v) {
    const double d = static_cast<double>(x) - mean;
    var += d * d;
  }
  return std::sqrt(var / static_cast<double>(v.size())) / mean;
}

// Busy-wait until the wait makes up `frac` of the step's time: the
// sensitivity self-test's injected slowdown, inside the timed step.
void inject_slowdown(Clock::time_point t0, double frac) {
  const double target = seconds_since(t0) / (1.0 - frac);
  while (seconds_since(t0) < target) {
  }
}

constexpr int kSetupSamples = 8;
constexpr int kCensusSamples = 5;

WorldRecord run_world(const Workload& wl, std::uint64_t seed, bool profile,
                      double slowdown) {
  WorldRecord r;
  r.seed = seed;
  r.profiled = profile;

  // Set-up is short next to the run, so each world is built several times
  // and the median build is its set-up time; the last build is the one run.
  std::vector<double> builds;
  std::unique_ptr<Built> b;
  Clock::time_point t0;
  for (int i = 0; i < kSetupSamples; ++i) {
    b.reset();
    t0 = Clock::now();
    b = build(wl.kind, seed);
    builds.push_back(seconds_since(t0));
  }
  r.setup_s = median(builds);
  core::World& world = *b->world;

  double storage_cv_sum = 0.0;
  int storage_cv_samples = 0;
  if (profile) world.sched().profiler().enable();
  for (sim::Time t = wl.step;; t += wl.step) {
    if (t > b->end) t = b->end;
    t0 = Clock::now();
    world.run_until(t);
    if (slowdown > 0) inject_slowdown(t0, slowdown);
    const double dt = seconds_since(t0);
    r.step_s.push_back(dt);
    r.run_s += dt;
    (b->drains && t > b->drain_at ? r.drain_phase_s : r.record_phase_s) += dt;
    // Storage balance (Fig 13), averaged over every step boundary of the
    // record phase: a single end-of-run reading moves with where one seed's
    // hotspots happen to fall, and the drain empties the stores it hauls.
    if (t <= (b->drains ? b->drain_at : b->end)) {
      std::vector<std::uint64_t> used;
      for (std::size_t i = 0; i < world.node_count(); ++i) {
        core::Node& n = world.node(i);
        used.push_back(n.data_lost() ? 0 : n.store().used_bytes());
      }
      storage_cv_sum += coefficient_of_variation(used);
      ++storage_cv_samples;
    }
    if (t == b->end) break;
  }
  if (profile) {
    r.profile = world.sched().profiler().report();
    world.sched().profiler().disable();
  }
  r.sim_s = b->end.to_seconds();

  // End-of-run census, in run_chaos's order: checkpoint + offline recover of
  // every up store, decode-on-drain, then the final snapshot. Like set-up it
  // is short next to the run, so it runs kCensusSamples times and the median
  // pass is its time. A pass reads the world and rewrites the same EEPROM
  // checkpoint, so each one sees the same state; the canned-runner digest
  // check, which runs the census once, proves the repeats change nothing.
  std::vector<double> recover_s, decoded_s, snapshot_s, census_s;
  core::World::DecodedDrain drained;
  core::Metrics::Snapshot snap;
  std::map<std::uint64_t, int> sink_copies;
  sim::Time last_arrival = sim::Time::zero();
  for (int pass = 0; pass < kCensusSamples; ++pass) {
    const auto census_t0 = Clock::now();
    t0 = census_t0;
    for (std::size_t i = 0; i < world.node_count(); ++i) {
      core::Node& n = world.node(i);
      if (n.failed() || n.down()) continue;
      std::vector<std::uint64_t> live, recovered;
      n.store().for_each(
          [&](const storage::ChunkMeta& m) { live.push_back(m.key); });
      n.store().checkpoint();
      auto rec = storage::ChunkStore::recover(n.flash(), n.eeprom(),
                                              n.params().store);
      rec.for_each(
          [&](const storage::ChunkMeta& m) { recovered.push_back(m.key); });
      if (live != recovered) r.stores_recoverable = false;
    }
    recover_s.push_back(seconds_since(t0));
    t0 = Clock::now();
    drained = world.drain_decoded();
    decoded_s.push_back(seconds_since(t0));

    t0 = Clock::now();
    std::vector<storage::ChunkMeta> hauled;
    sink_copies.clear();
    for (std::size_t idx : b->sinks) {
      core::Node& n = world.node(idx);
      for (const auto& c : n.retrieval().collected()) {
        ++sink_copies[c.meta.key];
        hauled.push_back(c.meta);
      }
      last_arrival = std::max(last_arrival, n.retrieval().last_collected_at());
    }
    snap = b->drains ? world.snapshot_with(hauled) : world.snapshot();
    snapshot_s.push_back(seconds_since(t0));
    census_s.push_back(seconds_since(census_t0));
  }
  r.recover_s = median(recover_s);
  r.drain_decoded_s = median(decoded_s);
  r.snapshot_s = median(snapshot_s);
  r.census_s = median(census_s);

  const auto& ch = world.channel().stats();
  const std::uint64_t executed = world.sched().executed();
  r.snap_digest = snapshot_digest(snap);
  r.digest = full_digest(r.snap_digest, ch, executed);

  // Simulated outcomes.
  const double nodes = static_cast<double>(world.node_count());
  const double hours = r.sim_s / 3600.0;
  double consumed_j = 0.0;
  const sim::Time now = world.sched().now();
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    auto& e = world.node(i).energy();
    consumed_j += e.battery().capacity_joules() - e.remaining_joules_at(now);
  }
  std::uint64_t double_uploads = 0;
  for (const auto& kv : sink_copies)
    if (kv.second > 1)
      double_uploads += static_cast<std::uint64_t>(kv.second - 1);
  double retrieval_miss = 0.0;
  if (b->drain_eligible != 0)
    retrieval_miss = std::max(
        0.0, 1.0 - static_cast<double>(sink_copies.size()) /
                       static_cast<double>(b->drain_eligible));
  const double drain_span =
      last_arrival > b->drain_at && b->drains
          ? (last_arrival - b->drain_at).to_seconds()
          : 0.0;
  r.outcome = {
      {"miss_ratio", snap.miss_ratio},
      {"redundancy", snap.redundancy_ratio},
      {"messages_per_node_hour",
       static_cast<double>(snap.total_messages) / nodes / hours},
      {"storage_cv", storage_cv_sum / storage_cv_samples},
      {"energy_j_per_node_hour", consumed_j / nodes / hours},
      {"core.retrieval.miss_ratio", retrieval_miss},
      {"core.retrieval.drain_span_s", drain_span},
  };

  std::set<std::uint64_t> live_keys;
  for (std::size_t i = 0; i < world.node_count(); ++i) {
    core::Node& n = world.node(i);
    if (n.data_lost()) continue;
    n.store().for_each(
        [&](const storage::ChunkMeta& m) { live_keys.insert(m.key); });
  }
  const double attempts = static_cast<double>(
      ch.deliveries + ch.losses_random + ch.losses_collision +
      ch.losses_radio_off + ch.losses_burst);
  r.counter = {
      {"sim.events_executed", static_cast<double>(executed)},
      {"net.transmissions", static_cast<double>(ch.transmissions)},
      {"net.deliveries", static_cast<double>(ch.deliveries)},
      {"net.losses_collision", static_cast<double>(ch.losses_collision)},
      {"net.losses_burst", static_cast<double>(ch.losses_burst)},
      {"net.delivery_attempts", attempts},
      {"acoustic.record_acts",
       static_cast<double>(world.metrics().recording_log().size())},
      {"core.control_messages", static_cast<double>(snap.control_messages)},
      {"core.transfer_messages", static_cast<double>(snap.transfer_messages)},
      {"core.transfer_frags_retried",
       static_cast<double>(snap.transfer_fragments_retried)},
      {"core.transfer_window_stalls",
       static_cast<double>(snap.transfer_window_stalls)},
      {"core.transfer_aborts", static_cast<double>(snap.transfer_aborts)},
      {"core.retrieval.chunks_uploaded",
       static_cast<double>(snap.retrieval_chunks_uploaded)},
      {"core.retrieval.chunks_relayed",
       static_cast<double>(snap.retrieval_chunks_relayed)},
      {"core.retrieval.relay_fallbacks",
       static_cast<double>(snap.retrieval_relay_fallbacks)},
      {"core.retrieval.descriptor_acks",
       static_cast<double>(snap.retrieval_descriptor_acks)},
      {"core.retrieval.double_uploads", static_cast<double>(double_uploads)},
      {"storage.chunks_live", static_cast<double>(live_keys.size())},
      {"storage.wear_spread", static_cast<double>(snap.wear_spread)},
      {"storage.chunks_decoded",
       static_cast<double>(drained.index.chunk_count())},
      {"nodes", nodes},
  };
  Fnv f;
  f.pod(r.digest);
  for (const auto* m : {&r.outcome, &r.counter})
    for (const auto& [name, v] : *m) {
      f.bytes(name.data(), name.size());
      f.pod(v);
    }
  r.behaviour = f.h;
  return r;
}

// Digest of the library's canned runner for the same workload and seed. For
// indoor and outdoor the runners return only the final Metrics snapshot; for
// chaos_drain also the channel counters, the executed events and the
// end-state invariants.
struct Canned {
  std::uint64_t snap_digest = 0;
  std::uint64_t digest = 0;  //!< 0 when the runner does not expose it
  bool invariants = true;
};

Canned run_canned(Kind kind, std::uint64_t seed) {
  Canned c;
  switch (kind) {
    case Kind::kIndoor: {
      const auto r = core::run_indoor(indoor_config(seed));
      c.snap_digest = snapshot_digest(r.series.back());
      break;
    }
    case Kind::kOutdoor: {
      const auto r = core::run_outdoor(outdoor_config(seed));
      c.snap_digest = snapshot_digest(r.final_snapshot);
      break;
    }
    case Kind::kChaosDrain: {
      const auto r = core::run_chaos(chaos_drain_config(seed));
      c.snap_digest = snapshot_digest(r.final_snapshot);
      c.digest = full_digest(c.snap_digest, r.channel_stats, r.executed_events);
      c.invariants = r.invariants_hold();
      break;
    }
  }
  return c;
}

// --- Aggregation -------------------------------------------------------------

// Host time of one seed is taken as the upper quartile of its repeats. On a
// shared host the simulator runs at one steady speed most of the time and in
// bursts up to ~40% faster when neighbours go quiet; the upper quartile
// reads the steady speed and ignores the bursts, where a mean or a minimum
// would follow how many bursts a run happened to catch.
double upper_quartile(std::vector<double> v) {
  return quantile(std::move(v), 0.75);
}

/// A run's records, one list per world seed of the panel.
using Panel = std::vector<std::vector<const WorldRecord*>>;

Panel group(const std::vector<WorldRecord>& recs, std::size_t k,
            bool profiled) {
  Panel p(k);
  for (std::size_t i = 0; i < recs.size(); ++i)
    if (recs[i].profiled == profiled) p[i % k].push_back(&recs[i]);
  return p;
}

/// Simulated seconds per host second over the run phase, each seed weighted
/// once: Σ sim_s / Σ (upper quartile of that seed's host run times).
double sim_rate(const Panel& p) {
  double sim_s = 0.0, host_s = 0.0;
  for (const auto& reps : p) {
    std::vector<double> run;
    for (const auto* r : reps) run.push_back(r->run_s);
    sim_s += reps.front()->sim_s;
    host_s += upper_quartile(run);
  }
  return sim_s / host_s;
}

/// Mean over the panel's seeds of a per-seed value: `get` of the seed's
/// first record for exact values, the upper quartile over repeats for host
/// times.
template <class F>
double mean_over_seeds(const Panel& p, F get, bool host_time = false) {
  double sum = 0.0;
  for (const auto& reps : p) {
    std::vector<double> v;
    for (const auto* r : reps) v.push_back(get(*r));
    sum += host_time ? upper_quartile(v) : v.front();
  }
  return sum / static_cast<double>(p.size());
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_worlds --workload indoor|outdoor|chaos_drain "
               "--seed N --seconds S --trace 0|1 [--inject-slowdown FRAC]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* wl = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  double slowdown = 0.0;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    if (flag == "--workload") {
      for (const auto& w : kWorkloads)
        if (std::strcmp(w.name, val) == 0) wl = &w;
      if (!wl) return usage();
    } else if (flag == "--seed") {
      if (!enviromic::util::parse_u64(val, &seed)) return usage();
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!enviromic::util::parse_double(val, &seconds) || seconds <= 0)
        return usage();
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::string t = val;
      if (t != "0" && t != "1") return usage();
      trace = t == "1";
    } else if (flag == "--inject-slowdown") {
      if (!enviromic::util::parse_double(val, &slowdown) || slowdown < 0 ||
          slowdown >= 1)
        return usage();
    } else {
      return usage();
    }
  }
  if (!wl || !have_seed || !have_seconds || argc % 2 == 0) return usage();

  const std::size_t k = static_cast<std::size_t>(wl->seeds_per_run);
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < k; ++i)
    seeds.push_back(core::derive_run_seed(seed, i));

  // Passes over the panel, world by world, until --seconds have passed and
  // every seed has run at least twice. With --trace 1 untraced and profiled
  // passes alternate, so the overhead compares like with like.
  std::vector<WorldRecord> recs;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool profile = trace && (i / k) % 2 == 1;
    recs.push_back(run_world(*wl, seeds[i % k], profile, slowdown));
    if (i + 1 >= 2 * k && seconds_since(start) >= seconds) break;
  }

  // Peak memory of the benchmarked worlds, read before the canned runner
  // below builds a world of its own.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  // Correctness: every repeat of a seed, traced or not, reproduces the first
  // one's behaviour digest (and profiled repeats the same callback counts);
  // every up store recovers exactly; world 0 matches the canned runner.
  std::size_t failed = 0;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const WorldRecord& r = recs[i];
    const WorldRecord& first = recs[i % k];
    const WorldRecord* first_traced =
        trace && i >= k ? &recs[k + i % k] : nullptr;
    bool same_fires = true;
    if (r.profiled && first_traced)
      for (std::size_t t = 0; t < r.profile.lines.size(); ++t)
        same_fires &=
            r.profile.lines[t].fires == first_traced->profile.lines[t].fires;
    if (r.behaviour == first.behaviour && same_fires && r.stores_recoverable)
      continue;
    ++failed;
    std::fprintf(stderr,
                 "world seed %llu repeat %zu: behaviour %016llx vs first "
                 "%016llx, "
                 "profiler fires %s, stores %s\n",
                 static_cast<unsigned long long>(r.seed), i / k,
                 static_cast<unsigned long long>(r.behaviour),
                 static_cast<unsigned long long>(first.behaviour),
                 same_fires ? "same" : "differ",
                 r.stores_recoverable ? "recoverable" : "NOT recoverable");
  }
  const Canned canned = run_canned(wl->kind, seeds.front());
  const WorldRecord& w0 = recs.front();
  const bool canned_ok = canned.snap_digest == w0.snap_digest &&
                         (canned.digest == 0 || canned.digest == w0.digest) &&
                         canned.invariants;
  if (!canned_ok) {
    ++failed;
    std::fprintf(stderr,
                 "world seed %llu: canned runner digest %016llx/%016llx "
                 "(invariants %s) vs benchmark %016llx/%016llx\n",
                 static_cast<unsigned long long>(w0.seed),
                 static_cast<unsigned long long>(canned.snap_digest),
                 static_cast<unsigned long long>(canned.digest),
                 canned.invariants ? "hold" : "VIOLATED",
                 static_cast<unsigned long long>(w0.snap_digest),
                 static_cast<unsigned long long>(w0.digest));
  }
  const std::size_t attempted = recs.size() + 1;
  const bool correct = failed == 0;

  const Panel plain = group(recs, k, false);
  const std::size_t repeats = plain.back().size();
  std::printf("workload %s seed %llu: %zu world seeds x %zu+ repeats, world 0 "
              "miss %.4f, %.0f messages, %.0f events\n",
              wl->name, static_cast<unsigned long long>(seed), k, repeats,
              w0.outcome.at("miss_ratio"),
              w0.outcome.at("messages_per_node_hour") * w0.counter.at("nodes") *
                  w0.sim_s / 3600.0,
              w0.counter.at("sim.events_executed"));

  std::vector<Metric> out;
  if (!trace) {
    // Per (seed, step index): upper quartile over repeats; then pooled.
    std::vector<double> steps_ms;
    for (const auto& reps : plain) {
      for (std::size_t j = 0; j < reps.front()->step_s.size(); ++j) {
        std::vector<double> v;
        for (const auto* r : reps) v.push_back(r->step_s[j] * 1e3);
        steps_ms.push_back(upper_quartile(v));
      }
    }
    std::printf("step samples: %zu (p90 has %zu beyond it)\n", steps_ms.size(),
                steps_ms.size() / 10);
    out = {
        {"sim_s_per_host_s", sim_rate(plain), "1/s"},
        {"step_ms_p50", quantile(steps_ms, 0.5), "ms"},
        {"step_ms_p90", quantile(steps_ms, 0.9), "ms"},
        {"setup_s",
         mean_over_seeds(
             plain, [](const WorldRecord& r) { return r.setup_s; }, true),
         "s"},
        {"census_s",
         mean_over_seeds(
             plain, [](const WorldRecord& r) { return r.census_s; }, true),
         "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
    const std::pair<const char*, const char*> outcomes[] = {
        {"miss_ratio", "ratio"},
        {"redundancy", "ratio"},
        {"messages_per_node_hour", "1/h"},
        {"storage_cv", "ratio"},
        {"energy_j_per_node_hour", "J/h"}};
    for (const auto& [name, unit] : outcomes) {
      auto get = [name = name](const WorldRecord& r) {
        return r.outcome.at(name);
      };
      out.push_back({name, mean_over_seeds(plain, get), unit});
    }
  } else {
    const Panel traced = group(recs, k, true);
    auto mean = [&](auto get) { return mean_over_seeds(traced, get); };
    auto host = [&](auto get) { return mean_over_seeds(traced, get, true); };
    auto line = [](const WorldRecord& r, sim::ProfTag tag) {
      return r.profile.lines[static_cast<std::size_t>(tag)];
    };
    auto self_ms = [&](sim::ProfTag tag) {
      return host([&](const WorldRecord& r) { return line(r, tag).self_ms; });
    };
    auto fires = [&](sim::ProfTag tag) {
      return mean([&](const WorldRecord& r) {
        return static_cast<double>(line(r, tag).fires);
      });
    };
    auto value = [&](const char* name) {
      return mean([&](const WorldRecord& r) {
        return r.counter.count(name) ? r.counter.at(name) : r.outcome.at(name);
      });
    };
    auto host_ms = [&](double WorldRecord::*field) {
      return host([&](const WorldRecord& r) { return r.*field * 1e3; });
    };
    using sim::ProfTag;
    // Every detector shares one poll interval, so each pump fire polls every
    // registered detector (one per node).
    const double polls = fires(ProfTag::kDetectorPump) * value("nodes");
    const double events = value("sim.events_executed");
    const double attempts = value("net.delivery_attempts");
    const double acts = value("acoustic.record_acts");
    out = {
        {"sim.event_queue.self_ms", self_ms(ProfTag::kEventQueue), "ms"},
        {"sim.event_queue.ns_per_op",
         self_ms(ProfTag::kEventQueue) * 1e6 / events, "ns"},
        {"sim.coalesced_timer.self_ms", self_ms(ProfTag::kCoalescedTimer),
         "ms"},
        {"acoustic.detector_pump.self_ms", self_ms(ProfTag::kDetectorPump),
         "ms"},
        {"acoustic.detector_polls", polls, "count"},
        {"acoustic.polls_per_record_act", acts > 0 ? polls / acts : 0.0,
         "ratio"},
        {"net.channel_delivery.self_ms", self_ms(ProfTag::kChannelDelivery),
         "ms"},
        {"net.channel_csma.self_ms", self_ms(ProfTag::kChannelCsma), "ms"},
        {"net.delivery_yield",
         attempts > 0 ? value("net.deliveries") / attempts : 0.0, "ratio"},
        {"core.protocol_dispatch.self_ms", self_ms(ProfTag::kProtocolDispatch),
         "ms"},
        {"core.protocol_dispatch.fires", fires(ProfTag::kProtocolDispatch),
         "count"},
        {"core.retrieval.record_phase_s",
         host([](const WorldRecord& r) { return r.record_phase_s; }), "s"},
        {"core.retrieval.drain_phase_s",
         host([](const WorldRecord& r) { return r.drain_phase_s; }), "s"},
        {"core.retrieval.miss_ratio", value("core.retrieval.miss_ratio"),
         "ratio"},
        {"core.retrieval.drain_span_s", value("core.retrieval.drain_span_s"),
         "s"},
        {"storage.recover_ms", host_ms(&WorldRecord::recover_s), "ms"},
        {"storage.drain_decoded_ms", host_ms(&WorldRecord::drain_decoded_s),
         "ms"},
        {"core.snapshot_ms", host_ms(&WorldRecord::snapshot_s), "ms"},
        {"core.world_build_ms", host_ms(&WorldRecord::setup_s), "ms"},
        {"other.self_ms",
         host([](const WorldRecord& r) {
           return r.profile.lines.back().self_ms;
         }),
         "ms"},
        {"tracing_overhead_pct",
         (sim_rate(plain) / sim_rate(traced) - 1.0) * 100.0, "%"},
    };
    for (const char* name :
         {"sim.events_executed", "acoustic.record_acts", "net.transmissions",
          "net.deliveries", "net.losses_collision", "net.losses_burst",
          "core.control_messages", "core.transfer_messages",
          "core.transfer_frags_retried", "core.transfer_window_stalls",
          "core.transfer_aborts", "core.retrieval.chunks_uploaded",
          "core.retrieval.chunks_relayed", "core.retrieval.relay_fallbacks",
          "core.retrieval.descriptor_acks", "core.retrieval.double_uploads",
          "storage.chunks_live", "storage.wear_spread"})
      out.push_back({name, value(name), "count"});
  }
  print_result(correct, attempted, failed, out);
  return 0;
}
