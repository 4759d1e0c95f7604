// Golden run digests: one FNV-1a digest over every field of each canned
// runner's result, on a short seeded matrix. A change that claims to move no
// behaviour (a refactor, a deleted duplicate path, an instrumentation change)
// must leave every constant below untouched. The constants hold for every
// build type — Release, Debug and the sanitizer build alike; a build type
// that disagrees has found a determinism bug, not a reason for a second set.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.h"

namespace enviromic::core {
namespace {

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
  void pos(const sim::Position& p) {
    pod(p.x);
    pod(p.y);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
};

void digest(Fnv& f, const Metrics::Snapshot& s) {
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
}

void digest_positions(Fnv& f, const std::vector<sim::Position>& ps) {
  f.pod(ps.size());
  for (const auto& p : ps) f.pos(p);
}

std::uint64_t digest(const IndoorRunResult& r) {
  Fnv f;
  f.pod(r.series.size());
  for (const auto& s : r.series) digest(f, s);
  f.pod(r.plan.events.size());
  for (const auto& e : r.plan.events) {
    f.pod(e.source);
    f.time(e.start);
    f.time(e.end);
    f.pos(e.at);
  }
  f.time(r.plan.total_event_time);
  digest_positions(f, r.positions);
  f.pod(r.grid_nx);
  f.pod(r.grid_ny);
  return f.h;
}

std::uint64_t digest(const OutdoorRunResult& r) {
  Fnv f;
  f.pod(r.plan.vehicles);
  f.pod(r.plan.walkers);
  f.pod(r.plan.birds);
  f.pod(r.plan.spike_events);
  digest_positions(f, r.positions);
  f.vec(r.recorded_seconds_per_minute);
  f.vec(r.recorded_seconds_by_node);
  f.pod(r.hottest);
  f.vec(r.hotspot_bytes_at_node);
  digest(f, r.final_snapshot);
  return f.h;
}

std::uint64_t digest(const MobileRunResult& r) {
  Fnv f;
  f.pod(r.miss_ratio);
  f.time(r.event_start);
  f.time(r.event_end);
  f.pod(r.recordings.size());
  for (const auto& span : r.recordings) {
    f.pod(span.node);
    f.time(span.start);
    f.time(span.end);
  }
  return f.h;
}

std::uint64_t digest(const VoiceRunResult& r) {
  Fnv f;
  f.vec(r.reference);
  f.vec(r.stitched);
  f.time(r.event_start);
  f.time(r.event_end);
  f.pod(r.envelope_correlation);
  f.pod(r.stitched_coverage);
  return f.h;
}

// Every field but `profile`, which holds wall-clock attribution and is empty
// unless the config asked for it.
std::uint64_t digest(const ChaosRunResult& r) {
  Fnv f;
  digest(f, r.final_snapshot);
  const auto& c = r.channel_stats;
  for (std::uint64_t v :
       {c.transmissions, c.deliveries, c.losses_random, c.losses_collision,
        c.losses_radio_off, c.losses_burst, c.busy_ticks})
    f.pod(v);
  f.pod(r.nodes);
  f.pod(r.nodes_down_at_end);
  f.pod(r.nodes_lost);
  f.pod(r.stores_recoverable);
  f.pod(r.retrieval_exact_once);
  f.pod(r.counters_consistent);
  f.pod(r.stuck_rx_sessions);
  f.pod(r.stuck_tx_sessions);
  f.pod(r.live_chunks);
  f.pod(r.payloads_intact);
  f.pod(r.duplicate_copies);
  f.pod(r.duplicate_risks_counted);
  f.pod(r.duplicates_within_risk);
  f.pod(r.live_events_at_end);
  f.pod(r.live_events_bound);
  f.pod(r.executed_events);
  f.pod(r.profiled);
  f.pod(r.health_trips.size());
  for (const auto& t : r.health_trips) {
    f.str(t.probe);
    f.str(t.gauge);
    f.pod(t.value);
    f.pod(t.threshold);
    f.time(t.at);
  }
  f.pod(r.payloads_total);
  f.pod(r.payloads_reconstructible);
  f.pod(r.payloads_lost_to_death);
  f.pod(r.census_stored_bytes);
  f.pod(r.census_original_bytes);
  const auto& d = r.decode;
  for (std::uint64_t v : {d.groups_seen, d.groups_reconstructed,
                          d.groups_redundant, d.groups_partial,
                          d.fragments_consumed, d.decode_failures})
    f.pod(v);
  f.pod(d.byte_exact);
  f.pod(r.drained_bytes);
  const auto& cs = r.coded;
  for (std::uint32_t v :
       {cs.chunks_coded, cs.fragments_placed, cs.fragments_failed,
        cs.placement_wraps, cs.originals_released, cs.originals_kept})
    f.pod(v);
  f.pod(cs.original_bytes);
  f.pod(cs.fragment_bytes);
  f.pod(r.retrieval_sinks);
  f.pod(r.retrieval_eligible);
  f.pod(r.retrieval_collected);
  f.pod(r.retrieval_double_uploads);
  f.pod(r.retrieval_miss_ratio);
  f.time(r.retrieval_drain_span);
  f.pod(r.invariants_hold());
  return f.h;
}

ChaosRunConfig chaos_with_faults() {
  ChaosRunConfig cfg;
  cfg.seed = 7;
  cfg.horizon = sim::Time::seconds_i(600);
  cfg.faults.crash_probability = 0.3;
  cfg.faults.downtime_mean = sim::Time::seconds_i(60);
  cfg.faults.brownout_probability = 0.2;
  cfg.faults.clock_step_probability = 0.2;
  cfg.burst.enabled = true;
  cfg.link_asymmetry_max = 0.1;
  return cfg;
}

TEST(GoldenDigest, Indoor600s) {
  IndoorRunConfig cfg;
  cfg.horizon = sim::Time::seconds_i(600);
  EXPECT_EQ(digest(run_indoor(cfg)), 0x088e9aa8810bdcf3ull);
}

TEST(GoldenDigest, Outdoor600s) {
  OutdoorRunConfig cfg;
  cfg.horizon = sim::Time::seconds_i(600);
  EXPECT_EQ(digest(run_outdoor(cfg)), 0x779b139257497e2full);
}

TEST(GoldenDigest, MobileDefaults) {
  EXPECT_EQ(digest(run_mobile(MobileRunConfig{})), 0xe39835676c925677ull);
}

TEST(GoldenDigest, VoiceDefaults) {
  EXPECT_EQ(digest(run_voice(VoiceRunConfig{})), 0xd0dfbb470454e766ull);
}

TEST(GoldenDigest, ChaosWithFaults) {
  EXPECT_EQ(digest(run_chaos(chaos_with_faults())), 0x9619ceecd14a7a30ull);
}

TEST(GoldenDigest, CodedChaosTwoOfFour) {
  ChaosRunConfig cfg = chaos_with_faults();
  cfg.seed = 424;
  cfg.faults.crash_probability = 0.5;
  cfg.faults.downtime_mean = sim::Time::seconds_i(45);
  cfg.faults.permanent_fraction = 1.0;
  cfg.faults.lose_data_fraction = 1.0;
  cfg.storage_policy = StoragePolicy::kCoded;
  cfg.coded_k = 2;
  cfg.coded_n = 4;
  EXPECT_EQ(digest(run_chaos(cfg)), 0x7bff949e9b859f03ull);
}

TEST(GoldenDigest, TwoSinkChaosDrain) {
  ChaosRunConfig cfg = chaos_with_faults();
  cfg.seed = 11;
  cfg.horizon = sim::Time::seconds_i(300);
  cfg.drain_sinks = 2;
  cfg.drain_hops = 10;
  EXPECT_EQ(digest(run_chaos(cfg)), 0x4df03f179d3db916ull);
}

}  // namespace
}  // namespace enviromic::core
