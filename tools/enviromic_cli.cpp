// enviromic_cli — run any of the paper's scenarios from the command line.
//
//   enviromic_cli --scenario indoor --mode full --beta 2 --horizon 1200
//   enviromic_cli --scenario mobile --trc 0.5 --dta 30 --runs 15
//   enviromic_cli --scenario outdoor --seed 9 --csv
//   enviromic_cli --scenario voice
//   enviromic_cli --scenario chaos --faults crash=0.3,downtime=60
//
// Prints the scenario's headline metrics; --csv emits the time series for
// plotting, --contours renders the spatial storage distribution.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "enviromic.h"
#include "flags.h"

using namespace enviromic;

namespace {

/// Front-end options; scenario parameters resolve through the table.
struct Options {
  std::string scenario;  //!< empty: chaos when --faults is given, else indoor
  std::uint64_t seed = 7;
  int runs = 0;  //!< mobile repetitions; 0 = not given (one run)
  const char* faults = nullptr;
  /// Scenario flags in argv order: (flag, value; nullptr for a bare flag).
  std::vector<std::pair<std::string, const char*>> params;
  bool csv = false;
  bool contours = false;
  std::string trace_path;
  std::string series_path;
  double series_interval_s = 0.0;
  std::vector<core::HealthProbe> probes;
  std::string json_path;
};

void usage() {
  std::printf(
      "usage: enviromic_cli [options] [scenario parameters]\n"
      "  --scenario indoor|mobile|outdoor|voice|chaos  (default indoor;\n"
      "      chaos when --faults is given)\n"
      "  --seed <n>                               (default 7)\n"
      "  --runs <n>                               repetitions (mobile only)\n"
      "  --faults k=v[,k=v...]                    [fault] parameters; implies\n"
      "      chaos (e.g. --faults crash=0.3,downtime=60,burst=1)\n"
      "  --csv                                    CSV time series output\n"
      "  --json <path|->                          append one JSON record per\n"
      "      run ({\"scenario\",\"seed\",\"metrics\"}; - = stdout)\n"
      "  --contours                               storage contour at end\n"
      "  --log-level off|error|warn|info|debug|trace\n"
      "  --trace <path>                           record a protocol trace:\n"
      "      raw records for .jsonl, else Chrome-trace JSON (Perfetto /\n"
      "      chrome://tracing) whose counter tracks are the --series\n"
      "  --series <path>                          telemetry time series\n"
      "      (chaos only): JSONL for .jsonl, else CSV (one column per gauge,\n"
      "      per-node gauges as name[node])\n"
      "  --series-interval <seconds>              telemetry sampling cadence\n"
      "      (chaos only; default 1 when --series is given)\n"
      "  --probe <name>=<value>                   health probe (chaos only,\n"
      "      repeatable); a trip dumps the flight-recorder tail, exits 1.\n"
      "      names: wear_spread_max miss_ratio_max battery_floor\n"
      "             window_stalls_max channel_busy_max\n"
      "\n%s",
      core::describe_params().c_str());
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return tools::flag_value(argc, argv, i); };
    if (a == "--scenario") {
      opt.scenario = next();
    } else if (a == "--seed") {
      opt.seed = tools::flag_u64("--seed", next());
    } else if (a == "--runs") {
      opt.runs = static_cast<int>(tools::flag_number(
          "--runs", next(), core::ParamKind::kInt, 1, 1e6));
    } else if (a == "--faults") {
      opt.faults = next();
    } else if (a == "--log-level") {
      sim::set_log_level(static_cast<sim::LogLevel>(
          tools::flag_number("--log-level", next(), core::ParamKind::kEnum, 0,
                             5, "off|error|warn|info|debug|trace")));
    } else if (a == "--trace") {
      opt.trace_path = next();
    } else if (a == "--json") {
      opt.json_path = next();
    } else if (a == "--series") {
      opt.series_path = next();
    } else if (a == "--series-interval") {
      opt.series_interval_s = tools::flag_number(
          "--series-interval", next(), core::ParamKind::kReal, 1e-3, 1e8);
    } else if (a == "--probe") {
      core::HealthProbe p;
      std::string err;
      if (!core::parse_health_probe(next(), &p, &err)) {
        tools::fail("bad --probe: " + err);
      }
      opt.probes.push_back(std::move(p));
    } else if (a == "--csv") {
      opt.csv = true;
    } else if (a == "--contours") {
      opt.contours = true;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else if (a.rfind("--", 0) == 0) {
      opt.params.emplace_back(a, tools::optional_value(argc, argv, i));
    } else {
      tools::fail("unknown option " + a);
    }
  }
  return opt;
}

/// Resolve the scenario and every scenario flag through the table; exit 2
/// on a flag the scenario has no entry for, or a bad value.
core::ParamList resolve(const Options& opt, const core::Scenario& sc) {
  core::ParamList settings;
  std::string err;
  if (opt.faults != nullptr &&
      !core::parse_faults(sc, opt.faults, &settings, &err)) {
    tools::fail("bad --faults: " + err);
  }
  for (const auto& [flag, value] : opt.params) {
    if (!core::parse_setting(sc, flag, value, &settings.emplace_back(), &err)) {
      tools::fail("bad " + flag + ": " + err);
    }
  }
  const std::string name = sc.name;
  if (name != "chaos" && (!opt.series_path.empty() ||
                          opt.series_interval_s > 0.0 || !opt.probes.empty())) {
    tools::fail("--series, --series-interval and --probe apply to the chaos "
                "scenario only");
  }
  if (opt.runs != 0 && name != "mobile") {
    tools::fail("--runs applies to the mobile scenario only");
  }
  if (!core::validate(sc, settings, &err)) tools::fail("bad: " + err);
  return settings;
}

/// Append one run's machine-readable record to --json PATH ("-" = stdout).
void emit_json_record(const Options& opt, const std::string& scenario,
                      std::uint64_t seed, const core::RunRecord& rec) {
  if (opt.json_path.empty()) return;
  const std::string line = core::run_record_json(scenario, seed, rec) + "\n";
  if (opt.json_path == "-") {
    std::fwrite(line.data(), 1, line.size(), stdout);
    return;
  }
  std::FILE* f = std::fopen(opt.json_path.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open --json %s\n", opt.json_path.c_str());
    return;
  }
  std::fwrite(line.data(), 1, line.size(), f);
  std::fclose(f);
}

int run_indoor_cli(const Options& opt, const core::ParamList& settings) {
  const auto cfg = core::make_configs(opt.seed, settings).indoor;
  const auto res = core::run_indoor(cfg);
  emit_json_record(opt, "indoor", cfg.seed, core::indoor_run_record(res));
  if (opt.csv) {
    util::Table t({"t_s", "miss", "redundancy", "messages"});
    for (const auto& s : res.series) {
      t.add_row({util::fmt(s.t.to_seconds(), 0), util::fmt(s.miss_ratio),
                 util::fmt(s.redundancy_ratio),
                 util::fmt(static_cast<long long>(s.total_messages))});
    }
    t.print_csv(std::cout);
  }
  const auto& last = res.series.back();
  const bool gossip =
      cfg.balance_strategy == core::BalanceStrategy::kGlobalGossip;
  std::printf("indoor[%s beta=%.0f%s] t=%.0fs miss=%.3f redundancy=%.3f "
              "messages=%llu\n",
              core::mode_name(cfg.mode), cfg.beta_max,
              gossip ? " gossip" : "", last.t.to_seconds(),
              last.miss_ratio, last.redundancy_ratio,
              static_cast<unsigned long long>(last.total_messages));
  if (opt.contours) {
    util::Grid grid(static_cast<std::size_t>(res.grid_nx),
                    static_cast<std::size_t>(res.grid_ny));
    for (std::size_t i = 0; i < last.per_node_used_bytes.size(); ++i) {
      grid.at(i % res.grid_nx, i / res.grid_nx) =
          static_cast<double>(last.per_node_used_bytes[i]);
    }
    util::render_contour(std::cout, grid, "storage occupancy (bytes)");
  }
  return 0;
}

int run_mobile_cli(const Options& opt, const core::ParamList& settings) {
  const int runs = opt.runs > 0 ? opt.runs : 1;
  std::vector<double> misses;
  core::MobileRunConfig cfg;
  for (int r = 0; r < runs; ++r) {
    // Run 0 stays on the base seed; later runs are splitmix64-derived so
    // adjacent base seeds never share worlds (seed 7 run 1 used to be the
    // same world as seed 8 run 0 under the old `seed + r` rule).
    cfg = core::make_configs(
              core::derive_run_seed(opt.seed, static_cast<std::uint64_t>(r)),
              settings)
              .mobile;
    const auto res = core::run_mobile(cfg);
    emit_json_record(opt, "mobile", cfg.seed, core::mobile_run_record(res));
    misses.push_back(res.miss_ratio);
  }
  std::printf("mobile[Trc=%.1fs Dta=%.0fms] runs=%d miss=%.3f ci90=%.3f\n",
              cfg.task_period.to_seconds(), cfg.task_assign_delay.to_millis(),
              runs, util::mean(misses), util::ci90_halfwidth(misses));
  return 0;
}

int run_outdoor_cli(const Options& opt, const core::ParamList& settings) {
  const auto cfg = core::make_configs(opt.seed, settings).outdoor;
  const auto res = core::run_outdoor(cfg);
  emit_json_record(opt, "outdoor", cfg.seed, core::outdoor_run_record(res));
  if (opt.csv) {
    util::Table t({"minute", "recorded_s"});
    for (std::size_t m = 0; m < res.recorded_seconds_per_minute.size(); ++m) {
      t.add_row({util::fmt(static_cast<long long>(m)),
                 util::fmt(res.recorded_seconds_per_minute[m], 1)});
    }
    t.print_csv(std::cout);
  }
  std::printf("outdoor nodes=%zu miss=%.3f hottest=node%u\n",
              res.positions.size(), res.final_snapshot.miss_ratio,
              res.hottest);
  return 0;
}

int run_voice_cli(const Options& opt, const core::ParamList& settings) {
  const auto cfg = core::make_configs(opt.seed, settings).voice;
  const auto res = core::run_voice(cfg);
  emit_json_record(opt, "voice", cfg.seed, core::voice_run_record(res));
  std::printf("voice coverage=%.1f%% envelope_correlation=%.3f\n",
              res.stitched_coverage * 100.0, res.envelope_correlation);
  return 0;
}

int run_chaos_cli(const Options& opt, const core::ParamList& settings) {
  auto cfg = core::make_configs(opt.seed, settings).chaos;
  if (opt.series_interval_s > 0.0) {
    cfg.series_interval = sim::Time::seconds(opt.series_interval_s);
  } else if (!opt.series_path.empty()) {
    cfg.series_interval = sim::Time::seconds_i(1);
  }
  cfg.health_probes = opt.probes;
  const auto res = core::run_chaos(cfg);
  emit_json_record(opt, "chaos", cfg.seed, core::chaos_run_record(res));
  const auto& f = res.final_snapshot.faults;
  std::printf("chaos[seed=%llu] nodes=%zu chunks=%llu miss=%.3f\n",
              static_cast<unsigned long long>(cfg.seed), res.nodes,
              static_cast<unsigned long long>(res.live_chunks),
              res.final_snapshot.miss_ratio);
  std::printf(
      "  faults: crashes=%u reboots=%u permanent=%u brownouts=%u "
      "clock_steps=%u downtime=%.0fs\n",
      f.crashes, f.reboots, f.permanent_failures, f.brownouts, f.clock_steps,
      f.downtime_total.to_seconds());
  std::printf(
      "  recovery: chunks_recovered=%llu mismatches=%llu down_at_end=%u "
      "lost=%u\n",
      static_cast<unsigned long long>(f.chunks_recovered),
      static_cast<unsigned long long>(f.recovery_mismatches),
      res.nodes_down_at_end, res.nodes_lost);
  std::printf(
      "  transfers: aborts=%u duplicate_risks=%u rx_expired=%u "
      "stuck_tx=%u stuck_rx=%u\n",
      res.final_snapshot.transfer_aborts,
      res.final_snapshot.transfer_duplicate_risks,
      res.final_snapshot.transfer_rx_expired, res.stuck_tx_sessions,
      res.stuck_rx_sessions);
  std::printf(
      "  transfer window: frags_retried=%u window_stalls=%u max_in_flight=%u\n",
      res.final_snapshot.transfer_fragments_retried,
      res.final_snapshot.transfer_window_stalls,
      res.final_snapshot.transfer_max_in_flight);
  std::printf(
      "  wear[min=%llu max=%llu spread=%llu] energy[total=%.1fJ min=%.1fJ]\n",
      static_cast<unsigned long long>(res.final_snapshot.wear_min),
      static_cast<unsigned long long>(res.final_snapshot.wear_max),
      static_cast<unsigned long long>(res.final_snapshot.wear_spread),
      res.final_snapshot.battery_total_j, res.final_snapshot.battery_min_j);
  const double overhead =
      res.census_original_bytes > 0
          ? static_cast<double>(res.census_stored_bytes) /
                static_cast<double>(res.census_original_bytes)
          : 1.0;
  std::printf(
      "  payloads[%s]: total=%llu reconstructible=%llu lost_to_death=%llu "
      "overhead=%.2fx\n",
      core::policy_name(cfg.storage_policy),
      static_cast<unsigned long long>(res.payloads_total),
      static_cast<unsigned long long>(res.payloads_reconstructible),
      static_cast<unsigned long long>(res.payloads_lost_to_death), overhead);
  if (res.retrieval_sinks > 0) {
    std::printf(
        "  retrieval[%s sinks=%u hops=%d]: eligible=%llu collected=%llu "
        "miss=%.3f span=%.1fs double_uploads=%llu relayed=%u "
        "descriptor_acks=%u relay_fallbacks=%u\n",
        cfg.drain_resource.c_str(), res.retrieval_sinks, cfg.drain_hops,
        static_cast<unsigned long long>(res.retrieval_eligible),
        static_cast<unsigned long long>(res.retrieval_collected),
        res.retrieval_miss_ratio, res.retrieval_drain_span.to_seconds(),
        static_cast<unsigned long long>(res.retrieval_double_uploads),
        res.final_snapshot.retrieval_chunks_relayed,
        res.final_snapshot.retrieval_descriptor_acks,
        res.final_snapshot.retrieval_relay_fallbacks);
  }
  if (cfg.storage_policy == core::StoragePolicy::kCoded) {
    std::printf(
        "  coded[k=%d n=%d]: chunks=%u frags_placed=%u frags_failed=%u "
        "released=%u kept=%u decode: reconstructed=%llu partial=%llu\n",
        cfg.coded_k, cfg.coded_n, res.coded.chunks_coded,
        res.coded.fragments_placed, res.coded.fragments_failed,
        res.coded.originals_released, res.coded.originals_kept,
        static_cast<unsigned long long>(res.decode.groups_reconstructed),
        static_cast<unsigned long long>(res.decode.groups_partial));
  }
  std::printf(
      "  invariants: stores_recoverable=%d retrieval_exact_once=%d "
      "counters_consistent=%d => %s\n",
      res.stores_recoverable ? 1 : 0, res.retrieval_exact_once ? 1 : 0,
      res.counters_consistent ? 1 : 0,
      res.invariants_hold() ? "OK" : "VIOLATED");
  for (const auto& t : res.health_trips) {
    std::printf("  health trip: %s (%s = %g vs threshold %g) at t=%.1fs\n",
                t.probe.c_str(), t.gauge.c_str(), t.value, t.threshold,
                t.at.to_seconds());
  }
  return res.invariants_hold() && res.health_trips.empty() ? 0 : 1;
}

}  // namespace

int dispatch(const Options& opt, const std::string& scenario,
             const core::ParamList& settings) {
  if (scenario == "indoor") return run_indoor_cli(opt, settings);
  if (scenario == "mobile") return run_mobile_cli(opt, settings);
  if (scenario == "outdoor") return run_outdoor_cli(opt, settings);
  if (scenario == "voice") return run_voice_cli(opt, settings);
  return run_chaos_cli(opt, settings);
}

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const std::string name = !opt.scenario.empty() ? opt.scenario
                           : opt.faults != nullptr ? "chaos"
                                                   : "indoor";
  const core::Scenario* sc = core::find_scenario(name);
  if (sc == nullptr) tools::fail("unknown scenario " + name);
  const core::ParamList settings = resolve(opt, *sc);
  if (opt.trace_path.empty() && opt.series_path.empty()) {
    return dispatch(opt, name, settings);
  }

  auto ends_with_jsonl = [](const std::string& p) {
    return p.size() >= 6 && p.compare(p.size() - 6, 6, ".jsonl") == 0;
  };
  if (!opt.trace_path.empty()) sim::Trace::instance().enable();
  if (!opt.series_path.empty()) {
    // Start the run with a cold recorder so the export holds exactly this
    // run's samples. (Health probes without --series enable/clear inside
    // run_chaos instead; nothing to export.)
    sim::Telemetry::instance().clear();
    sim::Telemetry::instance().enable();
  }
  int rc = dispatch(opt, name, settings);
  if (!opt.trace_path.empty()) {
    auto& trace = sim::Trace::instance();
    trace.disable();
    const sim::Telemetry* counters =
        opt.series_path.empty() ? nullptr : &sim::Telemetry::instance();
    const bool ok = ends_with_jsonl(opt.trace_path)
                        ? trace.export_jsonl(opt.trace_path)
                        : trace.export_chrome_trace(opt.trace_path, counters);
    if (!ok) {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   opt.trace_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::fprintf(stderr, "trace: %llu records (%zu kept) -> %s\n",
                   static_cast<unsigned long long>(trace.total_recorded()),
                   trace.size(), opt.trace_path.c_str());
    }
  }
  if (!opt.series_path.empty()) {
    auto& tel = sim::Telemetry::instance();
    tel.disable();
    const bool ok = ends_with_jsonl(opt.series_path)
                        ? tel.export_jsonl(opt.series_path)
                        : tel.export_csv(opt.series_path);
    if (!ok) {
      std::fprintf(stderr, "failed to write series to %s\n",
                   opt.series_path.c_str());
      if (rc == 0) rc = 1;
    } else {
      std::fprintf(stderr, "series: %zu samples x %zu series -> %s\n",
                   tel.sample_count(), tel.series_count(),
                   opt.series_path.c_str());
    }
  }
  return rc;
}
