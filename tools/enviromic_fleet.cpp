// enviromic_fleet — deterministic multi-process campaign runner.
//
//   enviromic_fleet --scenario chaos --seeds 16 -j 8 \
//       --faults crash=0.3,downtime=60 --set horizon=300 --out campaign.json
//   enviromic_fleet --scenario chaos --sweep crash=0.1,0.3,0.5 --seeds 8 \
//       --out campaign.json --csv campaign.csv
//   enviromic_fleet ... --resume campaign.json --out campaign.json
//
// Expands a campaign spec (scenario, parameter sweep axes, seed range,
// fault config) into the cross product of parameter points x seeds, forks
// one worker process per world up to -j concurrent, and merges the results
// into one deterministic report: byte-identical for the same spec whatever
// -j, the completion order, or worker retries, because rows are sorted by
// (parameter point, seed index) and never by arrival. A crashed or hung
// worker is a recorded row, not a harness death.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "flags.h"
#include "util/csv.h"
#include "util/parse.h"

using namespace enviromic;

namespace {

void usage() {
  std::printf(
      "usage: enviromic_fleet [options] [scenario parameters]\n"
      "  --scenario chaos|indoor|mobile|outdoor|voice|selftest\n"
      "      (default chaos)\n"
      "  --seed <n>                base seed (default 7); world seeds are\n"
      "      derive_run_seed(base, i) like enviromic_cli --runs\n"
      "  --seeds <n>               worlds per parameter point (default 8)\n"
      "  --sweep name=v1,v2,...    sweep axis; repeat for a grid (cross\n"
      "      product, first axis slowest)\n"
      "  --set name=value          fixed parameter for every world; repeat\n"
      "      (--name value is the same)\n"
      "  --faults k=v[,k=v...]     chaos fault parameters, applied first\n"
      "  -j, --jobs <n>            concurrent worker processes (default 1)\n"
      "  --timeout-s <seconds>     per-attempt wall-clock budget (0 = none)\n"
      "  --retries <n>             extra attempts per failed world (default 1)\n"
      "  --out <path|->            write the merged JSON report (default -)\n"
      "  --csv <path>              also write the per-world CSV rows\n"
      "  --resume <path>           reuse ok rows from a previous JSON report\n"
      "  --series-interval <s>     chaos only: sample telemetry every <s>\n"
      "      simulated seconds in every world (> 0; needs --series-dir)\n"
      "  --series-dir <dir>        per-world series files land here as\n"
      "      world_p<point>_s<seed_index>.csv (kept for --resume)\n"
      "  --series-out <path>       write the merged cross-seed percentile\n"
      "      bands (point,t_s,series,p10,p50,p90,n); default\n"
      "      <series-dir>/merged_bands.csv\n"
      "\n"
      "exit: 0 all worlds ok, 1 some world failed, 2 bad arguments\n"
      "\n%s",
      core::describe_params().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  core::FleetSpec spec;
  std::string out_path = "-";
  std::string csv_path;
  std::string resume_path;
  std::string series_out_path;
  // Parameters resolve once the scenario is known: (name or flag, value;
  // nullptr for a bare flag).
  std::vector<std::pair<std::string, const char*>> sets, sweeps;
  const char* faults = nullptr;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&] { return tools::flag_value(argc, argv, i); };
    if (a == "--scenario") {
      spec.scenario = next();
    } else if (a == "--seed") {
      spec.base_seed = tools::flag_u64("--seed", next());
    } else if (a == "--seeds") {
      spec.seeds_per_point = static_cast<int>(tools::flag_number(
          "--seeds", next(), core::ParamKind::kInt, 1, 1e6));
    } else if (a == "--set" || a == "--sweep") {
      const char* kv = next();
      const char* eq = std::strchr(kv, '=');
      if (eq == nullptr || eq == kv) {
        tools::fail("bad " + a + " '" + kv + "': expected name=value");
      }
      (a == "--set" ? sets : sweeps).emplace_back(std::string(kv, eq), eq + 1);
    } else if (a == "--faults") {
      faults = next();
    } else if (a == "-j" || a == "--jobs") {
      spec.jobs = static_cast<int>(tools::flag_number(
          "--jobs", next(), core::ParamKind::kInt, 1, 4096));
    } else if (a == "--timeout-s") {
      spec.timeout_s = tools::flag_number("--timeout-s", next(),
                                          core::ParamKind::kReal, 0.0, 1e8);
    } else if (a == "--retries") {
      spec.retries = static_cast<int>(tools::flag_number(
          "--retries", next(), core::ParamKind::kInt, 0, 1e3));
    } else if (a == "--out") {
      out_path = next();
    } else if (a == "--csv") {
      csv_path = next();
    } else if (a == "--resume") {
      resume_path = next();
    } else if (a == "--series-interval") {
      spec.series_interval_s = tools::flag_number(
          "--series-interval", next(), core::ParamKind::kReal, 1e-3, 1e8);
    } else if (a == "--series-dir") {
      spec.series_dir = next();
    } else if (a == "--series-out") {
      series_out_path = next();
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else if (a.rfind("--", 0) == 0) {
      sets.emplace_back(a, tools::optional_value(argc, argv, i));
    } else {
      tools::fail("unknown option " + a);
    }
  }

  // Selftest parameters are plain numbers; a table scenario's go through
  // the table.
  const core::Scenario* sc = core::find_scenario(spec.scenario);
  auto parse = [&](const std::string& name, const char* text) {
    core::ParamSetting s{name, 0.0, {}};
    std::string err = "not a number";
    const bool ok = sc != nullptr
                        ? core::parse_setting(*sc, name, text, &s, &err)
                        : text != nullptr && util::parse_double(text, &s.value);
    if (!ok) tools::fail("bad " + name + ": " + err);
    return s;
  };
  std::string err = "chaos only";
  if (faults != nullptr &&
      (sc == nullptr || !core::parse_faults(*sc, faults, &spec.fixed, &err))) {
    tools::fail("bad --faults: " + err);
  }
  for (const auto& [name, text] : sets) spec.fixed.push_back(parse(name, text));
  for (const auto& [name, text] : sweeps) {
    core::FleetAxis axis;
    for (const auto& value : util::split_commas(text)) {
      const auto s = parse(name, value.c_str());
      axis.name = s.name;
      axis.values.push_back(s.value);
    }
    spec.sweep.push_back(std::move(axis));
  }
  if (!core::validate_fleet_spec(spec, &err)) tools::fail(err);

  std::string resume_report;
  if (!resume_path.empty()) {
    std::ifstream in(resume_path);
    if (!in) tools::fail("cannot read --resume " + resume_path);
    std::ostringstream buf;
    buf << in.rdbuf();
    resume_report = buf.str();
  }

  const auto result = core::run_fleet(spec, resume_report);
  if (!result.ok()) tools::fail(result.error);

  if (out_path == "-") {
    std::fwrite(result.report_json.data(), 1, result.report_json.size(),
                stdout);
  } else {
    std::ofstream out(out_path, std::ios::trunc);
    if (!out) tools::fail("cannot write --out " + out_path);
    out << result.report_json;
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path, std::ios::trunc);
    if (!out) tools::fail("cannot write --csv " + csv_path);
    out << result.report_csv;
  }
  if (!result.series_report.empty()) {
    if (series_out_path.empty()) {
      series_out_path = spec.series_dir + "/merged_bands.csv";
    }
    std::ofstream out(series_out_path, std::ios::trunc);
    if (!out) tools::fail("cannot write --series-out " + series_out_path);
    out << result.series_report;
  }
  std::fprintf(stderr,
               "fleet: %d worlds (%d resumed), %d launched, %d retried, "
               "%d failed\n",
               result.worlds, result.resumed, result.launched, result.retried,
               result.failed);
  return result.failed == 0 ? 0 : 1;
}
