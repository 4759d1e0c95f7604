#include "core/scenario.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "core/retrieval.h"
#include "storage/erasure.h"
#include "util/csv.h"
#include "util/parse.h"

namespace enviromic::core {

namespace {

constexpr unsigned kIndoor = 1, kMobile = 2, kOutdoor = 4, kVoice = 8;
constexpr unsigned kChaos = 16;

/// Longest duration a parameter may ask for: far inside sim::Time's tick
/// range, so Time::seconds never overflows.
constexpr double kMaxSeconds = 1e8;

using S = const ParamSetting&;
using Setter = void (*)(RunConfigs&, S);
using G = ParamGroup;

/// Setter for the field at the end of a member-pointer path from
/// RunConfigs, converted by the field's type: seconds for sim::Time, the
/// text for a string.
template <auto... Path>
void set(RunConfigs& c, S s) {
  auto& field = (c .* ... .* Path);
  using T = std::remove_reference_t<decltype(field)>;
  if constexpr (std::is_same_v<T, sim::Time>) {
    field = sim::Time::seconds(s.value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field = s.text;
  } else if constexpr (std::is_floating_point_v<T>) {
    field = s.value;
  } else {  // integers, bools and enums: the value is whole
    field = static_cast<T>(static_cast<std::int64_t>(s.value));
  }
}

/// One parameter of several scenarios: the same field in each config.
template <Setter... Each>
void set_all(RunConfigs& c, S s) {
  (Each(c, s), ...);
}

/// A Gilbert–Elliott knob: setting one turns burst loss on.
template <auto Field>
void set_burst(RunConfigs& c, S s) {
  c.chaos.burst.enabled = true;
  set<&RunConfigs::chaos, &ChaosRunConfig::burst, Field>(c, s);
}

Param real(const char* name, unsigned in, double lo, double hi, Setter set,
           G group = G::kPlain) {
  return {name, ParamKind::kReal, lo, hi, nullptr, group, in, set};
}

Param seconds(const char* name, unsigned in, Setter set, G group = G::kPlain) {
  return real(name, in, 1e-3, kMaxSeconds, set, group);
}

Param probability(const char* name, Setter set) {
  return real(name, kChaos, 0.0, 1.0, set, G::kFault);
}

Param integer(const char* name, unsigned in, double lo, double hi, Setter set,
              G group = G::kPlain) {
  return {name, ParamKind::kInt, lo, hi, nullptr, group, in, set};
}

Param flag(const char* name, unsigned in, Setter set, G group = G::kPlain) {
  return {name, ParamKind::kBool, 0.0, 1.0, nullptr, group, in, set};
}

/// `choices` name the enum's values in declaration order.
Param choice(const char* name, unsigned in, const char* choices, Setter set,
             G group = G::kPlain) {
  const auto bars = std::count(choices, choices + std::strlen(choices), '|');
  return {name, ParamKind::kEnum, 0.0, static_cast<double>(bars), choices,
          group, in, set};
}

const std::vector<Param>& params() {
  using I = IndoorRunConfig;
  using M = MobileRunConfig;
  using O = OutdoorRunConfig;
  using C = ChaosRunConfig;
  using F = FaultPlanConfig;
  using B = net::BurstLossConfig;
  constexpr auto kI = &RunConfigs::indoor;
  constexpr auto kM = &RunConfigs::mobile;
  constexpr auto kO = &RunConfigs::outdoor;
  constexpr auto kC = &RunConfigs::chaos;
  constexpr auto kF = &C::faults;
  static const std::vector<Param> all{
      // Shared by several scenarios: the same field of each one's config.
      seconds("horizon", kIndoor | kOutdoor | kChaos,
              set_all<set<kI, &I::horizon>, set<kO, &O::horizon>,
                      set<kC, &C::horizon>>),
      real("beta", kIndoor | kOutdoor | kChaos, 1.0, 1e3,
           set_all<set<kI, &I::beta_max>, set<kO, &O::beta_max>,
                   set<kC, &C::beta_max>>),
      real("flash_scale", kIndoor | kChaos, 1e-3, 100.0,
           set_all<set<kI, &I::flash_scale>, set<kC, &C::flash_scale>>),
      integer("grid_nx", kIndoor | kMobile | kChaos, 1, 100,
              set_all<set<kI, &I::grid_nx>, set<kM, &M::grid_nx>,
                      set<kC, &C::grid_nx>>),
      integer("grid_ny", kIndoor | kMobile | kChaos, 1, 100,
              set_all<set<kI, &I::grid_ny>, set<kM, &M::grid_ny>,
                      set<kC, &C::grid_ny>>),
      seconds("sample", kIndoor, set<kI, &I::sample_period>),
      choice("mode", kIndoor, "uncoordinated|coop|full", set<kI, &I::mode>),
      flag("gossip", kIndoor, set<kI, &I::balance_strategy>),  // 1: gossip
      seconds("trc", kMobile, set<kM, &M::task_period>),
      integer("dta", kMobile, 0, 1e7,
              [](RunConfigs& c, S s) {
                c.mobile.task_assign_delay =
                    sim::Time::millis(static_cast<std::int64_t>(s.value));
              }),
      flag("prelude", kMobile, set<kM, &M::prelude>),
      seconds("event_s", kMobile, set<kM, &M::event_duration>),
      integer("nodes", kOutdoor, 1, 1e4, set<kO, &O::nodes>),
      real("plot_ft", kOutdoor, 1.0, 1e5, set<kO, &O::plot_ft>),
      real("grace", kChaos, 0.0, kMaxSeconds, set<kC, &C::grace>),
      real("spacing", kChaos, 1e-2, 1e3, set<kC, &C::spacing_ft>),
      probability("crash", set<kC, kF, &F::crash_probability>),
      seconds("downtime", kChaos, set<kC, kF, &F::downtime_mean>, G::kFault),
      probability("permanent", set<kC, kF, &F::permanent_fraction>),
      probability("lose_data", set<kC, kF, &F::lose_data_fraction>),
      probability("brownout", set<kC, kF, &F::brownout_probability>),
      seconds("brownout_len", kChaos, set<kC, kF, &F::brownout_mean>,
              G::kFault),
      probability("clockstep", set<kC, kF, &F::clock_step_probability>),
      real("clockstep_max", kChaos, 0.0, 1e4,
           set<kC, kF, &F::clock_step_max_s>, G::kFault),
      flag("burst", kChaos, set<kC, &C::burst, &B::enabled>, G::kFault),
      probability("pgb", set_burst<&B::p_good_to_bad>),
      probability("pbg", set_burst<&B::p_bad_to_good>),
      probability("loss_bad", set_burst<&B::loss_bad>),
      probability("loss_good", set_burst<&B::loss_good>),
      probability("asym", set<kC, &C::link_asymmetry_max>),
      choice("storage_policy", kChaos, "migrate|coded",
             set<kC, &C::storage_policy>, G::kPolicy),
      integer("coded_k", kChaos, 1, 255, set<kC, &C::coded_k>, G::kGeometry),
      integer("coded_n", kChaos, 1, 255, set<kC, &C::coded_n>, G::kGeometry),
      integer("replicas", kChaos, 1, 16, set<kC, &C::recording_replicas>),
      integer("window", kChaos, 0, 1024, set<kC, &C::transfer_window_frags>),
      flag("census", kChaos, set<kC, &C::payload_census>),
      integer("drain_sinks", kChaos, 0, 4, set<kC, &C::drain_sinks>),
      integer("drain_hops", kChaos, 1, 255, set<kC, &C::drain_hops>),
      {"drain_resource", ParamKind::kText, 0.0, 0.0, nullptr, G::kPlain,
       kChaos, set<kC, &C::drain_resource>},
  };
  return all;
}

/// The parameter `name`, when `scenario` takes it (any scenario if null).
const Param* find_param(const Scenario* scenario, std::string_view name) {
  for (const auto& p : params()) {
    if (name == p.name) {
      const bool takes = !scenario || (p.scenarios & scenario->bit) != 0;
      return takes ? &p : nullptr;
    }
  }
  return nullptr;
}

std::string range_text(const Param& p) {
  if (p.kind == ParamKind::kBool) return "0 or 1";
  if (p.kind == ParamKind::kEnum) return std::string("one of ") + p.choices;
  if (p.kind == ParamKind::kText) return "text";
  return std::string(p.kind == ParamKind::kInt ? "an integer" : "a number") +
         " in [" + format_metric(p.lo) + ", " + format_metric(p.hi) + "]";
}

bool check_value(const Param& p, double v, std::string* error) {
  if (std::isfinite(v) && v >= p.lo && v <= p.hi &&
      (p.kind == ParamKind::kReal || v == std::floor(v))) {
    return true;
  }
  *error = std::string(p.name) + "=" + format_metric(v) + " is not " +
           range_text(p);
  return false;
}

/// An indoor run snapshots every sample period up to the horizon.
bool check_indoor(const RunConfigs& configs, std::string* error) {
  const auto& c = configs.indoor;
  if (c.sample_period <= c.horizon) return true;
  *error = "sample " + format_metric(c.sample_period.to_seconds()) +
           " s outlasts horizon " + format_metric(c.horizon.to_seconds()) +
           " s";
  return false;
}

bool check_chaos(const RunConfigs& configs, std::string* error) {
  const auto& c = configs.chaos;
  if (c.storage_policy == StoragePolicy::kCoded &&
      !storage::ErasureCodec::validate_geometry(c.coded_k, c.coded_n, error)) {
    return false;
  }
  if (parse_resource(c.drain_resource)) return true;
  *error = "drain_resource '" + c.drain_resource + "' is not /chunks/all, " +
           "/chunks/time/<a>-<b> or /chunks/source/<id>";
  return false;
}

template <auto Member, auto Run, auto Record>
RunRecord record(const RunConfigs& configs) {
  return Record(Run(configs.*Member));
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all{
      {"indoor", kIndoor, check_indoor,
       record<&RunConfigs::indoor, run_indoor, indoor_run_record>},
      {"mobile", kMobile, nullptr,
       record<&RunConfigs::mobile, run_mobile, mobile_run_record>},
      {"outdoor", kOutdoor, nullptr,
       record<&RunConfigs::outdoor, run_outdoor, outdoor_run_record>},
      {"voice", kVoice, nullptr,
       record<&RunConfigs::voice, run_voice, voice_run_record>},
      {"chaos", kChaos, check_chaos,
       record<&RunConfigs::chaos, run_chaos, chaos_run_record>}};
  return all;
}

const Scenario* find_scenario(std::string_view name) {
  for (const auto& sc : scenarios()) {
    if (name == sc.name) return &sc;
  }
  return nullptr;
}

bool parse_param(const Param& param, const char* text, ParamSetting* out,
                 std::string* error) {
  out->name = param.name;
  if (param.kind == ParamKind::kText) {
    out->text = text;
    return true;
  }
  if (param.kind == ParamKind::kEnum) {
    const std::string all = std::string("|") + param.choices + "|";
    const auto at = all.find("|" + std::string(text) + "|");
    if (at != std::string::npos) {
      out->value = static_cast<double>(
          std::count(all.begin(), all.begin() + at, '|'));
      return true;
    }
  }
  if (!util::parse_double(text, &out->value)) {
    *error = std::string(param.name) + "='" + text + "' is not " +
             range_text(param);
    return false;
  }
  return check_value(param, out->value, error);
}

bool parse_setting(const Scenario& scenario, std::string_view name,
                   const char* text, ParamSetting* out, std::string* error) {
  std::string key(name.substr(name.rfind("--", 0) == 0 ? 2 : 0));
  std::replace(key.begin(), key.end(), '-', '_');
  const Param* p = find_param(&scenario, key);
  if (p == nullptr) {
    *error = "the " + std::string(scenario.name) + " scenario has no " +
             std::string(name) + " parameter";
    return false;
  }
  if (text == nullptr && p->kind != ParamKind::kBool) {
    *error = "missing value for " + std::string(name);
    return false;
  }
  return parse_param(*p, text == nullptr ? "1" : text, out, error);
}

bool parse_faults(const Scenario& scenario, std::string_view spec,
                  ParamList* out, std::string* error) {
  for (const auto& item : util::split_commas(spec)) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const Param* p = eq == std::string::npos
                         ? nullptr
                         : find_param(&scenario, item.substr(0, eq));
    if (p == nullptr || p->group != G::kFault) {
      *error = "expected fault_key=value, got '" + item + "'";
      return false;
    }
    ParamSetting s;
    if (!parse_param(*p, item.c_str() + eq + 1, &s, error)) return false;
    out->push_back(std::move(s));
  }
  return true;
}

RunConfigs make_configs(std::uint64_t seed, const ParamList& settings) {
  RunConfigs c;
  c.indoor.seed = c.mobile.seed = c.outdoor.seed = c.voice.seed =
      c.chaos.seed = seed;
  auto given = [&](G group) {
    return std::any_of(settings.begin(), settings.end(), [&](S s) {
      const Param* p = find_param(nullptr, s.name);
      return p != nullptr && p->group == group;
    });
  };
  if (!given(G::kFault)) {  // bare chaos: a representative default storm
    c.chaos.faults.crash_probability = 0.3;
    c.chaos.burst.enabled = true;
  }
  if (given(G::kGeometry) && !given(G::kPolicy)) {
    c.chaos.storage_policy = StoragePolicy::kCoded;
  }
  for (const auto& s : settings) {
    if (const Param* p = find_param(nullptr, s.name)) p->set(c, s);
  }
  return c;
}

bool validate(const Scenario& scenario, const ParamList& settings,
              std::string* error) {
  for (const auto& s : settings) {
    const Param* p = find_param(&scenario, s.name);
    if (p == nullptr) {
      *error = "unknown " + std::string(scenario.name) + " parameter '" +
               s.name + "'";
      return false;
    }
    if (p->kind != ParamKind::kText && !check_value(*p, s.value, error)) {
      return false;
    }
  }
  return scenario.check == nullptr ||
         scenario.check(make_configs(0, settings), error);
}

std::string describe_params() {
  std::string out =
      "scenario parameters: --name <v> (a bare bool flag means 1); fleet:\n"
      "also --set name=<v>, --sweep name=<v>,<v>,...; [fault] keys also go\n"
      "in --faults k=v,... and replace chaos's default crash=0.3 burst storm\n";
  for (const auto& p : params()) {
    std::string in;
    for (const auto& sc : scenarios()) {
      if ((p.scenarios & sc.bit) != 0) in += std::string(" ") + sc.name;
    }
    char line[160];
    std::snprintf(line, sizeof line, "  %-15s %-30s%s%s\n", p.name,
                  range_text(p).c_str(), in.c_str(),
                  p.group == G::kFault ? " [fault]" : "");
    out += line;
  }
  return out;
}

}  // namespace enviromic::core
