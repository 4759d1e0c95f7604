// The scenario table: every run parameter of every front-end, spelled once.
//
// Each scenario the paper evaluates (indoor, mobile, outdoor, voice, plus
// the chaos soak) starts from its *RunConfig member defaults (chaos adds a
// default fault storm), takes the table's typed, range-checked parameters,
// and turns its config into a RunRecord. enviromic_cli's flags and
// enviromic_fleet's --set/--sweep/--faults both resolve through this table,
// so the two binaries run the same world for the same seed and parameters
// (CliFleetParity in tests/test_fleet.cpp checks it).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"

namespace enviromic::core {

/// One world's config for every scenario; a run reads its own member.
struct RunConfigs {
  IndoorRunConfig indoor;
  MobileRunConfig mobile;
  OutdoorRunConfig outdoor;
  VoiceRunConfig voice;
  ChaosRunConfig chaos;
};

/// One assignment: `value` for numbers (an enum's index, a bool's 0 or 1),
/// `text` for a text parameter. A ParamList applies in order.
struct ParamSetting {
  std::string name;
  double value = 0.0;
  std::string text;
};
using ParamList = std::vector<ParamSetting>;

enum class ParamKind { kInt, kReal, kEnum, kBool, kText };

/// Chaos parameters whose presence changes other defaults: any kFault key
/// replaces the default storm; kGeometry implies coded storage unless the
/// kPolicy parameter is set.
enum class ParamGroup { kPlain, kFault, kGeometry, kPolicy };

/// A named parameter: `--set coded_k=2` on the fleet, `--coded-k 2` (or
/// `--coded_k 2`) on either binary.
struct Param {
  const char* name;
  ParamKind kind;
  double lo = 0.0;  //!< inclusive range (a bool is [0, 1], an enum [0, n-1])
  double hi = 0.0;
  const char* choices = nullptr;  //!< kEnum: "a|b|c", the value is the index
  ParamGroup group = ParamGroup::kPlain;
  unsigned scenarios = 0;  //!< Scenario::bit of each scenario taking it
  void (*set)(RunConfigs&, const ParamSetting&) = nullptr;
};

struct Scenario {
  const char* name;
  unsigned bit;
  /// Rules across parameters on the built configs; nullptr when none.
  bool (*check)(const RunConfigs&, std::string* error);
  RunRecord (*record)(const RunConfigs&);
};

/// indoor, mobile, outdoor, voice, chaos.
const std::vector<Scenario>& scenarios();
const Scenario* find_scenario(std::string_view name);

/// Parse `text` for `param`: a number through util::parse_double (or a
/// choice's name), range-checked; text verbatim. False + error otherwise.
bool parse_param(const Param& param, const char* text, ParamSetting* out,
                 std::string* error);

/// parse_param for the parameter `name` (coded_k, or a flag like --coded-k)
/// of `scenario`; a null `text` is a bare flag, which means 1 for a bool.
bool parse_setting(const Scenario& scenario, std::string_view name,
                   const char* text, ParamSetting* out, std::string* error);

/// Parse a `--faults k=v[,k=v...]` spec of kFault parameters into `out`.
bool parse_faults(const Scenario& scenario, std::string_view spec,
                  ParamList* out, std::string* error);

/// Check every setting's name and value for `scenario`, then its rules
/// (erasure geometry, drain resource, snapshot period).
bool validate(const Scenario& scenario, const ParamList& settings,
              std::string* error);

/// Every scenario's defaults with `seed` and the settings applied.
RunConfigs make_configs(std::uint64_t seed, const ParamList& settings);

/// The --help listing of every parameter; both binaries print it.
std::string describe_params();

}  // namespace enviromic::core
