// Hyperparameter space description and configurations.
//
// Every classifier declares a ParamSpace (mirroring Table 3 of the paper);
// SMAC, random search, and the knowledge base all operate on ParamConfig
// values drawn from these spaces. Supports numeric (linear or log-scale),
// integer, and categorical parameters, plus conditional activation (a
// parameter that only matters for some value of a parent categorical, e.g.
// `gamma` only when `kernel=rbf`) — the same structure SMAC was designed for.
#ifndef SMARTML_TUNING_PARAM_SPACE_H_
#define SMARTML_TUNING_PARAM_SPACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "src/common/rng.h"
#include "src/common/status.h"

namespace smartml {

enum class ParamType { kDouble, kInt, kCategorical };

/// Declaration of a single hyperparameter.
struct ParamSpec {
  std::string name;
  ParamType type = ParamType::kDouble;

  // Numeric range (kDouble/kInt). When log_scale, sampling and neighbour
  // moves happen in log space; min must be > 0.
  double min_value = 0.0;
  double max_value = 1.0;
  bool log_scale = false;

  // Categorical domain (kCategorical).
  std::vector<std::string> choices;

  // Defaults.
  double default_double = 0.0;
  int64_t default_int = 0;
  std::string default_choice;

  // Conditional activation: active iff `parent` is empty, or the config's
  // value of `parent` (a categorical) is in `parent_values`.
  std::string parent;
  std::vector<std::string> parent_values;
};

/// One concrete hyperparameter assignment.
class ParamConfig {
 public:
  void SetDouble(const std::string& name, double v) { values_[name] = v; }
  void SetInt(const std::string& name, int64_t v) { values_[name] = v; }
  void SetChoice(const std::string& name, std::string v) {
    values_[name] = std::move(v);
  }

  bool Has(const std::string& name) const { return values_.count(name) > 0; }

  /// Typed getters; `fallback` is returned when absent or wrong type.
  double GetDouble(const std::string& name, double fallback) const;
  int64_t GetInt(const std::string& name, int64_t fallback) const;
  std::string GetChoice(const std::string& name,
                        const std::string& fallback) const;

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Deterministic "k=v;k=v" serialization (keys sorted by map order).
  /// Doubles keep 12 significant digits; SMAC and the genetic search use
  /// the string as their dedupe key.
  std::string ToString() const;

  /// ToString with doubles written to round-trip exactly (%.17g), so a
  /// stored config parses back to the same values. The knowledge base
  /// stores warm-start configurations this way.
  std::string ToExactString() const;

  /// Inverse of ToString. Values are parsed as int when integral-looking,
  /// double when numeric, string otherwise.
  static StatusOr<ParamConfig> FromString(const std::string& text);

  bool operator==(const ParamConfig& other) const {
    return values_ == other.values_;
  }

  const std::map<std::string, std::variant<double, int64_t, std::string>>&
  values() const {
    return values_;
  }

 private:
  std::map<std::string, std::variant<double, int64_t, std::string>> values_;
};

/// An ordered collection of ParamSpecs plus the operations optimizers need.
class ParamSpace {
 public:
  ParamSpace& AddDouble(const std::string& name, double min_value,
                        double max_value, double default_value,
                        bool log_scale = false);
  ParamSpace& AddInt(const std::string& name, int64_t min_value,
                     int64_t max_value, int64_t default_value,
                     bool log_scale = false);
  ParamSpace& AddCategorical(const std::string& name,
                             std::vector<std::string> choices,
                             const std::string& default_choice);

  /// Marks `name` as active only when categorical `parent` takes one of
  /// `parent_values`.
  ParamSpace& Condition(const std::string& name, const std::string& parent,
                        std::vector<std::string> parent_values);

  const std::vector<ParamSpec>& specs() const { return specs_; }
  size_t NumParams() const { return specs_.size(); }
  size_t NumCategorical() const;
  size_t NumNumeric() const;  // kDouble + kInt.

  const ParamSpec* Find(const std::string& name) const;

  /// Config with every parameter at its declared default.
  ParamConfig DefaultConfig() const;

  /// Uniform random config (log-scale aware). Inactive conditionals still
  /// receive values so configs are always complete.
  ParamConfig Sample(Rng* rng) const;

  /// Random one-parameter mutation of `base` (SMAC's local search move).
  ParamConfig Neighbor(const ParamConfig& base, Rng* rng) const;

  /// True when `spec` is active under `config` (conditional logic).
  bool IsActive(const ParamSpec& spec, const ParamConfig& config) const;

  /// Encodes a config as a fixed-width numeric vector for the surrogate
  /// model: numerics normalized to [0,1] (log-scale aware), categoricals as
  /// category index, inactive parameters as -1.
  std::vector<double> Encode(const ParamConfig& config) const;

  /// Clamps/repairs a config so every declared parameter is present and in
  /// range; unknown keys are dropped.
  ParamConfig Repair(const ParamConfig& config) const;

 private:
  std::vector<ParamSpec> specs_;
};

}  // namespace smartml

#endif  // SMARTML_TUNING_PARAM_SPACE_H_
