#include "src/tuning/param_space.h"

#include <algorithm>
#include <cmath>

#include "src/common/strings.h"

namespace smartml {

double ParamConfig::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const double* d = std::get_if<double>(&it->second)) return *d;
  if (const int64_t* i = std::get_if<int64_t>(&it->second)) {
    return static_cast<double>(*i);
  }
  return fallback;
}

int64_t ParamConfig::GetInt(const std::string& name, int64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const int64_t* i = std::get_if<int64_t>(&it->second)) return *i;
  if (const double* d = std::get_if<double>(&it->second)) {
    return static_cast<int64_t>(std::llround(*d));
  }
  return fallback;
}

std::string ParamConfig::GetChoice(const std::string& name,
                                   const std::string& fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  if (const std::string* s = std::get_if<std::string>(&it->second)) return *s;
  return fallback;
}

namespace {

std::string Serialize(const ParamConfig& config, bool exact) {
  std::string out;
  for (const auto& [key, value] : config.values()) {
    if (!out.empty()) out += ";";
    out += key;
    out += "=";
    if (const double* d = std::get_if<double>(&value)) {
      out += StrFormat(exact ? "%.17g" : "%.12g", *d);
    } else if (const int64_t* i = std::get_if<int64_t>(&value)) {
      out += StrFormat("%lldL", static_cast<long long>(*i));
    } else {
      out += std::get<std::string>(value);
    }
  }
  return out;
}

}  // namespace

std::string ParamConfig::ToString() const {
  return Serialize(*this, /*exact=*/false);
}

std::string ParamConfig::ToExactString() const {
  return Serialize(*this, /*exact=*/true);
}

StatusOr<ParamConfig> ParamConfig::FromString(const std::string& text) {
  ParamConfig config;
  if (StripAsciiWhitespace(text).empty()) return config;
  for (const std::string& item : Split(text, ';')) {
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("ParamConfig: missing '=' in '" + item +
                                     "'");
    }
    const std::string key(StripAsciiWhitespace(item.substr(0, eq)));
    const std::string raw(StripAsciiWhitespace(item.substr(eq + 1)));
    if (key.empty()) {
      return Status::InvalidArgument("ParamConfig: empty key");
    }
    if (!raw.empty() && raw.back() == 'L') {
      double v;
      if (ParseDouble(raw.substr(0, raw.size() - 1), &v)) {
        config.SetInt(key, static_cast<int64_t>(std::llround(v)));
        continue;
      }
    }
    double v;
    if (ParseDouble(raw, &v)) {
      config.SetDouble(key, v);
    } else {
      config.SetChoice(key, raw);
    }
  }
  return config;
}

ParamSpace& ParamSpace::AddDouble(const std::string& name, double min_value,
                                  double max_value, double default_value,
                                  bool log_scale) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kDouble;
  spec.min_value = min_value;
  spec.max_value = max_value;
  spec.default_double = default_value;
  spec.log_scale = log_scale;
  specs_.push_back(std::move(spec));
  return *this;
}

ParamSpace& ParamSpace::AddInt(const std::string& name, int64_t min_value,
                               int64_t max_value, int64_t default_value,
                               bool log_scale) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kInt;
  spec.min_value = static_cast<double>(min_value);
  spec.max_value = static_cast<double>(max_value);
  spec.default_int = default_value;
  spec.log_scale = log_scale;
  specs_.push_back(std::move(spec));
  return *this;
}

ParamSpace& ParamSpace::AddCategorical(const std::string& name,
                                       std::vector<std::string> choices,
                                       const std::string& default_choice) {
  ParamSpec spec;
  spec.name = name;
  spec.type = ParamType::kCategorical;
  spec.choices = std::move(choices);
  spec.default_choice = default_choice;
  specs_.push_back(std::move(spec));
  return *this;
}

ParamSpace& ParamSpace::Condition(const std::string& name,
                                  const std::string& parent,
                                  std::vector<std::string> parent_values) {
  for (auto& spec : specs_) {
    if (spec.name == name) {
      spec.parent = parent;
      spec.parent_values = std::move(parent_values);
      break;
    }
  }
  return *this;
}

size_t ParamSpace::NumCategorical() const {
  size_t n = 0;
  for (const auto& s : specs_) {
    if (s.type == ParamType::kCategorical) ++n;
  }
  return n;
}

size_t ParamSpace::NumNumeric() const {
  return specs_.size() - NumCategorical();
}

const ParamSpec* ParamSpace::Find(const std::string& name) const {
  for (const auto& s : specs_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

ParamConfig ParamSpace::DefaultConfig() const {
  ParamConfig config;
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case ParamType::kDouble:
        config.SetDouble(spec.name, spec.default_double);
        break;
      case ParamType::kInt:
        config.SetInt(spec.name, spec.default_int);
        break;
      case ParamType::kCategorical:
        config.SetChoice(spec.name, spec.default_choice);
        break;
    }
  }
  return config;
}

namespace {

double SampleNumeric(const ParamSpec& spec, Rng* rng) {
  if (spec.log_scale) {
    const double lo = std::log(std::max(spec.min_value, 1e-12));
    const double hi = std::log(std::max(spec.max_value, 1e-12));
    return std::exp(rng->Uniform(lo, hi));
  }
  return rng->Uniform(spec.min_value, spec.max_value);
}

double PerturbNumeric(const ParamSpec& spec, double current, Rng* rng) {
  // Gaussian move with sigma = 20% of the (log-)range, clamped.
  if (spec.log_scale) {
    const double lo = std::log(std::max(spec.min_value, 1e-12));
    const double hi = std::log(std::max(spec.max_value, 1e-12));
    double x = std::log(std::clamp(current, std::max(spec.min_value, 1e-12),
                                   spec.max_value));
    x += rng->Normal() * 0.2 * (hi - lo);
    return std::exp(std::clamp(x, lo, hi));
  }
  double x = current + rng->Normal() * 0.2 * (spec.max_value - spec.min_value);
  return std::clamp(x, spec.min_value, spec.max_value);
}

}  // namespace

ParamConfig ParamSpace::Sample(Rng* rng) const {
  ParamConfig config;
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case ParamType::kDouble:
        config.SetDouble(spec.name, SampleNumeric(spec, rng));
        break;
      case ParamType::kInt:
        config.SetInt(
            spec.name,
            static_cast<int64_t>(std::llround(SampleNumeric(spec, rng))));
        break;
      case ParamType::kCategorical:
        config.SetChoice(spec.name,
                         spec.choices[rng->UniformInt(spec.choices.size())]);
        break;
    }
  }
  return config;
}

ParamConfig ParamSpace::Neighbor(const ParamConfig& base, Rng* rng) const {
  if (specs_.empty()) return base;
  ParamConfig out = base;
  const ParamSpec& spec = specs_[rng->UniformInt(specs_.size())];
  switch (spec.type) {
    case ParamType::kDouble: {
      const double cur = base.GetDouble(spec.name, spec.default_double);
      out.SetDouble(spec.name, PerturbNumeric(spec, cur, rng));
      break;
    }
    case ParamType::kInt: {
      const double cur = static_cast<double>(
          base.GetInt(spec.name, spec.default_int));
      const double moved = PerturbNumeric(spec, cur, rng);
      int64_t v = static_cast<int64_t>(std::llround(moved));
      // Guarantee the neighbour actually moves for small integer ranges.
      if (v == base.GetInt(spec.name, spec.default_int)) {
        v += rng->Bernoulli(0.5) ? 1 : -1;
      }
      v = std::clamp<int64_t>(v, static_cast<int64_t>(spec.min_value),
                              static_cast<int64_t>(spec.max_value));
      out.SetInt(spec.name, v);
      break;
    }
    case ParamType::kCategorical: {
      if (spec.choices.size() > 1) {
        std::string cur = base.GetChoice(spec.name, spec.default_choice);
        std::string next = cur;
        while (next == cur) {
          next = spec.choices[rng->UniformInt(spec.choices.size())];
        }
        out.SetChoice(spec.name, next);
      }
      break;
    }
  }
  return out;
}

bool ParamSpace::IsActive(const ParamSpec& spec,
                          const ParamConfig& config) const {
  if (spec.parent.empty()) return true;
  const std::string parent_value = config.GetChoice(spec.parent, "");
  return std::find(spec.parent_values.begin(), spec.parent_values.end(),
                   parent_value) != spec.parent_values.end();
}

std::vector<double> ParamSpace::Encode(const ParamConfig& config) const {
  std::vector<double> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) {
    if (!IsActive(spec, config)) {
      out.push_back(-1.0);
      continue;
    }
    switch (spec.type) {
      case ParamType::kDouble:
      case ParamType::kInt: {
        double v = spec.type == ParamType::kDouble
                       ? config.GetDouble(spec.name, spec.default_double)
                       : static_cast<double>(
                             config.GetInt(spec.name, spec.default_int));
        double lo = spec.min_value, hi = spec.max_value;
        if (spec.log_scale) {
          lo = std::log(std::max(lo, 1e-12));
          hi = std::log(std::max(hi, 1e-12));
          v = std::log(std::max(v, 1e-12));
        }
        out.push_back(hi > lo ? std::clamp((v - lo) / (hi - lo), 0.0, 1.0)
                              : 0.0);
        break;
      }
      case ParamType::kCategorical: {
        const std::string c = config.GetChoice(spec.name, spec.default_choice);
        const auto it =
            std::find(spec.choices.begin(), spec.choices.end(), c);
        out.push_back(it == spec.choices.end()
                          ? 0.0
                          : static_cast<double>(it - spec.choices.begin()));
        break;
      }
    }
  }
  return out;
}

ParamConfig ParamSpace::Repair(const ParamConfig& config) const {
  ParamConfig out;
  for (const auto& spec : specs_) {
    switch (spec.type) {
      case ParamType::kDouble: {
        double v = config.GetDouble(spec.name, spec.default_double);
        out.SetDouble(spec.name,
                      std::clamp(v, spec.min_value, spec.max_value));
        break;
      }
      case ParamType::kInt: {
        int64_t v = config.GetInt(spec.name, spec.default_int);
        out.SetInt(spec.name, std::clamp<int64_t>(
                                  v, static_cast<int64_t>(spec.min_value),
                                  static_cast<int64_t>(spec.max_value)));
        break;
      }
      case ParamType::kCategorical: {
        std::string c = config.GetChoice(spec.name, spec.default_choice);
        if (std::find(spec.choices.begin(), spec.choices.end(), c) ==
            spec.choices.end()) {
          c = spec.default_choice;
        }
        out.SetChoice(spec.name, c);
        break;
      }
    }
  }
  return out;
}

}  // namespace smartml
