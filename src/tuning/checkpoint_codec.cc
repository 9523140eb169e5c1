#include "src/tuning/checkpoint_codec.h"

#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/persist/checkpoint.h"

namespace smartml {

std::string CkptDouble(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool CkptParseDouble(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  *out = std::strtod(token.c_str(), &end);
  return end == token.c_str() + token.size();
}

std::string CkptToken(const std::string& s) {
  if (s.empty()) return "%-";
  std::string out;
  out.reserve(s.size());
  for (const unsigned char c : s) {
    if (c > ' ' && c < 0x7F && c != '%') {
      out.push_back(static_cast<char>(c));
    } else {
      char esc[4];
      std::snprintf(esc, sizeof(esc), "%%%02X", c);
      out += esc;
    }
  }
  return out;
}

bool CkptParseToken(const std::string& token, std::string* out) {
  if (token == "%-") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out->push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) return false;
    const auto hex = [](char c) -> int {
      if (c >= '0' && c <= '9') return c - '0';
      if (c >= 'A' && c <= 'F') return c - 'A' + 10;
      if (c >= 'a' && c <= 'f') return c - 'a' + 10;
      return -1;
    };
    const int hi = hex(token[i + 1]), lo = hex(token[i + 2]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return true;
}

void CkptAppendConfig(const ParamConfig& config, std::ostringstream* out) {
  *out << "cfg " << config.values().size();
  for (const auto& [name, value] : config.values()) {
    if (std::holds_alternative<double>(value)) {
      *out << " d " << CkptToken(name) << ' '
           << CkptDouble(std::get<double>(value));
    } else if (std::holds_alternative<int64_t>(value)) {
      *out << " i " << CkptToken(name) << ' ' << std::get<int64_t>(value);
    } else {
      *out << " c " << CkptToken(name) << ' '
           << CkptToken(std::get<std::string>(value));
    }
  }
  *out << '\n';
}

bool CkptReadConfig(std::istringstream* in, ParamConfig* out) {
  std::string tag;
  size_t count = 0;
  if (!(*in >> tag >> count) || tag != "cfg" || count > 10000) return false;
  *out = ParamConfig();
  for (size_t i = 0; i < count; ++i) {
    std::string type, name_token, name;
    if (!(*in >> type >> name_token) || !CkptParseToken(name_token, &name)) {
      return false;
    }
    if (type == "d") {
      std::string value_token;
      double value = 0.0;
      if (!(*in >> value_token) || !CkptParseDouble(value_token, &value)) {
        return false;
      }
      out->SetDouble(name, value);
    } else if (type == "i") {
      int64_t value = 0;
      if (!(*in >> value)) return false;
      out->SetInt(name, value);
    } else if (type == "c") {
      std::string value_token, value;
      if (!(*in >> value_token) || !CkptParseToken(value_token, &value)) {
        return false;
      }
      out->SetChoice(name, value);
    } else {
      return false;
    }
  }
  return true;
}

bool CkptExpect(std::istringstream* in, const char* tag) {
  std::string token;
  return (*in >> token) && token == tag;
}

void CkptAppendHeader(const char* header, const Rng& rng, int evaluations_left,
                      std::ostringstream* out) {
  const std::array<uint64_t, 4> state = rng.State();
  *out << header << "\nrng " << state[0] << ' ' << state[1] << ' '
       << state[2] << ' ' << state[3] << "\nleft " << evaluations_left
       << '\n';
}

bool CkptReadHeader(std::istringstream* in, const char* header,
                    std::array<uint64_t, 4>* rng_state, int* evaluations_left) {
  std::string line;
  std::array<uint64_t, 4>& w = *rng_state;
  return std::getline(*in, line) && line == header && CkptExpect(in, "rng") &&
         (*in >> w[0] >> w[1] >> w[2] >> w[3]) && CkptExpect(in, "left") &&
         (*in >> *evaluations_left);
}

void CkptAppendTrajectory(const std::vector<double>& trajectory,
                          std::ostringstream* out) {
  *out << "traj " << trajectory.size();
  for (const double v : trajectory) *out << ' ' << CkptDouble(v);
  *out << '\n';
}

bool CkptReadTrajectory(std::istringstream* in, std::vector<double>* out) {
  size_t n = 0;
  if (!CkptExpect(in, "traj") || !(*in >> n) || n > 100000000) return false;
  out->resize(n);
  std::string token;
  for (double& v : *out) {
    if (!(*in >> token) || !CkptParseDouble(token, &v)) return false;
  }
  return true;
}

void CkptAppendResult(const TunedResult& result, std::ostringstream* out) {
  *out << "best " << CkptDouble(result.best_cost) << ' '
       << result.num_evaluations << '\n';
  CkptAppendConfig(result.best_config, out);
  CkptAppendTrajectory(result.trajectory, out);
}

bool CkptReadResult(std::istringstream* in, TunedResult* out) {
  *out = TunedResult();
  out->resumed = true;
  std::string token;
  return CkptExpect(in, "best") && (*in >> token) &&
         CkptParseDouble(token, &out->best_cost) &&
         (*in >> out->num_evaluations) &&
         CkptReadConfig(in, &out->best_config) &&
         CkptReadTrajectory(in, &out->trajectory);
}

std::optional<std::string> CkptGet(const char* tuner,
                                   const TunerOptions& options) {
  if (options.checkpoint == nullptr || options.checkpoint_key.empty()) {
    return std::nullopt;
  }
  StatusOr<std::string> blob = options.checkpoint->Get(options.checkpoint_key);
  if (blob.ok()) return std::move(*blob);
  if (blob.status().code() != StatusCode::kNotFound) {
    SMARTML_LOG_WARN << tuner << ": checkpoint unreadable ("
                     << blob.status().ToString() << ") -- starting fresh";
  }
  return std::nullopt;
}

void CkptPut(const char* tuner, const TunerOptions& options,
             const std::function<std::string()>& serialize) {
  if (options.checkpoint == nullptr || options.checkpoint_key.empty()) return;
  const Status status =
      options.checkpoint->Put(options.checkpoint_key, serialize());
  if (!status.ok()) {
    SMARTML_LOG_WARN << tuner << ": checkpoint write failed ("
                     << status.ToString() << ") -- continuing un-saved";
  }
}

}  // namespace smartml
