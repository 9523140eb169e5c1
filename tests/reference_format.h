// Deliberately plain reference printers, the oracles for the to_chars number
// helpers in src/common/strings.h and the writers built on them
// (tests/format_parity_test.cc). They keep the spellings the library used
// before: every number goes through snprintf, and the CSV text through an
// ostringstream, exactly as WriteCsvString used to print it.
#ifndef SMARTML_TESTS_REFERENCE_FORMAT_H_
#define SMARTML_TESTS_REFERENCE_FORMAT_H_

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "src/data/dataset.h"

namespace smartml {
namespace reference_format {

/// printf's "%.<precision>g".
inline std::string G(double value, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

/// printf's "%.0f" (DBL_MAX has 309 integer digits).
inline std::string Fixed0(double value) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.0f", value);
  return buf;
}

/// printf's "%lld".
inline std::string Int(int64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return buf;
}

inline std::string EscapeCsv(const std::string& s, char delimiter) {
  if (s.find(delimiter) == std::string::npos &&
      s.find('"') == std::string::npos && s.find('\n') == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// The CSV text of `dataset`: header row, target as the last column named
/// "class", '?' for a missing cell, numbers as "%.17g".
inline std::string WriteCsv(const Dataset& dataset, char delimiter = ',') {
  std::ostringstream out;
  for (const auto& f : dataset.features()) {
    out << EscapeCsv(f.name, delimiter) << delimiter;
  }
  out << "class\n";
  for (size_t r = 0; r < dataset.NumRows(); ++r) {
    for (const auto& f : dataset.features()) {
      const double v = f.values[r];
      if (IsMissing(v)) {
        out << "?";
      } else if (f.is_categorical()) {
        out << EscapeCsv(f.categories[static_cast<size_t>(v)], delimiter);
      } else {
        out << G(v, 17);
      }
      out << delimiter;
    }
    out << EscapeCsv(
               dataset.class_names()[static_cast<size_t>(dataset.label(r))],
               delimiter)
        << "\n";
  }
  return out.str();
}

}  // namespace reference_format
}  // namespace smartml

#endif  // SMARTML_TESTS_REFERENCE_FORMAT_H_
