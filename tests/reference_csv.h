// A deliberately plain reference CSV reader, the oracle for ReadCsvString
// and ParseDouble (tests/csv_parity_test.cc). It shares no parsing code with
// src/data/csv.cc or src/common/strings.cc: it splits the text with
// std::getline, copies every field into its own std::string, scans each
// feature column twice (type inference, then conversion) and parses every
// number with std::strtod on a std::string copy.
//
// It implements the reader's whole contract: whitespace-only lines skipped,
// double-quoted fields with doubled quotes, '\r' dropped outside quotes,
// header names kept untrimmed, categories and labels trimmed, categories
// and classes coded in first-appearance order, missing tokens compared after
// trimming, target_column / target_index, generated f<i> names without a
// header, and the same error texts (row numbers count non-blank lines).
#ifndef SMARTML_TESTS_REFERENCE_CSV_H_
#define SMARTML_TESTS_REFERENCE_CSV_H_

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/status.h"
#include "src/data/csv.h"
#include "src/data/dataset.h"

namespace smartml {
namespace reference_csv {

inline std::string Trim(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return std::string(s.substr(begin, end - begin));
}

/// strtod over the whole trimmed token; false unless every byte is consumed.
inline bool ParseDouble(std::string_view s, double* out) {
  const std::string buf = Trim(s);
  if (buf.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

inline std::vector<std::string> SplitLine(const std::string& line,
                                          char delim) {
  std::vector<std::string> out;
  std::string field;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      out.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field += c;
    }
  }
  out.push_back(field);
  return out;
}

inline bool IsMissing(const std::string& cell, const CsvOptions& options) {
  const std::string trimmed = Trim(cell);
  return std::find(options.missing_tokens.begin(), options.missing_tokens.end(),
                   trimmed) != options.missing_tokens.end();
}

inline std::string Format(const char* fmt, size_t a, size_t b = 0,
                          size_t c = 0) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

inline StatusOr<Dataset> ReadCsv(const std::string& text,
                                 const CsvOptions& options = {}) {
  std::vector<std::vector<std::string>> records;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (Trim(line).empty()) continue;
    records.push_back(SplitLine(line, options.delimiter));
  }
  if (records.empty()) {
    return Status::InvalidArgument("CSV: no data rows");
  }

  std::vector<std::string> header;
  size_t first_data = 0;
  if (options.has_header) {
    header = records[0];
    first_data = 1;
  } else {
    for (size_t i = 0; i < records[0].size(); ++i) {
      header.push_back("f" + std::to_string(i));
    }
  }
  const size_t num_cols = header.size();
  if (first_data >= records.size()) {
    return Status::InvalidArgument("CSV: header but no data rows");
  }
  for (size_t r = first_data; r < records.size(); ++r) {
    if (records[r].size() != num_cols) {
      return Status::InvalidArgument(
          Format("CSV: row %zu has %zu fields, expected %zu", r,
                 records[r].size(), num_cols));
    }
  }

  size_t target = num_cols - 1;
  if (!options.target_column.empty()) {
    auto it = std::find(header.begin(), header.end(), options.target_column);
    if (it == header.end()) {
      return Status::NotFound("CSV: target column '" + options.target_column +
                              "' not in header");
    }
    target = static_cast<size_t>(it - header.begin());
  } else if (options.target_index >= 0) {
    if (static_cast<size_t>(options.target_index) >= num_cols) {
      return Status::InvalidArgument("CSV: target_index out of range");
    }
    target = static_cast<size_t>(options.target_index);
  }

  const size_t num_rows = records.size() - first_data;
  Dataset dataset;
  for (size_t c = 0; c < num_cols; ++c) {
    if (c == target) continue;
    bool numeric = true;
    for (size_t r = 0; r < num_rows; ++r) {
      const std::string& cell = records[first_data + r][c];
      double v;
      if (!IsMissing(cell, options) && !ParseDouble(cell, &v)) {
        numeric = false;
        break;
      }
    }
    std::vector<double> values(num_rows);
    if (numeric) {
      for (size_t r = 0; r < num_rows; ++r) {
        const std::string& cell = records[first_data + r][c];
        if (IsMissing(cell, options)) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
        } else {
          ParseDouble(cell, &values[r]);
        }
      }
      dataset.AddNumericFeature(header[c], std::move(values));
    } else {
      std::vector<std::string> categories;
      std::unordered_map<std::string, double> codes;
      for (size_t r = 0; r < num_rows; ++r) {
        const std::string& cell = records[first_data + r][c];
        if (IsMissing(cell, options)) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
          continue;
        }
        const std::string key = Trim(cell);
        auto it = codes.find(key);
        if (it == codes.end()) {
          it = codes.emplace(key, static_cast<double>(categories.size())).first;
          categories.push_back(key);
        }
        values[r] = it->second;
      }
      dataset.AddCategoricalFeature(header[c], std::move(values),
                                    std::move(categories));
    }
  }

  std::vector<std::string> raw_labels(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const std::string& cell = records[first_data + r][target];
    if (IsMissing(cell, options)) {
      return Status::InvalidArgument(
          Format("CSV: missing target value at data row %zu", r));
    }
    raw_labels[r] = Trim(cell);
  }
  dataset.SetLabelsFromStrings(raw_labels);
  Status valid = dataset.Validate();
  if (!valid.ok()) return valid;
  return dataset;
}

}  // namespace reference_csv
}  // namespace smartml

#endif  // SMARTML_TESTS_REFERENCE_CSV_H_
