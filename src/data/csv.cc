#include "src/data/csv.h"

#include <algorithm>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "src/common/strings.h"

namespace smartml {

namespace {

/// The non-blank records of a CSV text, split by SplitCsvRecord: fields view
/// the text or `owned`.
struct CsvTable {
  std::vector<std::string_view> fields;
  /// Record r spans fields[starts[r], starts[r + 1]).
  std::vector<size_t> starts;
  std::deque<std::string> owned;

  size_t NumRecords() const { return starts.size() - 1; }
  size_t Size(size_t r) const { return starts[r + 1] - starts[r]; }
  std::string_view Field(size_t r, size_t c) const {
    return fields[starts[r] + c];
  }
};

CsvTable SplitRecords(std::string_view text, char delim) {
  // The line count and the first record's width size both tables once, so
  // a rectangular upload's fields are never copied as the vector grows. A
  // text holds at most one field per byte, plus one.
  size_t lines = 1;
  for (size_t pos = 0; (pos = text.find('\n', pos)) != std::string_view::npos;
       ++pos) {
    ++lines;
  }
  CsvTable table;
  table.starts.reserve(lines + 1);
  table.starts.push_back(0);
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(begin, end - begin);
    if (!StripAsciiWhitespace(line).empty()) {
      SplitCsvRecord(line, delim, &table.fields, &table.owned);
      if (table.starts.size() == 1) {
        table.fields.reserve(
            std::min(table.fields.size() * lines, text.size() + 1));
      }
      table.starts.push_back(table.fields.size());
    }
    begin = end + 1;
  }
  return table;
}

}  // namespace

StatusOr<Dataset> ReadCsvString(std::string_view text,
                                const CsvOptions& options) {
  const CsvTable table = SplitRecords(text, options.delimiter);
  if (table.NumRecords() == 0) {
    return Status::InvalidArgument("CSV: no data rows");
  }

  std::vector<std::string> header;
  size_t first_data = 0;
  if (options.has_header) {
    for (size_t c = 0; c < table.Size(0); ++c) {
      header.emplace_back(table.Field(0, c));
    }
    first_data = 1;
  } else {
    header.resize(table.Size(0));
    for (size_t i = 0; i < header.size(); ++i) {
      header[i] = StrFormat("f%zu", i);
    }
  }
  const size_t num_cols = header.size();
  if (first_data >= table.NumRecords()) {
    return Status::InvalidArgument("CSV: header but no data rows");
  }
  for (size_t r = first_data; r < table.NumRecords(); ++r) {
    if (table.Size(r) != num_cols) {
      return Status::InvalidArgument(
          StrFormat("CSV: row %zu has %zu fields, expected %zu", r,
                    table.Size(r), num_cols));
    }
  }

  // Resolve the target column.
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

  const size_t num_rows = table.NumRecords() - first_data;
  // The trimmed cell; *missing tells whether it is a missing token. A cell
  // longer than every token skips the compares.
  size_t longest_token = 0;
  for (const std::string& token : options.missing_tokens) {
    longest_token = std::max(longest_token, token.size());
  }
  auto cell = [&](size_t r, size_t c, bool* missing) {
    const std::string_view trimmed =
        StripAsciiWhitespace(table.Field(first_data + r, c));
    *missing = trimmed.size() <= longest_token &&
               std::find(options.missing_tokens.begin(),
                         options.missing_tokens.end(),
                         trimmed) != options.missing_tokens.end();
    return trimmed;
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  Dataset dataset;

  for (size_t c = 0; c < num_cols; ++c) {
    if (c == target) continue;
    // Each cell is parsed once: the column stays numeric until a
    // non-missing cell fails to parse.
    std::vector<double> values(num_rows);
    bool numeric = true;
    bool missing = false;
    for (size_t r = 0; r < num_rows && numeric; ++r) {
      const std::string_view trimmed = cell(r, c, &missing);
      if (missing) {
        values[r] = kNaN;
      } else {
        numeric = ParseStrippedDouble(trimmed, &values[r]);
      }
    }
    if (numeric) {
      dataset.AddNumericFeature(header[c], std::move(values));
      continue;
    }
    std::vector<std::string> categories;
    std::unordered_map<std::string_view, double> codes;
    for (size_t r = 0; r < num_rows; ++r) {
      const std::string_view key = cell(r, c, &missing);
      if (missing) {
        values[r] = kNaN;
        continue;
      }
      auto it = codes.find(key);
      if (it == codes.end()) {
        it = codes.emplace(key, static_cast<double>(categories.size())).first;
        categories.emplace_back(key);
      }
      values[r] = it->second;
    }
    dataset.AddCategoricalFeature(header[c], std::move(values),
                                  std::move(categories));
  }

  std::vector<std::string> raw_labels(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    bool missing = false;
    const std::string_view label = cell(r, target, &missing);
    if (missing) {
      return Status::InvalidArgument(
          StrFormat("CSV: missing target value at data row %zu", r));
    }
    raw_labels[r] = std::string(label);
  }
  dataset.SetLabelsFromStrings(raw_labels);
  SMARTML_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

StatusOr<Dataset> ReadCsvFile(const std::string& path,
                              const CsvOptions& options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  SMARTML_ASSIGN_OR_RETURN(Dataset d, ReadCsvString(buf.str(), options));
  d.set_name(path);
  return d;
}

namespace {

void AppendCsvField(std::string* out, const std::string& s, char delimiter) {
  if (s.find(delimiter) == std::string::npos &&
      s.find('"') == std::string::npos && s.find('\n') == std::string::npos) {
    *out += s;
    return;
  }
  *out += '"';
  for (char c : s) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

}  // namespace

std::string WriteCsvString(const Dataset& dataset, char delimiter) {
  std::string out;
  for (const auto& f : dataset.features()) {
    AppendCsvField(&out, f.name, delimiter);
    out += delimiter;
  }
  out += "class\n";
  for (size_t r = 0; r < dataset.NumRows(); ++r) {
    for (const auto& f : dataset.features()) {
      const double v = f.values[r];
      if (IsMissing(v)) {
        out += '?';
      } else if (f.is_categorical()) {
        AppendCsvField(&out, f.categories[static_cast<size_t>(v)], delimiter);
      } else {
        AppendDouble(&out, v, 17);
      }
      out += delimiter;
    }
    AppendCsvField(
        &out, dataset.class_names()[static_cast<size_t>(dataset.label(r))],
        delimiter);
    out += '\n';
  }
  // Callers may hold the text for as long as a job lives: return it at its
  // size, not at the capacity growth left.
  out.shrink_to_fit();
  return out;
}

Status WriteCsvFile(const Dataset& dataset, const std::string& path,
                    char delimiter) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out << WriteCsvString(dataset, delimiter);
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace smartml
