#include "src/data/arff.h"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "src/common/strings.h"

namespace smartml {

namespace {

struct ArffAttribute {
  std::string name;
  bool nominal = false;
  std::vector<std::string> values;  // Nominal domain.
};

/// One ARFF name or value, with its quotes and escapes removed.
struct ArffToken {
  std::string text;
  /// A quoted '?' is a value; only a bare one marks a missing value.
  bool quoted = false;
};

bool IsArffSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Reads the token at s[*pos] after any whitespace: a quoted one (single or
/// double quotes, inside which a backslash escapes the next character and
/// \n, \r, \t spell those controls), or a bare one running up to the first
/// character of `stops`, trimmed. Leaves *pos past the token and the
/// whitespace after it.
Status ReadArffToken(std::string_view s, size_t* pos, std::string_view stops,
                     ArffToken* token) {
  size_t i = *pos;
  while (i < s.size() && IsArffSpace(s[i])) ++i;
  token->text.clear();
  token->quoted = i < s.size() && (s[i] == '\'' || s[i] == '"');
  if (token->quoted) {
    const char quote = s[i++];
    for (;; ++i) {
      if (i == s.size()) {
        return Status::InvalidArgument("ARFF: unterminated quoted token");
      }
      char c = s[i];
      if (c == quote) {
        ++i;
        break;
      }
      if (c == '\\' && i + 1 < s.size()) {
        c = s[++i];
        c = c == 'n' ? '\n' : c == 'r' ? '\r' : c == 't' ? '\t' : c;
      }
      token->text += c;
    }
  } else {
    const size_t end = std::min(s.find_first_of(stops, i), s.size());
    token->text = StripAsciiWhitespace(s.substr(i, end - i));
    i = end;
  }
  while (i < s.size() && IsArffSpace(s[i])) ++i;
  *pos = i;
  return Status::OK();
}

/// Splits a comma-separated ARFF list (a data row, or a nominal domain
/// without its braces). A blank list has no tokens.
StatusOr<std::vector<ArffToken>> SplitArffList(std::string_view s) {
  std::vector<ArffToken> out;
  if (StripAsciiWhitespace(s).empty()) return out;
  size_t pos = 0;
  while (true) {
    SMARTML_RETURN_NOT_OK(ReadArffToken(s, &pos, ",", &out.emplace_back()));
    if (pos == s.size()) return out;
    if (s[pos] != ',') {
      return Status::InvalidArgument("ARFF: text after a quoted value");
    }
    ++pos;
  }
}

// Parses "@attribute name type" after the keyword.
StatusOr<ArffAttribute> ParseAttribute(std::string_view rest) {
  rest = StripAsciiWhitespace(rest);
  if (rest.empty()) {
    return Status::InvalidArgument("ARFF: empty @attribute declaration");
  }
  ArffToken name_token;
  size_t pos = 0;
  SMARTML_RETURN_NOT_OK(ReadArffToken(rest, &pos, " \t", &name_token));
  const std::string& name = name_token.text;
  std::string_view type = StripAsciiWhitespace(rest.substr(pos));
  if (type.empty()) {
    return Status::InvalidArgument("ARFF: attribute '" + name + "' has no type");
  }

  ArffAttribute attr;
  attr.name = name;
  if (type.front() == '{') {
    if (type.back() != '}') {
      return Status::InvalidArgument("ARFF: unterminated nominal domain for '" +
                                     name + "'");
    }
    attr.nominal = true;
    SMARTML_ASSIGN_OR_RETURN(std::vector<ArffToken> values,
                             SplitArffList(type.substr(1, type.size() - 2)));
    for (ArffToken& value : values) {
      attr.values.push_back(std::move(value.text));
    }
    if (attr.values.empty()) {
      return Status::InvalidArgument("ARFF: empty nominal domain for '" + name +
                                     "'");
    }
    return attr;
  }
  const std::string lower = AsciiToLower(type);
  if (lower == "numeric" || lower == "real" || lower == "integer") {
    attr.nominal = false;
    return attr;
  }
  if (lower == "string" || lower.rfind("date", 0) == 0) {
    return Status::Unimplemented("ARFF: attribute type '" + lower +
                                 "' not supported");
  }
  return Status::InvalidArgument("ARFF: unknown attribute type '" +
                                 std::string(type) + "'");
}

bool IsMissingToken(const ArffToken& token) {
  return !token.quoted && token.text == "?";
}

}  // namespace

StatusOr<Dataset> ReadArffString(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::vector<ArffAttribute> attrs;
  std::string relation = "arff";
  bool in_data = false;
  std::vector<std::vector<ArffToken>> rows;

  while (std::getline(in, line)) {
    std::string_view sv = StripAsciiWhitespace(line);
    if (sv.empty() || sv[0] == '%') continue;
    if (!in_data && sv[0] == '@') {
      const size_t space = sv.find_first_of(" \t");
      const std::string keyword =
          AsciiToLower(sv.substr(0, space == std::string_view::npos
                                        ? sv.size()
                                        : space));
      std::string_view rest =
          space == std::string_view::npos ? std::string_view() : sv.substr(space);
      if (keyword == "@relation") {
        ArffToken token;
        size_t pos = 0;
        SMARTML_RETURN_NOT_OK(ReadArffToken(rest, &pos, "", &token));
        relation = std::move(token.text);
      } else if (keyword == "@attribute") {
        SMARTML_ASSIGN_OR_RETURN(ArffAttribute attr, ParseAttribute(rest));
        attrs.push_back(std::move(attr));
      } else if (keyword == "@data") {
        in_data = true;
      } else {
        return Status::InvalidArgument("ARFF: unknown declaration '" + keyword +
                                       "'");
      }
      continue;
    }
    if (!in_data) {
      return Status::InvalidArgument("ARFF: data before @data section");
    }
    if (sv[0] == '{') {
      return Status::Unimplemented("ARFF: sparse instances not supported");
    }
    SMARTML_ASSIGN_OR_RETURN(std::vector<ArffToken> fields, SplitArffList(sv));
    if (fields.size() != attrs.size()) {
      return Status::InvalidArgument(
          StrFormat("ARFF: instance has %zu values, expected %zu",
                    fields.size(), attrs.size()));
    }
    rows.push_back(std::move(fields));
  }

  if (attrs.empty()) return Status::InvalidArgument("ARFF: no attributes");
  if (rows.empty()) return Status::InvalidArgument("ARFF: no instances");

  // Class attribute: the one named "class" (any case), else last nominal one.
  size_t target = attrs.size();
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (AsciiToLower(attrs[i].name) == "class") target = i;
  }
  if (target == attrs.size()) {
    for (size_t i = attrs.size(); i-- > 0;) {
      if (attrs[i].nominal) {
        target = i;
        break;
      }
    }
  }
  if (target == attrs.size()) {
    return Status::InvalidArgument(
        "ARFF: no nominal attribute usable as the class");
  }
  if (!attrs[target].nominal) {
    return Status::InvalidArgument("ARFF: class attribute must be nominal");
  }

  Dataset dataset(relation);
  const size_t n = rows.size();
  for (size_t c = 0; c < attrs.size(); ++c) {
    if (c == target) continue;
    std::vector<double> values(n);
    if (attrs[c].nominal) {
      std::unordered_map<std::string, double> code;
      for (size_t i = 0; i < attrs[c].values.size(); ++i) {
        code[attrs[c].values[i]] = static_cast<double>(i);
      }
      for (size_t r = 0; r < n; ++r) {
        if (IsMissingToken(rows[r][c])) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
          continue;
        }
        const std::string& cell = rows[r][c].text;
        auto it = code.find(cell);
        if (it == code.end()) {
          return Status::InvalidArgument("ARFF: value '" + cell +
                                         "' not in domain of '" +
                                         attrs[c].name + "'");
        }
        values[r] = it->second;
      }
      dataset.AddCategoricalFeature(attrs[c].name, std::move(values),
                                    attrs[c].values);
    } else {
      for (size_t r = 0; r < n; ++r) {
        if (IsMissingToken(rows[r][c])) {
          values[r] = std::numeric_limits<double>::quiet_NaN();
          continue;
        }
        const std::string& cell = rows[r][c].text;
        if (!ParseDouble(cell, &values[r])) {
          return Status::InvalidArgument("ARFF: non-numeric value '" + cell +
                                         "' in numeric attribute '" +
                                         attrs[c].name + "'");
        }
      }
      dataset.AddNumericFeature(attrs[c].name, std::move(values));
    }
  }

  std::vector<int> labels(n);
  std::unordered_map<std::string, int> code;
  for (size_t i = 0; i < attrs[target].values.size(); ++i) {
    code[attrs[target].values[i]] = static_cast<int>(i);
  }
  for (size_t r = 0; r < n; ++r) {
    const std::string& cell = rows[r][target].text;
    auto it = code.find(cell);
    if (it == code.end()) {
      return Status::InvalidArgument("ARFF: class value '" + cell +
                                     "' not in declared domain");
    }
    labels[r] = it->second;
  }
  dataset.SetLabels(std::move(labels), attrs[target].values);
  SMARTML_RETURN_NOT_OK(dataset.Validate());
  return dataset;
}

StatusOr<Dataset> ReadArffFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ReadArffString(buf.str());
}

namespace {

/// Appends `s` single-quoted, with a backslash before each quote and
/// backslash and \n, \r, \t for those controls, as ReadArffToken reads it.
void AppendQuotedArff(std::string* out, std::string_view s) {
  *out += '\'';
  for (char c : s) {
    switch (c) {
      case '\'':
      case '\\':
        *out += '\\';
        *out += c;
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        *out += c;
    }
  }
  *out += '\'';
}

/// Appends a nominal value or the relation name: bare when the reader takes
/// it back unchanged, else quoted. Empty, "?" (the missing marker) and any
/// text holding a separator, quote, brace, '%' or whitespace are quoted.
void AppendArffToken(std::string* out, std::string_view s) {
  if (s.empty() || s == "?" ||
      s.find_first_of(",'\"\\%{} \t\n\v\f\r") != std::string_view::npos) {
    AppendQuotedArff(out, s);
  } else {
    *out += s;
  }
}

}  // namespace

std::string WriteArffString(const Dataset& dataset) {
  std::string out = "@relation ";
  AppendArffToken(&out, dataset.name().empty() ? "smartml" : dataset.name());
  out += "\n\n";
  for (const auto& f : dataset.features()) {
    out += "@attribute ";
    AppendQuotedArff(&out, f.name);
    if (f.is_categorical()) {
      out += " {";
      for (size_t i = 0; i < f.categories.size(); ++i) {
        if (i > 0) out += ',';
        AppendArffToken(&out, f.categories[i]);
      }
      out += "}\n";
    } else {
      out += " numeric\n";
    }
  }
  out += "@attribute 'class' {";
  for (size_t i = 0; i < dataset.class_names().size(); ++i) {
    if (i > 0) out += ',';
    AppendArffToken(&out, dataset.class_names()[i]);
  }
  out += "}\n\n@data\n";
  for (size_t r = 0; r < dataset.NumRows(); ++r) {
    for (const auto& f : dataset.features()) {
      const double v = f.values[r];
      if (IsMissing(v)) {
        out += '?';
      } else if (f.is_categorical()) {
        AppendArffToken(&out, f.categories[static_cast<size_t>(v)]);
      } else {
        AppendDouble(&out, v, 17);
      }
      out += ',';
    }
    AppendArffToken(
        &out, dataset.class_names()[static_cast<size_t>(dataset.label(r))]);
    out += '\n';
  }
  out.shrink_to_fit();
  return out;
}

}  // namespace smartml
