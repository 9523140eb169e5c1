#include "src/common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace smartml {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

void SplitCsvRecord(std::string_view line, char delim,
                    std::vector<std::string_view>* fields,
                    std::deque<std::string>* owned) {
  // Fast path: with no quote and no '\r' but a CRLF's trailing one (which
  // is dropped, unless '\r' is the delimiter), every field is a view, and
  // the record splits by memchr (string_view::find).
  std::string_view bare = line;
  if (delim != '\r' && !bare.empty() && bare.back() == '\r') {
    bare.remove_suffix(1);
  }
  if (bare.find('"') == std::string_view::npos &&
      bare.find('\r') == std::string_view::npos) {
    size_t begin = 0;
    for (size_t end; (end = bare.find(delim, begin)) != std::string_view::npos;
         begin = end + 1) {
      fields->push_back(bare.substr(begin, end - begin));
    }
    fields->push_back(bare.substr(begin));
    return;
  }
  size_t begin = 0;
  while (true) {
    // A field without quotes or '\r' is still a view.
    size_t i = begin;
    while (i < line.size() && line[i] != delim && line[i] != '"' &&
           line[i] != '\r') {
      ++i;
    }
    if (i < line.size() && (line[i] == '"' || line[i] == '\r')) {
      std::string& field = owned->emplace_back(line.substr(begin, i - begin));
      bool in_quotes = false;
      for (; i < line.size(); ++i) {
        const char c = line[i];
        if (in_quotes) {
          if (c != '"') {
            field += c;
          } else if (i + 1 < line.size() && line[i + 1] == '"') {
            field += '"';
            ++i;
          } else {
            in_quotes = false;
          }
        } else if (c == '"') {
          in_quotes = true;
        } else if (c == delim) {
          break;
        } else if (c != '\r') {
          field += c;
        }
      }
      fields->push_back(field);
    } else {
      fields->push_back(line.substr(begin, i - begin));
    }
    if (i == line.size()) break;
    begin = i + 1;
  }
}

namespace {

/// std::isspace in the "C" locale, the only one the program runs in.
bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

}  // namespace

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsAsciiSpace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsAsciiSpace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  return ParseStrippedDouble(StripAsciiWhitespace(s), out);
}

bool ParseStrippedDouble(std::string_view s, double* out) {
  if (s.empty()) return false;
  // from_chars reads a subset of strtod's grammar (no '+', hex or leading
  // space), and both round correctly, so a finite value it reads whole has
  // strtod's bits. Anything else goes to strtod: out-of-range values, and
  // inf and nan spellings, whose NaN payloads from_chars does not keep.
  double v = 0.0;
  const auto [end, error] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (error == std::errc() && end == s.data() + s.size() && std::isfinite(v)) {
    *out = v;
    return true;
  }
  const std::string buf(s);
  char* strtod_end = nullptr;
  v = std::strtod(buf.c_str(), &strtod_end);
  if (strtod_end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

std::string Join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += sep;
    out += items[i];
  }
  return out;
}

void AppendDouble(std::string* out, double value, int precision) {
  // "-d.<16 digits>e-308" is the longest spelling at precision 17.
  char buf[32];
  const auto [end, error] =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general,
                    precision);
  if (error == std::errc()) out->append(buf, end);
}

void AppendFixed0(std::string* out, double value) {
  // A sign and the 309 digits of DBL_MAX.
  char buf[std::numeric_limits<double>::max_exponent10 + 2];
  const auto [end, error] = std::to_chars(
      buf, buf + sizeof(buf), value, std::chars_format::fixed, 0);
  if (error == std::errc()) out->append(buf, end);
}

void AppendInt(std::string* out, int64_t value) {
  char buf[std::numeric_limits<int64_t>::digits10 + 2];
  const auto [end, error] = std::to_chars(buf, buf + sizeof(buf), value);
  if (error == std::errc()) out->append(buf, end);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  }
  va_end(args);
  return out;
}

}  // namespace smartml
