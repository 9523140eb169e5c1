#include "src/common/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

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
  size_t begin = 0;
  while (true) {
    // Fast path: a field without quotes or '\r' is a view.
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

std::vector<std::string> SplitCsvLine(std::string_view line, char delim) {
  std::vector<std::string_view> fields;
  std::deque<std::string> owned;
  SplitCsvRecord(line, delim, &fields, &owned);
  return {fields.begin(), fields.end()};
}

std::string_view StripAsciiWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

namespace {

/// True for -?digits[.digits][(e|E)[+-]digits], the only spellings handed
/// to std::from_chars; strtod takes everything else.
bool IsPlainDecimal(std::string_view s) {
  size_t i = 0;
  auto digits = [&] {
    const size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i > start;
  };
  if (i < s.size() && s[i] == '-') ++i;
  if (!digits()) return false;
  if (i < s.size() && s[i] == '.') {
    ++i;
    if (!digits()) return false;
  }
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    if (!digits()) return false;
  }
  return i == s.size();
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  s = StripAsciiWhitespace(s);
  if (s.empty()) return false;
  // Both parsers round correctly, so the fast path keeps every bit; it
  // defers to strtod on anything it does not consume whole without error
  // (out-of-range values included).
  if (IsPlainDecimal(s)) {
    double v = 0.0;
    const auto [end, error] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (error == std::errc() && end == s.data() + s.size()) {
      *out = v;
      return true;
    }
  }
  const std::string buf(s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return false;
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
