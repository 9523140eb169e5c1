#include "src/api/json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "src/common/strings.h"

namespace smartml {

void JsonWriter::MaybeComma() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!needs_comma_.empty()) {
    if (needs_comma_.back()) out_ += ",";
    needs_comma_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  MaybeComma();
  out_ += "{";
  needs_comma_.push_back(false);
}

void JsonWriter::EndObject() {
  out_ += "}";
  needs_comma_.pop_back();
}

void JsonWriter::BeginArray() {
  MaybeComma();
  out_ += "[";
  needs_comma_.push_back(false);
}

void JsonWriter::EndArray() {
  out_ += "]";
  needs_comma_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  MaybeComma();
  AppendQuoted(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  MaybeComma();
  AppendQuoted(value);
}

void JsonWriter::Number(double value) {
  MaybeComma();
  if (!std::isfinite(value)) {
    out_ += "null";  // JSON has no NaN/Inf.
  } else {
    AppendDouble(&out_, value, 12);
  }
}

void JsonWriter::Int(int64_t value) {
  MaybeComma();
  AppendInt(&out_, value);
}

void JsonWriter::Bool(bool value) {
  MaybeComma();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  MaybeComma();
  out_ += "null";
}

void JsonWriter::Raw(const std::string& json) {
  MaybeComma();
  out_ += json;
}

namespace {

/// True when any of the 8 bytes packed in `word` is below 0x20, '"' or
/// '\\': the exact any-byte tests of "Bit Twiddling Hacks" (haszero, and
/// hasless for n <= 128), with no byte order assumed.
bool WordNeedsEscape(uint64_t word) {
  constexpr uint64_t kOnes = 0x0101010101010101ULL;
  constexpr uint64_t kHighs = 0x8080808080808080ULL;
  auto has_zero = [](uint64_t v) { return (v - kOnes) & ~v & kHighs; };
  const uint64_t below_space = (word - kOnes * 0x20) & ~word & kHighs;
  return (below_space | has_zero(word ^ (kOnes * '"')) |
          has_zero(word ^ (kOnes * '\\'))) != 0;
}

/// Appends the RFC 8259 escape of a byte below 0x20, '"' or '\\'.
void AppendEscape(unsigned char c, std::string* out) {
  switch (c) {
    case '"':
      *out += "\\\"";
      break;
    case '\\':
      *out += "\\\\";
      break;
    case '\b':
      *out += "\\b";
      break;
    case '\f':
      *out += "\\f";
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
    default: {
      static constexpr char kHex[] = "0123456789abcdef";
      const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                             kHex[c & 0xF]};
      out->append(escape, sizeof(escape));
    }
  }
}

/// Appends `s` escaped per RFC 8259 to *out: clean 8-byte words are skipped
/// whole, and runs of bytes that need no escape are copied in bulk.
void AppendEscaped(std::string_view s, std::string* out) {
  size_t run = 0;
  size_t i = 0;
  while (i < s.size()) {
    if (s.size() - i >= 8) {
      uint64_t word;
      std::memcpy(&word, s.data() + i, sizeof(word));
      if (!WordNeedsEscape(word)) {
        i += 8;
        continue;
      }
    }
    for (const size_t stop = std::min(s.size(), i + 8); i < stop; ++i) {
      const unsigned char c = static_cast<unsigned char>(s[i]);
      if (c >= 0x20 && c != '"' && c != '\\') continue;
      out->append(s.data() + run, i - run);
      run = i + 1;
      AppendEscape(c, out);
    }
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

void JsonWriter::AppendQuoted(std::string_view s) {
  // One growth step for a long string (an upload), not one per doubling.
  out_.reserve(out_.size() + s.size() + 2);
  out_ += '"';
  AppendEscaped(s, &out_);
  out_ += '"';
}

std::string JsonWriter::Escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

namespace {

void WriteConfig(JsonWriter* w, const ParamConfig& config) {
  w->BeginObject();
  for (const auto& [key, value] : config.values()) {
    w->Key(key);
    if (const double* d = std::get_if<double>(&value)) {
      w->Number(*d);
    } else if (const int64_t* i = std::get_if<int64_t>(&value)) {
      w->Int(*i);
    } else {
      w->String(std::get<std::string>(value));
    }
  }
  w->EndObject();
}

void WriteNomination(JsonWriter* w, const Nomination& nomination) {
  w->BeginObject();
  w->Key("algorithm");
  w->String(nomination.algorithm);
  w->Key("score");
  w->Number(nomination.score);
  w->Key("warm_start_configs");
  w->BeginArray();
  for (const auto& config : nomination.warm_start_configs) {
    WriteConfig(w, config);
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace

std::string ConfigToJson(const ParamConfig& config) {
  JsonWriter w;
  WriteConfig(&w, config);
  return std::move(w).Take();
}

std::string MetaFeaturesToJson(const MetaFeatureVector& mf) {
  JsonWriter w;
  w.BeginObject();
  const auto& names = MetaFeatureNames();
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    w.Key(names[i]);
    w.Number(mf[i]);
  }
  w.EndObject();
  return std::move(w).Take();
}

std::string NominationsToJson(const std::vector<Nomination>& nominations) {
  JsonWriter w;
  w.BeginArray();
  for (const auto& nomination : nominations) {
    WriteNomination(&w, nomination);
  }
  w.EndArray();
  return std::move(w).Take();
}

namespace {

/// Writes the spans whose parent is `parent` (children in pre-order), each
/// with its own nested "children" array. The flat list is small (tens of
/// spans), so the quadratic child scan is irrelevant.
void WriteTraceChildren(JsonWriter* w, const std::vector<TraceSpan>& spans,
                        int parent) {
  w->BeginArray();
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& span = spans[i];
    if (span.parent != parent) continue;
    w->BeginObject();
    w->Key("name");
    w->String(span.name);
    w->Key("start_seconds");
    w->Number(span.start_seconds);
    w->Key("duration_seconds");
    w->Number(span.duration_seconds);
    w->Key("children");
    WriteTraceChildren(w, spans, static_cast<int>(i));
    w->EndObject();
  }
  w->EndArray();
}

}  // namespace

std::string ResultToJson(const SmartMlResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.Key("dataset");
  w.String(result.dataset_name);
  w.Key("used_meta_learning");
  w.Bool(result.used_meta_learning);
  w.Key("selected_features");
  w.BeginArray();
  for (const auto& name : result.selected_features) w.String(name);
  w.EndArray();
  w.Key("meta_features");
  w.BeginObject();
  const auto& names = MetaFeatureNames();
  for (size_t i = 0; i < kNumMetaFeatures; ++i) {
    w.Key(names[i]);
    w.Number(result.meta_features[i]);
  }
  w.EndObject();
  if (result.has_landmarks) {
    w.Key("landmarks");
    w.BeginObject();
    const auto& lm_names = LandmarkerNames();
    for (size_t i = 0; i < kNumLandmarkers; ++i) {
      w.Key(lm_names[i]);
      w.Number(result.landmarks[i]);
    }
    w.EndObject();
  }
  w.Key("nominations");
  w.BeginArray();
  for (const auto& nomination : result.nominations) {
    WriteNomination(&w, nomination);
  }
  w.EndArray();
  w.Key("algorithms");
  w.BeginArray();
  for (const auto& run : result.per_algorithm) {
    w.BeginObject();
    w.Key("algorithm");
    w.String(run.algorithm);
    w.Key("validation_accuracy");
    w.Number(run.validation_accuracy);
    w.Key("cv_error");
    w.Number(run.tuning_cost);
    w.Key("evaluations");
    w.Int(static_cast<int64_t>(run.evaluations));
    w.Key("seconds");
    w.Number(run.seconds);
    w.Key("best_config");
    WriteConfig(&w, run.best_config);
    w.EndObject();
  }
  w.EndArray();
  w.Key("degraded");
  w.Bool(result.degraded);
  w.Key("failed_candidates");
  w.BeginArray();
  for (const auto& failure : result.failed_candidates) {
    w.BeginObject();
    w.Key("algorithm");
    w.String(failure.algorithm);
    w.Key("error");
    w.String(failure.error);
    w.EndObject();
  }
  w.EndArray();
  w.Key("best_algorithm");
  w.String(result.best_algorithm);
  w.Key("best_config");
  WriteConfig(&w, result.best_config);
  w.Key("best_validation_accuracy");
  w.Number(result.best_validation_accuracy);
  w.Key("ensemble");
  if (result.ensemble != nullptr) {
    w.BeginObject();
    w.Key("members");
    w.Int(static_cast<int64_t>(result.ensemble->NumMembers()));
    w.Key("validation_accuracy");
    w.Number(result.ensemble_validation_accuracy);
    w.EndObject();
  } else {
    w.Null();
  }
  w.Key("importances");
  w.BeginArray();
  for (const auto& fi : result.importances) {
    w.BeginObject();
    w.Key("feature");
    w.String(fi.feature);
    w.Key("importance");
    w.Number(fi.importance);
    w.EndObject();
  }
  w.EndArray();
  w.Key("trace");
  WriteTraceChildren(&w, result.trace, /*parent=*/-1);
  w.Key("total_seconds");
  w.Number(result.total_seconds);
  w.EndObject();
  return std::move(w).Take();
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const JsonValue* found = nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) found = &v;  // Last duplicate wins.
  }
  return found;
}

namespace {

// Recursive-descent JSON parser over a string. Depth-limited so hostile
// request bodies cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> Parse() {
    SkipWhitespace();
    JsonValue value;
    SMARTML_RETURN_NOT_OK(ParseValue(&value, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(
        StrFormat("json: %s (at offset %zu)", message.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        out->kind = JsonValue::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      SMARTML_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipWhitespace();
      JsonValue value;
      SMARTML_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      JsonValue value;
      SMARTML_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return Error("dangling escape");
        const char escape = text_[pos_ + 1];
        pos_ += 2;
        switch (escape) {
          case '"': *out += '"'; break;
          case '\\': *out += '\\'; break;
          case '/': *out += '/'; break;
          case 'b': *out += '\b'; break;
          case 'f': *out += '\f'; break;
          case 'n': *out += '\n'; break;
          case 'r': *out += '\r'; break;
          case 't': *out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Error("bad \\u escape");
            }
            pos_ += 4;
            // UTF-8 encode (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              *out += static_cast<char>(code);
            } else if (code < 0x800) {
              *out += static_cast<char>(0xC0 | (code >> 6));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              *out += static_cast<char>(0xE0 | (code >> 12));
              *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              *out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Error("unknown escape");
        }
        continue;
      }
      if (c < 0x20) return Error("raw control character in string");
      *out += static_cast<char>(c);
      ++pos_;
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    // JSON has no infinities: a literal that overflows a double is refused
    // rather than read as one.
    if (pos_ == start ||
        !ParseDouble(text_.substr(start, pos_ - start), &value) ||
        !std::isfinite(value)) {
      pos_ = start;
      return Error("invalid number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string KbToJson(const KnowledgeBase& kb) {
  // Snapshot so the dump stays consistent while runs commit results.
  const std::vector<KbRecord> records = kb.SnapshotRecords();
  JsonWriter w;
  w.BeginObject();
  w.Key("num_records");
  w.Int(static_cast<int64_t>(records.size()));
  w.Key("records");
  w.BeginArray();
  for (const auto& record : records) {
    w.BeginObject();
    w.Key("dataset");
    w.String(record.dataset_name);
    w.Key("meta_features");
    w.BeginArray();
    for (double v : record.meta_features) w.Number(v);
    w.EndArray();
    w.Key("results");
    w.BeginArray();
    for (const auto& result : record.results) {
      w.BeginObject();
      w.Key("algorithm");
      w.String(result.algorithm);
      w.Key("accuracy");
      w.Number(result.accuracy);
      w.Key("config");
      WriteConfig(&w, result.best_config);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).Take();
}

}  // namespace smartml
