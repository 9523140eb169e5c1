// Minimal JSON serialization and parsing for the SmartML REST API — the
// machine-readable half of the paper's "programming language agnostic ...
// REST APIs" claim.
//
// The writer produces correct string escaping and canonical number
// formatting; the reader is a small recursive-descent parser used for the
// structured request bodies of the v1 API (e.g. POST /v1/select).
#ifndef SMARTML_API_JSON_H_
#define SMARTML_API_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/smartml.h"
#include "src/kb/knowledge_base.h"
#include "src/metafeatures/metafeatures.h"

namespace smartml {

/// Tiny streaming JSON writer. Usage:
///   JsonWriter w;
///   w.BeginObject();
///   w.Key("name"); w.String("abalone");
///   w.Key("values"); w.BeginArray(); w.Number(1.5); w.EndArray();
///   w.EndObject();
///   std::string out = std::move(w).Take();
class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();
  /// Object key (must be followed by exactly one value).
  void Key(std::string_view key);
  void String(std::string_view value);
  void Number(double value);
  void Int(int64_t value);
  void Bool(bool value);
  void Null();
  /// Splices pre-serialized JSON in value position (caller guarantees
  /// validity) — used to embed stored result documents without reparsing.
  void Raw(const std::string& json);

  std::string Take() && { return std::move(out_); }
  const std::string& str() const { return out_; }

  /// Escapes a string per RFC 8259 (without surrounding quotes).
  static std::string Escape(std::string_view s);

 private:
  void MaybeComma();
  /// Appends `"` + Escape(s) + `"` to out_ without a temporary.
  void AppendQuoted(std::string_view s);

  std::string out_;
  std::vector<bool> needs_comma_;  // Per open container.
  bool after_key_ = false;
};

/// Serializes a full experiment result (the Figure 3 output, machine
/// readable).
std::string ResultToJson(const SmartMlResult& result);

/// Serializes algorithm nominations (selection-only responses).
std::string NominationsToJson(const std::vector<Nomination>& nominations);

/// Serializes the 25 meta-features as {"name": value, ...}.
std::string MetaFeaturesToJson(const MetaFeatureVector& mf);

/// Serializes the knowledge base (records, per-algorithm bests).
std::string KbToJson(const KnowledgeBase& kb);

/// Serializes a hyperparameter configuration as a flat object.
std::string ConfigToJson(const ParamConfig& config);

/// A parsed JSON value (RFC 8259 subset: no \uXXXX surrogate pairs beyond
/// the BMP). Object member order is preserved; duplicate keys keep the last
/// occurrence on lookup.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_bool() const { return kind == Kind::kBool; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_object() const { return kind == Kind::kObject; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses a complete JSON document (trailing non-whitespace is an error).
StatusOr<JsonValue> ParseJson(const std::string& text);

}  // namespace smartml

#endif  // SMARTML_API_JSON_H_
