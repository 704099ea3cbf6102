// Minimal JSON support for the observability subsystem.
//
// The emitters (Chrome trace export, metrics registry, bench reports) only
// need escaping and number formatting; the validating recursive-descent
// parser exists so tests and the ctest smoke target can check emitted files
// without a Python dependency. Not a general-purpose library: no comments,
// no trailing commas, UTF-8 passed through verbatim.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace mad::util {

/// Escapes `text` for inclusion inside a JSON string literal (quotes NOT
/// added): ", \, control characters -> \uXXXX or the short forms.
std::string json_escape(std::string_view text);

/// Formats a double the way our emitters do: fixed notation, up to 4
/// fractional digits, trailing zeros trimmed ("12.5", "3", "0.0001").
std::string json_number(double value);

/// One parsed JSON value. Object member order is preserved (emitted files
/// are deterministic, and tests assert on it).
class JsonValue {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_null() const { return kind == Kind::Null; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member named `key`, or nullptr (objects only).
  const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document. On failure returns Kind::Null and
/// fills `error` (when non-null) with a position-annotated message; trailing
/// non-whitespace input is an error. `ok` (when non-null) reports success —
/// needed to tell a parsed `null` document from a failure.
JsonValue parse_json(std::string_view text, std::string* error = nullptr,
                     bool* ok = nullptr);

}  // namespace mad::util
