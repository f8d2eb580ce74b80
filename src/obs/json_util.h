// Minimal JSON helpers for the observability layer: string escaping for
// the Chrome-trace / metrics serializers, and one small dependency-free
// recursive-descent parser, so the CLI can read back the documents this
// layer writes (audit ledgers, baselines) and tests can check emitted
// documents before they are handed to external viewers (Perfetto,
// chrome://tracing).

#ifndef ATMX_OBS_JSON_UTIL_H_
#define ATMX_OBS_JSON_UTIL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace atmx::obs {

// Escapes `s` for embedding inside a JSON string literal (without the
// surrounding quotes): backslash, quote, and control characters.
std::string EscapeJson(std::string_view s);

// Strict well-formedness check over one JSON document (object, array,
// string, number, true/false/null): ParseJson with the value discarded.
// Returns true iff the whole input is exactly one valid value; on failure
// `error` (if non-null) describes the first problem and its byte offset.
bool JsonWellFormed(std::string_view text, std::string* error = nullptr);

// One parsed JSON value. Numbers are held as double (the documents this
// layer emits never need 64-bit-exact integers beyond 2^53); object
// members keep insertion order and are looked up linearly — documents
// here are small and schema-known.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> members;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }
  bool is_bool() const { return kind == Kind::kBool; }

  // Object member lookup; nullptr when absent or when this is not an
  // object.
  const JsonValue* Find(std::string_view key) const;

  // Typed member getters with fallbacks for optional schema fields.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string_view fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
};

// Parses exactly one JSON document. Invalid input yields
// kInvalidArgument with the first problem and its byte offset.
[[nodiscard]] Result<JsonValue> ParseJson(std::string_view text);

// The git sha benchmark and audit documents are stamped with: the
// ATMX_GIT_SHA environment variable (CI exports it), "unknown" when
// unset. Shared by BenchReporter and AuditLedger so every emitted
// document carries the same provenance key.
std::string GitShaFromEnv();

}  // namespace atmx::obs

#endif  // ATMX_OBS_JSON_UTIL_H_
