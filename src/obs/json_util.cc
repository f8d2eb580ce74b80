#include "obs/json_util.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace atmx::obs {

std::string EscapeJson(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value
                                          : std::string(fallback);
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_value : fallback;
}

namespace {

// Recursive-descent parser over one document; every Parse* function
// leaves `pos` just past the value it consumed.
struct JsonParser {
  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  bool Fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  bool Expect(char c) {
    if (AtEnd() || text[pos] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Expect('"')) return false;
    out->clear();
    while (!AtEnd()) {
      const char c = text[pos];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c == '"') {
        ++pos;
        return true;
      }
      if (c == '\\') {
        ++pos;
        if (AtEnd()) return Fail("truncated escape");
        const char e = text[pos];
        switch (e) {
          case '"':
            *out += '"';
            break;
          case '\\':
            *out += '\\';
            break;
          case '/':
            *out += '/';
            break;
          case 'b':
            *out += '\b';
            break;
          case 'f':
            *out += '\f';
            break;
          case 'n':
            *out += '\n';
            break;
          case 'r':
            *out += '\r';
            break;
          case 't':
            *out += '\t';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              ++pos;
              if (AtEnd() ||
                  !std::isxdigit(static_cast<unsigned char>(text[pos]))) {
                return Fail("bad \\u escape");
              }
              const char h = text[pos];
              code = code * 16 +
                     static_cast<unsigned>(
                         h <= '9' ? h - '0'
                                  : (h | 0x20) - 'a' + 10);
            }
            // The serializers only emit \u escapes for control
            // characters; decode the BMP code point as UTF-8.
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
            return Fail("bad escape character");
        }
        ++pos;
        continue;
      }
      *out += c;
      ++pos;
    }
    return Fail("unterminated string");
  }

  bool ParseValue(JsonValue* out, int depth) {
    if (depth > 256) return Fail("nesting too deep");
    SkipWs();
    if (AtEnd()) return Fail("expected value");
    switch (Peek()) {
      case '{': {
        ++pos;
        out->kind = JsonValue::Kind::kObject;
        SkipWs();
        if (!AtEnd() && Peek() == '}') {
          ++pos;
          return true;
        }
        for (;;) {
          SkipWs();
          std::string key;
          if (!ParseString(&key)) return false;
          SkipWs();
          if (!Expect(':')) return false;
          JsonValue member;
          if (!ParseValue(&member, depth + 1)) return false;
          out->members.emplace_back(std::move(key), std::move(member));
          SkipWs();
          if (AtEnd()) return Fail("unterminated object");
          if (Peek() == ',') {
            ++pos;
            continue;
          }
          return Expect('}');
        }
      }
      case '[': {
        ++pos;
        out->kind = JsonValue::Kind::kArray;
        SkipWs();
        if (!AtEnd() && Peek() == ']') {
          ++pos;
          return true;
        }
        for (;;) {
          JsonValue element;
          if (!ParseValue(&element, depth + 1)) return false;
          out->array.push_back(std::move(element));
          SkipWs();
          if (AtEnd()) return Fail("unterminated array");
          if (Peek() == ',') {
            ++pos;
            continue;
          }
          return Expect(']');
        }
      }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = true;
        return ParseLiteral("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->bool_value = false;
        return ParseLiteral("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ParseLiteral("null");
      default:
        out->kind = JsonValue::Kind::kNumber;
        return ParseNumber(&out->number_value);
    }
  }

  // Checks the strict JSON number grammar, then converts the accepted
  // span with strtod (which accepts a superset).
  bool ParseNumber(double* out) {
    const std::size_t start = pos;
    if (!AtEnd() && text[pos] == '-') ++pos;
    if (!Digits()) return Fail("expected digits");
    if (!AtEnd() && text[pos] == '.') {
      ++pos;
      if (!Digits()) return Fail("expected fraction digits");
    }
    if (!AtEnd() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (!AtEnd() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!Digits()) return Fail("expected exponent digits");
    }
    const std::string span(text.substr(start, pos - start));
    *out = std::strtod(span.c_str(), nullptr);
    return true;
  }

  // Consumes a run of decimal digits; false when there is none.
  bool Digits() {
    const std::size_t start = pos;
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    return pos > start;
  }

  bool ParseLiteral(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return Fail("bad literal");
    pos += lit.size();
    return true;
  }
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  JsonParser parser;
  parser.text = text;
  JsonValue value;
  bool ok = parser.ParseValue(&value, 0);
  if (ok) {
    parser.SkipWs();
    if (!parser.AtEnd()) {
      ok = parser.Fail("trailing content after document");
    }
  }
  if (!ok) return Status::InvalidArgument("json: " + parser.error);
  return value;
}

bool JsonWellFormed(std::string_view text, std::string* error) {
  const Result<JsonValue> parsed = ParseJson(text);
  if (!parsed.ok() && error != nullptr) *error = parsed.status().message();
  return parsed.ok();
}

std::string GitShaFromEnv() {
  const char* sha = std::getenv("ATMX_GIT_SHA");
  return (sha != nullptr && sha[0] != '\0') ? std::string(sha) : "unknown";
}

}  // namespace atmx::obs
