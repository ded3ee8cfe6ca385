// Minimal JSON support for the serve protocol (src/serve/protocol.h).
//
// The daemon answers every request with one single-line JSON object, and
// the `grw query` client, the load generator, and the tests all need to
// read those lines back — so this file provides both directions:
//
//   * a writer side (AppendJsonEscaped / JsonQuote / JsonNumber) with
//     correct string escaping, including \u00XX for control bytes, and
//     %.17g numbers so doubles survive a parse/print round trip
//     bit-exactly;
//   * a recursive-descent parser for the subset the protocol emits
//     (null, bool, finite numbers, strings, arrays, objects).
//
// Parsed numbers keep their *raw text* next to the converted double, so a
// client that wants to echo the server's estimate bit-for-bit (the CI
// smoke diffs `grw query --raw` against `grw estimate --raw`) can print
// the original bytes instead of re-formatting.
//
// Deliberately not a general-purpose library: duplicate object keys keep
// the last value, depth is capped, and numbers outside double range fail
// the parse.

#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace grw::serve {

/// Appends `s` to `out` JSON-escaped (quote, backslash, \n, \t, \r, and
/// \u00XX for every other byte below 0x20) without surrounding quotes.
void AppendJsonEscaped(std::string& out, std::string_view s);

/// `s` as a quoted, escaped JSON string literal.
std::string JsonQuote(std::string_view s);

/// A finite double as %.17g (round-trips bit-exactly); inf/nan become
/// `null` so one bad metric cannot make a response unparseable.
std::string JsonNumber(double v);

/// One parsed JSON value. A tagged struct rather than a variant keeps the
/// accessors trivial for the handful of call sites.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;

  bool boolean = false;
  double number = 0.0;
  std::string raw;  // numbers: the original text, for bit-exact echo
  std::string str;  // strings: the unescaped content
  std::vector<JsonValue> items;                            // arrays
  std::vector<std::pair<std::string, JsonValue>> fields;   // objects

  /// Object lookup; nullptr when absent or this is not an object.
  const JsonValue* Find(std::string_view key) const;

  bool IsTrue() const { return type == Type::kBool && boolean; }
};

/// Parses one complete JSON document; trailing non-whitespace rejects.
/// Strict: leading-zero numbers, \u surrogate escapes, non-finite
/// numbers and nesting deeper than 32 levels reject too.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace grw::serve
