// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches
// (`--paper`). Deliberately minimal: the benches take a handful of knobs
// (steps, sims, scale, csv path) and we avoid an external dependency.
//
// Numeric values are parsed *strictly* — the whole string must be a valid
// in-range number — and a malformed value is a hard error with a
// diagnostic (`flag --steps: invalid integer 'abc'`), never a silent
// misparse: `--budget-queries=10k` used to read as 10 and `--steps=abc`
// as 0. The underlying ParseInt64/ParseDouble/ParseBool helpers are
// exposed because the serve request protocol (src/serve/protocol.h)
// applies the same strictness to untrusted request fields, where the
// right failure mode is an error *response* instead of process exit.

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace grw {

/// Strict full-string signed-integer parse (base 10): empty strings,
/// leading whitespace, trailing junk ("10k"), and out-of-range values all
/// return nullopt — no silent truncation or clamping.
std::optional<int64_t> ParseInt64(const std::string& s);

/// Strict full-string floating-point parse. Rejects everything ParseInt64
/// rejects plus values that overflow to infinity and the literals
/// inf/nan (a flag or request field is never meaningfully non-finite).
std::optional<double> ParseDouble(const std::string& s);

/// Strict boolean: {1,true,yes,on} / {0,false,no,off}, nothing else.
/// Note an *empty* value is not a boolean — the Flags layer maps a
/// value-less switch (`--paper`) to true before this is consulted.
std::optional<bool> ParseBool(const std::string& s);

/// Parsed command-line flags.
class Flags {
 public:
  /// Parses argv. Unknown flags are collected verbatim; positional
  /// arguments (not starting with "--") are collected in order.
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;

  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// Strict: a present, non-empty value that is not a valid in-range
  /// integer prints `flag --name: invalid integer '...'` and exits(2).
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  /// GetInt with a range check: a value outside [min, max] prints
  /// `flag --name: value ... out of range [min, max]` and exits(2).
  int64_t GetIntInRange(const std::string& name, int64_t default_value,
                        int64_t min, int64_t max) const;
  /// Typed narrowing getters. The narrowing from int64 is *checked* —
  /// out-of-range values are a diagnostic + exit(2), never a silent
  /// truncation or sign flip. tools/lint_invariants.py bans the old
  /// `static_cast<T>(flags.GetInt(...))` pattern in favor of these.
  int GetInt32(const std::string& name, int default_value) const;
  unsigned GetUnsigned(const std::string& name, unsigned default_value) const;
  uint32_t GetUInt32(const std::string& name, uint32_t default_value) const;
  /// Rejects negative values (the int64 parse keeps "-1 means huge"
  /// impossible by construction).
  uint64_t GetUInt64(const std::string& name, uint64_t default_value) const;
  size_t GetSize(const std::string& name, size_t default_value) const;
  /// Strict like GetInt (`flag --name: invalid number '...'`).
  double GetDouble(const std::string& name, double default_value) const;
  /// Boolean: present without value means true; with a value, the value
  /// must satisfy ParseBool (diagnostic + exit(2) otherwise).
  bool GetBool(const std::string& name, bool default_value = false) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program_name() const { return program_name_; }

 private:
  std::string program_name_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace grw
