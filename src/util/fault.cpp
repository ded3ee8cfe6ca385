#include "util/fault.h"

#include <cstddef>
#include <cstdlib>
#include <mutex>  // std::once_flag only; locking goes through util/sync.h
#include <stdexcept>
#include <string_view>

#include "util/rng.h"
#include "util/sync.h"

namespace grw::fault {

namespace {

struct Clause {
  std::string pattern;  // exact name, "prefix*", or "*"
  bool probability = false;
  double p = 0.0;
  uint64_t nth = 0;
  uint64_t once_at = 0;
};

// All mutable module state hangs off one registry so Configure() and
// lazy site registration share a single lock.
struct Registry {
  Mutex mu;
  std::vector<FaultSite*> sites GRW_GUARDED_BY(mu);
  std::vector<Clause> clauses GRW_GUARDED_BY(mu);
  std::string spec GRW_GUARDED_BY(mu);
  uint64_t seed GRW_GUARDED_BY(mu) = 0;
  // Bumped by every Configure(); sites lazily re-resolve their triggers
  // when their cached epoch falls behind. Starts at 1 so sites (epoch 0)
  // resolve on their first Fire() even before any explicit Configure().
  std::atomic<uint64_t> epoch{1};
};

Registry& GetRegistry() {
  // Intentionally leaked: function-local static FaultSites in other
  // translation units deregister in their destructors at process exit,
  // which must never outrace the registry's own destruction.
  static Registry* registry = new Registry;
  return *registry;
}

std::once_flag g_env_once;

void EnsureConfigured() {
  // Lazily adopt the environment spec exactly once, unless a test
  // already installed a programmatic configuration.
  std::call_once(g_env_once, [] {
    Registry& r = GetRegistry();
    bool configured;
    {
      MutexLock lock(r.mu);
      configured = !r.spec.empty();
    }
    if (!configured) ConfigureFromEnv();
  });
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

uint64_t ParseCount(std::string_view text, const std::string& clause) {
  uint64_t value = 0;
  if (text.empty()) {
    throw std::runtime_error("fault spec: missing count in '" + clause + "'");
  }
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::runtime_error("fault spec: bad count in '" + clause + "'");
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value == 0) {
    throw std::runtime_error("fault spec: count must be >= 1 in '" + clause +
                             "'");
  }
  return value;
}

Clause ParseClause(std::string_view text) {
  const std::string clause(text);
  const size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0 || eq + 1 >= text.size()) {
    throw std::runtime_error(
        "fault spec: expected 'site=trigger', got '" + clause + "'");
  }
  Clause out;
  out.pattern = std::string(Trim(text.substr(0, eq)));
  const std::string_view trigger = Trim(text.substr(eq + 1));

  if (trigger.size() >= 2 && trigger[0] == 'p' &&
      (trigger[1] == '0' || trigger[1] == '1' || trigger[1] == '.')) {
    char* end = nullptr;
    const std::string num(trigger.substr(1));
    out.p = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0' || out.p < 0.0 || out.p > 1.0) {
      throw std::runtime_error(
          "fault spec: probability must be p<0..1> in '" + clause + "'");
    }
    out.probability = true;
  } else if (trigger.rfind("nth:", 0) == 0) {
    out.nth = ParseCount(trigger.substr(4), clause);
  } else if (trigger == "once") {
    out.once_at = 1;
  } else if (trigger.rfind("once:", 0) == 0) {
    out.once_at = ParseCount(trigger.substr(5), clause);
  } else {
    throw std::runtime_error("fault spec: unknown trigger '" +
                             std::string(trigger) + "' in '" + clause + "'");
  }
  return out;
}

std::vector<Clause> ParseSpec(const std::string& spec) {
  std::vector<Clause> clauses;
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    const std::string_view piece = Trim(
        std::string_view(spec).substr(start, end - start));
    if (!piece.empty()) clauses.push_back(ParseClause(piece));
    start = end + 1;
  }
  return clauses;
}

bool Matches(const std::string& pattern, const char* site) {
  if (pattern == "*") return true;
  if (!pattern.empty() && pattern.back() == '*') {
    const std::string_view prefix(pattern.data(), pattern.size() - 1);
    return std::string_view(site).substr(0, prefix.size()) == prefix;
  }
  return pattern == site;
}

uint64_t HashName(const char* name) {
  // FNV-1a, matching the flavor used for .grwb data checksums.
  uint64_t h = 1469598103934665603ull;
  for (const char* p = name; *p != '\0'; ++p) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(*p));
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void Configure(const std::string& spec, uint64_t seed) {
  std::vector<Clause> clauses = ParseSpec(spec);  // throws before locking
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.clauses = std::move(clauses);
  r.spec = spec;
  r.seed = seed;
  // New schedule: restart every site's ordinal at 1 and clear its fired
  // count, then publish the new epoch so Fire() re-resolves triggers.
  for (FaultSite* site : r.sites) {
    site->ResetScheduleLocked();
  }
  r.epoch.fetch_add(1, std::memory_order_release);
}

void ConfigureFromEnv() {
  const char* spec = std::getenv("GRW_FAULT_SPEC");
  const char* seed_text = std::getenv("GRW_FAULT_SEED");
  uint64_t seed = 0;
  if (seed_text != nullptr && *seed_text != '\0') {
    seed = std::strtoull(seed_text, nullptr, 10);
  }
  Configure(spec != nullptr ? spec : "", seed);
}

std::string ActiveSpec() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  return r.spec;
}

std::vector<SiteCounts> Snapshot() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  std::vector<SiteCounts> out;
  out.reserve(r.sites.size());
  for (const FaultSite* site : r.sites) {
    SiteCounts counts;
    counts.site = site->name();
    counts.calls = site->calls();
    counts.fired = site->fired();
    out.push_back(std::move(counts));
  }
  return out;
}

FaultSite::FaultSite(const char* name) : name_(name) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.sites.push_back(this);
}

FaultSite::~FaultSite() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  for (size_t i = 0; i < r.sites.size(); ++i) {
    if (r.sites[i] == this) {
      r.sites.erase(r.sites.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
}

void FaultSite::ResetScheduleLocked() {
  base_.store(calls_.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
  fired_.store(0, std::memory_order_relaxed);
}

void FaultSite::Resolve() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  // Threads that raced here for the same configuration resolve it once:
  // the losers must not rewrite triggers_ while the winner's callers
  // already read it without the lock.
  const uint64_t epoch = r.epoch.load(std::memory_order_relaxed);
  if (epoch_.load(std::memory_order_relaxed) == epoch) return;
  Triggers triggers;
  for (const Clause& clause : r.clauses) {
    if (!Matches(clause.pattern, name_)) continue;
    triggers.probability = clause.probability;
    triggers.p = clause.p;
    triggers.nth = clause.nth;
    triggers.once_at = clause.once_at;
    break;  // first matching clause wins
  }
  triggers_ = triggers;
  seed_ = r.seed;
  epoch_.store(epoch, std::memory_order_release);
}

bool FaultSite::Fire() {
  EnsureConfigured();
  Registry& r = GetRegistry();
  if (epoch_.load(std::memory_order_acquire) !=
      r.epoch.load(std::memory_order_acquire)) {
    Resolve();
  }

  const uint64_t total = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t ordinal = total - base_.load(std::memory_order_relaxed);

  bool fire = false;
  if (triggers_.once_at > 0 && ordinal == triggers_.once_at) fire = true;
  if (!fire && triggers_.nth > 0 && ordinal % triggers_.nth == 0) fire = true;
  if (!fire && triggers_.probability && triggers_.p > 0.0) {
    // Pure function of (seed, site, ordinal): the fault schedule per
    // site replays exactly from the seed at any thread count.
    uint64_t state =
        seed_ ^ HashName(name_) ^ (ordinal * 0x9e3779b97f4a7c15ull);
    const uint64_t h = SplitMix64(state);
    const double u =
        static_cast<double>(h >> 11) * 0x1.0p-53;  // uniform in [0, 1)
    fire = u < triggers_.p;
  }
  if (fire) fired_.fetch_add(1, std::memory_order_relaxed);
  return fire;
}

}  // namespace grw::fault
