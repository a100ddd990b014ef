#include "common/knobs.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <set>
#include <variant>

extern char** environ;

namespace ratel::knobs {

namespace {

enum class Type { kBool, kInt, kDouble, kString, kChoice, kList, kMap };

struct Knob {
  const char* name;
  Type type;
  const char* unset;  // what unset or empty means
  double min = 0;     // inclusive range of an int, a double or map values
  double max = 0;
  const char* choices = "";  // a choice's words, '|'-separated
};

constexpr double kIntMax = 2147483647.0;  // knobs that land in an `int`

// Every knob, grouped by the layer that applies it. README's
// "Environment knobs" documents each one.
constexpr Knob kTable[] = {
    // RatelTrainer::Create: ReplanConfig, CodecConfig specs (checked
    // there with MakeCodec), FaultConfig (flow names checked there) and
    // the async optimizer options.
    {"RATEL_REPLAN", Type::kBool, "0"},
    {"RATEL_REPLAN_THRESHOLD_PCT", Type::kDouble, "15", 0, 1e9},
    {"RATEL_REPLAN_HYSTERESIS", Type::kInt, "2", 1, 1e6},
    {"RATEL_REPLAN_COOLDOWN", Type::kInt, "3", 0, 1e6},
    {"RATEL_REPLAN_EWMA_ALPHA", Type::kDouble, "0.5", 1e-6, 1},
    {"RATEL_REPLAN_WINDOWS", Type::kInt, "32", 1, 1e6},
    {"RATEL_CODEC_PARAM_FETCH", Type::kString, "raw"},
    {"RATEL_CODEC_GRAD_STATE", Type::kString, "raw"},
    {"RATEL_CODEC_ACTIVATION_SPILL", Type::kString, "raw"},
    {"RATEL_CODEC_CHECKPOINT", Type::kString, "raw"},
    {"RATEL_CODEC_DEFERRED_STATE", Type::kString, "raw"},
    {"RATEL_FAULT_SEED", Type::kInt, "0", 0, 1e18},
    {"RATEL_FAULT_READ_ERROR_EVERY", Type::kInt, "0 (never)", 0, kIntMax},
    {"RATEL_FAULT_WRITE_ERROR_EVERY", Type::kInt, "0 (never)", 0, kIntMax},
    {"RATEL_FAULT_LATENCY_SPIKE_EVERY", Type::kInt, "0 (never)", 0, kIntMax},
    {"RATEL_FAULT_LATENCY_SPIKE_MS", Type::kDouble, "0", 0, 1e6},
    {"RATEL_FAULT_TORN_WRITE_EVERY", Type::kInt, "0 (never)", 0, kIntMax},
    {"RATEL_FAULT_DEAD_STRIPE", Type::kInt, "-1 (none)", -1, kIntMax},
    {"RATEL_FAULT_FLOWS", Type::kList, "all"},
    {"RATEL_FAULT_KEY_PREFIX", Type::kString, "all keys"},
    {"RATEL_ASYNC_OPTIM", Type::kBool, "0"},
    {"RATEL_ASYNC_HOT_FRACTION", Type::kDouble, "0.25", 0, 1},
    // JobManager::Submit, by job name.
    {"RATEL_TENANT_WEIGHT", Type::kMap, "1", 1, 1e6},
    {"RATEL_TENANT_DRAM_QUOTA", Type::kMap, "0 (unlimited)", 0, 1e18},
    {"RATEL_TENANT_INFLIGHT_QUOTA", Type::kMap, "0 (unlimited)", 0, 1e18},
    // Process-wide, resolved on first use.
    {"RATEL_SIMD", Type::kChoice, "auto", 0, 0, "auto|avx2|scalar"},
    {"RATEL_THREADS", Type::kInt, "hardware threads, at most 16", 1,
     kIntMax},
    {"RATEL_OVERSUBSCRIBE", Type::kBool, "0"},
    // The bench/ harnesses.
    {"RATEL_BENCH_SMOKE", Type::kBool, "0"},
};

using Value = std::variant<bool, int64_t, double, std::string,
                           std::vector<std::string>,
                           std::map<std::string, int64_t>>;

const Knob* Find(std::string_view name) {
  for (const Knob& knob : kTable) {
    if (name == knob.name) return &knob;
  }
  return nullptr;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  for (size_t pos = 0;;) {
    const size_t end = s.find(sep, pos);
    parts.push_back(s.substr(pos, end - pos));
    if (end == std::string_view::npos) return parts;
    pos = end + 1;
  }
}

// An int64_t or double that is the whole of `s`, finite and in range.
template <typename T>
std::optional<T> Number(const Knob& knob, std::string_view s) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() ||
      !std::isfinite(static_cast<double>(v)) || v < knob.min ||
      v > knob.max) {
    return std::nullopt;
  }
  return v;
}

// `s` as a value of `knob`'s type; std::nullopt when malformed.
std::optional<Value> Convert(const Knob& knob, std::string_view s) {
  switch (knob.type) {
    case Type::kBool:
      if (s != "0" && s != "1") return std::nullopt;
      return s == "1";
    case Type::kInt:
      if (const auto v = Number<int64_t>(knob, s)) return *v;
      return std::nullopt;
    case Type::kDouble:
      if (const auto v = Number<double>(knob, s)) return *v;
      return std::nullopt;
    case Type::kString:
      return std::string(s);
    case Type::kChoice:
      for (std::string_view word : Split(knob.choices, '|')) {
        if (s == word) return std::string(s);
      }
      return std::nullopt;
    case Type::kList: {
      std::vector<std::string> items;
      for (std::string_view item : Split(s, ',')) {
        if (item.empty()) return std::nullopt;
        items.emplace_back(item);
      }
      return items;
    }
    case Type::kMap: {
      std::map<std::string, int64_t> entries;
      for (std::string_view item : Split(s, ',')) {
        const size_t eq = item.find('=');
        const auto v = eq == std::string_view::npos
                           ? std::nullopt
                           : Number<int64_t>(knob, item.substr(eq + 1));
        if (eq == 0 || !v || !entries.emplace(item.substr(0, eq), *v).second) {
          return std::nullopt;
        }
      }
      return entries;
    }
  }
  return std::nullopt;
}

// `knob`'s value in `env`; std::nullopt when unset or empty.
Result<std::optional<Value>> Read(const Env& env, const Knob& knob) {
  const auto it = env.find(knob.name);
  if (it == env.end() || it->second.empty()) return std::optional<Value>();
  std::optional<Value> value = Convert(knob, it->second);
  if (value.has_value()) return value;
  static constexpr const char* kForms[] = {
      "0 or 1", "an integer", "a finite number", "a string", "one of ",
      "a comma-separated list without empty entries",
      "name=integer entries, each name once, integers"};
  char range[64] = "";
  if (knob.min < knob.max) {
    std::snprintf(range, sizeof(range), " in [%.15g, %.15g]", knob.min,
                  knob.max);
  }
  return Status::InvalidArgument(
      std::string(knob.name) + "='" + it->second + "': expected " +
      kForms[static_cast<int>(knob.type)] + knob.choices + range +
      " (unset or empty: " + knob.unset + ")");
}

}  // namespace

Env ProcessEnv() {
  Env env;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view entry(*e);
    const size_t eq = entry.find('=');
    if (entry.starts_with("RATEL_") && eq != std::string_view::npos) {
      env.emplace(entry.substr(0, eq), entry.substr(eq + 1));
    }
  }
  return env;
}

std::vector<std::string> Names() {
  std::vector<std::string> names;
  for (const Knob& knob : kTable) names.emplace_back(knob.name);
  return names;
}

Status Validate(const Env& env) {
  static std::mutex mu;
  static std::set<std::string> warned;
  for (const auto& [name, value] : env) {
    if (const Knob* knob = Find(name)) {
      RATEL_RETURN_IF_ERROR(Read(env, *knob).status());
    } else if (name.starts_with("RATEL_")) {
      std::lock_guard<std::mutex> lock(mu);
      if (warned.insert(name).second) {
        RATEL_LOG(Warning) << name << " is not a Ratel knob and is ignored";
      }
    }
  }
  return Status::Ok();
}

template <typename T>
Result<std::optional<T>> Get(const Env& env, std::string_view name) {
  const Knob* knob = Find(name);
  RATEL_CHECK(knob != nullptr) << name << " is not in the knob table";
  RATEL_ASSIGN_OR_RETURN(std::optional<Value> value, Read(env, *knob));
  if (!value.has_value()) return std::optional<T>();
  RATEL_CHECK(std::holds_alternative<T>(*value))
      << name << " is read as the wrong type";
  return std::optional<T>(std::get<T>(std::move(*value)));
}

template Result<std::optional<bool>> Get(const Env&, std::string_view);
template Result<std::optional<int64_t>> Get(const Env&, std::string_view);
template Result<std::optional<double>> Get(const Env&, std::string_view);
template Result<std::optional<std::string>> Get(const Env&, std::string_view);
template Result<std::optional<std::vector<std::string>>> Get(
    const Env&, std::string_view);
template Result<std::optional<std::map<std::string, int64_t>>> Get(
    const Env&, std::string_view);

}  // namespace ratel::knobs
