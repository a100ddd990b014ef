#ifndef RATEL_COMMON_KNOBS_H_
#define RATEL_COMMON_KNOBS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/status.h"

/// The RATEL_* environment knobs: one table (knobs.cc) giving each
/// knob's name, type, range and default, one set of strict converters,
/// and the program's only read of the environment. An integer or a
/// number must be the whole value, finite and in range; a boolean is
/// exactly "0" or "1"; a choice is one of its words; a list rejects an
/// empty entry, and a "name=value,..." map an entry without '=', a
/// repeated name or a value out of range; an empty value means unset.
/// A malformed value is kInvalidArgument naming the variable and value.
namespace ratel::knobs {

/// RATEL_* variables by name: the process environment or a fake one.
using Env = std::map<std::string, std::string>;

/// The RATEL_* entries of the process environment, read now.
Env ProcessEnv();

/// The name of every knob in the table.
std::vector<std::string> Names();

/// Checks every RATEL_* entry of `env` against the table. A name the
/// table lacks (a typo such as RATEL_REPLAN_TRESHOLD_PCT) logs one
/// warning per process.
Status Validate(const Env& env);

/// Knob `name`'s value in `env`; std::nullopt when unset or empty. T is
/// the knob's type: bool, int64_t, double, std::string (a string or a
/// choice), std::vector<std::string> (a list) or
/// std::map<std::string, int64_t> (a map).
template <typename T>
Result<std::optional<T>> Get(const Env& env, std::string_view name);

/// Overlays knob `name` onto `*field` when it is set; a double is
/// divided by `divisor` first (a percent knob passes 100).
template <typename T>
Status Overlay(const Env& env, std::string_view name, T* field,
               double divisor = 1.0) {
  using V = std::conditional_t<
      std::is_same_v<T, bool>, bool,
      std::conditional_t<std::is_integral_v<T>, int64_t,
                         std::conditional_t<std::is_floating_point_v<T>,
                                            double, std::string>>>;
  RATEL_ASSIGN_OR_RETURN(const std::optional<V> value, Get<V>(env, name));
  if constexpr (std::is_floating_point_v<T>) {
    if (value.has_value()) *field = *value / divisor;
  } else if (value.has_value()) {
    *field = static_cast<T>(*value);
  }
  return Status::Ok();
}

/// Get over the process environment, for the process-wide knobs that
/// resolve lazily where no caller takes an error: a malformed value
/// fails a RATEL_CHECK with the same message.
template <typename T>
std::optional<T> GetOrDie(std::string_view name) {
  Result<std::optional<T>> value = Get<T>(ProcessEnv(), name);
  RATEL_CHECK(value.ok()) << value.status().ToString();
  return *value;
}

}  // namespace ratel::knobs

#endif  // RATEL_COMMON_KNOBS_H_
