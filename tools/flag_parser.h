#ifndef RATEL_TOOLS_FLAG_PARSER_H_
#define RATEL_TOOLS_FLAG_PARSER_H_

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ratel::tools {

/// `text` as a base-10 integer in [min, max], or std::nullopt when it is
/// not one: the digits (with an optional leading '-') must be the whole
/// value, so "twelve", "12x", " 12", "+12" and "" are all rejected, as is
/// a value out of range.
inline std::optional<int64_t> ParseInt(std::string_view text, int64_t min,
                                       int64_t max) {
  int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

/// ParseInt of the command-line value of `what`; a malformed value
/// prints a message naming both and exits with status 2.
inline int64_t ParseIntOrExit(std::string_view what, std::string_view text,
                              int64_t min, int64_t max) {
  const std::optional<int64_t> value = ParseInt(text, min, max);
  if (!value.has_value()) {
    std::cerr << "invalid " << what << " '" << text
              << "': expected an integer in [" << min << ", " << max
              << "]\n";
    std::exit(2);
  }
  return *value;
}

/// Tiny --key=value / --key value command-line parser for the CLI tools.
class FlagParser {
 public:
  FlagParser(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[arg] = argv[++i];
      } else {
        flags_[arg] = "true";
      }
    }
  }

  std::string GetString(const std::string& key,
                        const std::string& def = "") const {
    auto it = flags_.find(key);
    return it != flags_.end() ? it->second : def;
  }

  /// The integer value of --key, `def` when absent. A value that is not
  /// a whole integer fitting an int exits the program (ParseIntOrExit).
  int64_t GetInt(const std::string& key, int64_t def = 0) const {
    auto it = flags_.find(key);
    return it != flags_.end()
               ? ParseIntOrExit("--" + key, it->second, INT_MIN, INT_MAX)
               : def;
  }

  bool GetBool(const std::string& key, bool def = false) const {
    auto it = flags_.find(key);
    if (it == flags_.end()) return def;
    return it->second != "false" && it->second != "0";
  }

  bool Has(const std::string& key) const { return flags_.count(key) > 0; }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ratel::tools

#endif  // RATEL_TOOLS_FLAG_PARSER_H_
