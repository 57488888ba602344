// Minimal command-line parsing for the bench harnesses. Every figure bench
// accepts the same vocabulary (--experiments, --seconds, --seed, --csv,
// --quick) so results are reproducible and scalable without recompiling.
// parse_u64 is the strict integer parser for operator input (witrackd flags
// and control-plane words).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace witrack {

/// Strict unsigned decimal: digits only (no sign, space or suffix) and no
/// overflow. On false `value` is left untouched.
inline bool parse_u64(const std::string& word, std::uint64_t& value) {
    if (word.empty()) return false;
    std::uint64_t parsed = 0;
    for (char c : word) {
        if (c < '0' || c > '9') return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (parsed > (UINT64_MAX - digit) / 10) return false;
        parsed = parsed * 10 + digit;
    }
    value = parsed;
    return true;
}

/// Parses "--key value" and "--flag" style arguments.
class CliArgs {
  public:
    CliArgs(int argc, char** argv) {
        for (int i = 1; i < argc; ++i) {
            std::string token = argv[i];
            if (token.rfind("--", 0) != 0) continue;
            std::string key = token.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "1";  // bare flag
            }
        }
    }

    bool has(const std::string& key) const { return values_.count(key) > 0; }

    std::string get(const std::string& key, const std::string& fallback = "") const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    int get_int(const std::string& key, int fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : std::atoi(it->second.c_str());
    }

    double get_double(const std::string& key, double fallback) const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : std::atof(it->second.c_str());
    }

    std::uint64_t get_seed(std::uint64_t fallback = 42) const {
        auto it = values_.find("seed");
        return it == values_.end() ? fallback
                                   : std::strtoull(it->second.c_str(), nullptr, 10);
    }

    /// True when the user asked for a fast, reduced-scale run.
    bool quick() const { return has("quick"); }

  private:
    std::map<std::string, std::string> values_;
};

}  // namespace witrack
