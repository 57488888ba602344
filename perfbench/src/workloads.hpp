// The benchmark's three workloads (sim_fleet, wtnf_stream, replay_single)
// and the metrics they report. See perfbench/README.md for what each one
// stresses and why.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome {
    std::size_t attempted = 0;            ///< frames offered
    std::size_t failed = 0;               ///< frames that produced no result
    std::vector<std::string> problems;    ///< failed output checks
    std::vector<Metric> metrics;          ///< end-to-end, or per-layer when traced
    std::vector<Metric> info;             ///< context printed before the result
};

const std::vector<std::string>& workload_names();

/// Run one workload; throws std::invalid_argument for an unknown name.
Outcome run_workload(const Options& options);

}  // namespace perfbench
