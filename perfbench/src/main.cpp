// perfbench: the frame-path benchmark.
//
//   perfbench --workload <sim_fleet|wtnf_stream|replay_single> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints one "perfbench: {...}" context line (machine, build, counts,
// failed checks) and, last, the result object
// {"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
// --trace 0, per-layer metrics with --trace 1. Exits 1 when an output check
// failed, 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "dsp/simd.hpp"
#include "workloads.hpp"

namespace {

void usage(std::FILE* out) {
    std::fprintf(out,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "workloads:");
    for (const auto& name : perfbench::workload_names()) std::fprintf(out, " %s", name.c_str());
    std::fprintf(out, "\n");
}

bool parse_u64(const std::string& text, std::uint64_t& value) {
    if (text.empty() || text.size() > 19) return false;
    value = 0;
    for (char c : text) {
        if (c < '0' || c > '9') return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return true;
}

/// JSON string escaping for the free-text fields (check messages).
std::string quoted(const std::string& text) {
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string metrics_json(const std::vector<perfbench::Metric>& metrics) {
    std::string out = "{";
    char value[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
        out += (i ? ", " : "") + quoted(metrics[i].name) + ": {\"value\": " + value +
               ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            usage(stdout);
            return 0;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
            usage(stderr);
            return 2;
        }
        const std::string value = argv[++i];
        std::uint64_t number = 0;
        bool ok = true;
        if (flag == "--workload") {
            options.workload = value;
            have[0] = true;
        } else if (flag == "--seed") {
            ok = parse_u64(value, options.seed);
            have[1] = true;
        } else if (flag == "--seconds") {
            ok = parse_u64(value, number) && number >= 1 && number <= 600;
            options.seconds = static_cast<double>(number);
            have[2] = true;
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            options.trace = value == "1";
            have[3] = true;
        } else {
            std::fprintf(stderr, "perfbench: unknown argument %s\n", flag.c_str());
            usage(stderr);
            return 2;
        }
        if (!ok) {
            std::fprintf(stderr, "perfbench: bad value for %s: %s\n", flag.c_str(),
                         value.c_str());
            usage(stderr);
            return 2;
        }
    }
    bool known = false;
    for (const auto& name : perfbench::workload_names()) known |= name == options.workload;
    if (!have[0] || !have[1] || !have[2] || !have[3] || !known) {
        std::fprintf(stderr, "perfbench: --workload (a known name), --seed, --seconds "
                             "and --trace are required\n");
        usage(stderr);
        return 2;
    }

    perfbench::Outcome outcome;
    try {
        outcome = perfbench::run_workload(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                     error.what());
        return 1;
    }

    std::string problems = "[";
    for (std::size_t i = 0; i < outcome.problems.size(); ++i)
        problems += (i ? ", " : "") + quoted(outcome.problems[i]);
    problems += "]";
    std::printf("perfbench: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
                "\"nproc\": %u, \"simd\": %s, \"build_type\": %s, \"compiler\": %s, "
                "\"context\": %s, \"failed_checks\": %s}\n",
                quoted(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                quoted(witrack::dsp::simd::to_string(witrack::dsp::simd::active())).c_str(),
                quoted(PERFBENCH_BUILD_TYPE).c_str(), quoted(PERFBENCH_COMPILER).c_str(),
                metrics_json(outcome.info).c_str(), problems.c_str());
    const bool correct = outcome.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
                correct ? "true" : "false", outcome.attempted, outcome.failed,
                metrics_json(outcome.metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
