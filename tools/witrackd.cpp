// witrackd: the WiTrack fleet daemon. One process = one EngineHost serving
// many tracking sessions, driven entirely over the network:
//
//   * frames arrive as WTNF datagrams on per-session UDP ingest ports
//     (net::NetSource), or are synthesized in-process for sim tenants;
//   * operators drive the fleet over the TCP control plane
//     (net::ControlServer line protocol on 127.0.0.1).
//
// Server:  witrackd [--control-port P] [--max-sessions N] [--workers W]
//                   [--max-frame-lag R] [--stats-every SEC]
//                   [--net-idle-timeout SEC] [--run-seconds SEC] [--idle-exit]
//                   [--health-threshold H] [--health-window F]
//                   [--max-restarts N]
// Client:  witrackd --port P --cmd "STATS"
//
// A negative, non-numeric or out-of-range flag (a worker count above the
// host's cap of 256, a non-finite duration, a health threshold outside
// [0, 1]) prints the usage and exits 2.
//
// On top of the ControlServer builtins (PING / STATS / HEALTH / PAUSE /
// RESUME / EVICT / CHECKPOINT) the daemon registers:
//
//   ADMIT sim <name> <seed> <seconds> [faults]
//                                         synthetic walk tenant; the
//                                         optional WITRACK_HW_FAULTS-style
//                                         spec (e.g. "dropout=0.1,seed=7")
//                                         attaches a hardware fault
//                                         injector. Sim tenants are
//                                         restartable: with
//                                         --health-threshold set, the
//                                         host's watchdog auto-checkpoints
//                                         and restarts them in place when
//                                         their health stays low.
//   ADMIT net <name> <udp_port> <token>   UDP-fed tenant (0 = ephemeral
//                                         port, echoed in the response)
//   DRAIN                                 stop admitting, exit when drained
//
// SIGINT is a clean DRAIN: in-flight sessions finish, stats are printed,
// the process exits 0. Note one scheduling tradeoff inherited from the
// blocking FrameSource contract: a net tenant whose sender goes silent
// holds its step_all() slot until --net-idle-timeout expires (once; the
// session then ends with the silence counted in idle_timeouts).
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/sim_source.hpp"
#include "net/control_server.hpp"
#include "net/net_source.hpp"
#include "net/udp_socket.hpp"
#include "sim/motion.hpp"

using namespace witrack;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;
void handle_sigint(int) { g_interrupted = 1; }

engine::EngineConfig tenant_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

constexpr const char* kUsage =
    "usage: witrackd [--control-port P] [--max-sessions N] [--workers W]\n"
    "                [--max-frame-lag R] [--stats-every SEC]\n"
    "                [--net-idle-timeout SEC] [--run-seconds SEC] [--idle-exit]\n"
    "                [--health-threshold H] [--health-window F]\n"
    "                [--max-restarts N]\n"
    "       witrackd --port P --cmd \"STATS\"\n";

/// Read a non-negative integer flag into `value` (`fallback` when absent).
/// A negative, non-numeric or above-`max` value prints the usage and
/// returns false: atoi would silently turn "-1" into a huge count.
bool read_count(const CliArgs& args, const char* key, std::uint64_t fallback,
                std::uint64_t max, std::uint64_t& value) {
    value = fallback;
    if (!args.has(key)) return true;
    if (parse_u64(args.get(key), value) && value <= max) return true;
    std::fprintf(stderr, "witrackd: bad --%s value '%s'\n%s", key,
                 args.get(key).c_str(), kUsage);
    return false;
}

/// Read a finite real flag in [0, max] into `value` (`fallback` when
/// absent). NaN, infinities, negatives, trailing junk and above-`max`
/// values print the usage and return false: atof would silently turn
/// "abc" into 0 and "nan" into a threshold no health ever reaches.
bool read_real(const CliArgs& args, const char* key, double fallback, double max,
               double& value) {
    value = fallback;
    if (!args.has(key)) return true;
    const std::string word = args.get(key);
    char* end = nullptr;
    value = std::strtod(word.c_str(), &end);
    if (!word.empty() && *end == '\0' && std::isfinite(value) && value >= 0.0 &&
        value <= max)
        return true;
    std::fprintf(stderr, "witrackd: bad --%s value '%s'\n%s", key, word.c_str(),
                 kUsage);
    return false;
}

int run_client(const CliArgs& args) {
    std::uint64_t port = 0;
    if (!read_count(args, "port", 0, 65535, port)) return 2;
    if (port == 0) {
        std::fprintf(stderr, "witrackd --cmd needs --port <control port>\n");
        return 2;
    }
    try {
        net::ControlClient client(static_cast<std::uint16_t>(port));
        const std::string response = client.request(args.get("cmd"));
        std::printf("%s\n", response.c_str());
        return response.rfind("OK", 0) == 0 ? 0 : 1;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "witrackd: %s\n", error.what());
        return 2;
    }
}

}  // namespace

int main(int argc, char** argv) {
    const CliArgs args(argc, argv);
    if (args.has("cmd")) return run_client(args);

    constexpr std::uint64_t kAny = UINT64_MAX;
    std::uint64_t control_port = 0, max_sessions = 0, workers = 0;
    std::uint64_t max_frame_lag = 0, health_window = 0, max_restarts = 0;
    if (!read_count(args, "control-port", 0, 65535, control_port) ||
        !read_count(args, "max-sessions", 8, kAny, max_sessions) ||
        !read_count(args, "workers", 0, kAny, workers) ||
        !read_count(args, "max-frame-lag", 500, kAny, max_frame_lag) ||
        !read_count(args, "health-window", 64, kAny, health_window) ||
        !read_count(args, "max-restarts", 3, kAny, max_restarts))
        return 2;
    constexpr double kAnyReal = std::numeric_limits<double>::max();
    double health_threshold = 0.0, stats_every_s = 0.0;
    double net_idle_timeout_s = 0.0, run_seconds = 0.0;
    if (!read_real(args, "health-threshold", 0.0, 1.0, health_threshold) ||
        !read_real(args, "stats-every", 5.0, kAnyReal, stats_every_s) ||
        !read_real(args, "net-idle-timeout", 5.0, kAnyReal, net_idle_timeout_s) ||
        !read_real(args, "run-seconds", 0.0, kAnyReal, run_seconds))
        return 2;

    // The host validates the counts it owns (worker cap, max_sessions >= 1);
    // a rejected value is a usage error, not an abort.
    std::unique_ptr<engine::EngineHost> owned_host;
    try {
        owned_host = std::make_unique<engine::EngineHost>(
            engine::HostConfig{}
                .with_workers(workers)
                .with_max_sessions(max_sessions)
                .with_queue_when_full(true)
                .with_max_frame_lag(max_frame_lag)
                .with_health_threshold(health_threshold)
                .with_health_window(health_window)
                .with_max_restarts(max_restarts));
    } catch (const std::invalid_argument& error) {
        std::fprintf(stderr, "witrackd: %s\n%s", error.what(), kUsage);
        return 2;
    }
    engine::EngineHost& host = *owned_host;
    net::ControlServer control(host, static_cast<std::uint16_t>(control_port));

    const bool idle_exit = args.has("idle-exit");

    bool draining = false;
    bool admitted_any = false;

    control.register_command(
        "ADMIT", [&](const std::vector<std::string>& argv_) -> std::string {
            if (draining) return "ERR draining, admission closed";
            if (argv_.size() >= 4 && argv_[0] == "sim") {
                std::uint64_t seed = 0;
                std::uint64_t seconds = 0;
                if (!parse_u64(argv_[2], seed) || !parse_u64(argv_[3], seconds) ||
                    seconds == 0 || seconds > 3600)
                    return "ERR usage: ADMIT sim <name> <seed> <seconds> "
                           "[faults]";
                const auto config = tenant_config(seed);
                // Parse a bad fault spec here (-> "ERR ..." to the
                // operator), not inside the factory at restart time.
                hw::FaultConfig faults;
                const bool has_faults = argv_.size() >= 5;
                if (has_faults) faults = hw::parse_fault_spec(argv_[4]);
                // Restartable: the factory rebuilds the deterministic
                // source for each incarnation, so the watchdog can
                // checkpoint + restart the tenant in place.
                auto factory = [config, seconds, faults, has_faults]() {
                    auto walk = std::make_unique<sim::LineWalkScript>(
                        geom::Vec3{-1.5, 5, 0}, geom::Vec3{1.5, 5, 0},
                        static_cast<double>(seconds), 1.0);
                    auto source = std::make_unique<engine::SimSource>(
                        config, std::move(walk));
                    if (has_faults)
                        source->set_fault_injector(
                            std::make_unique<hw::FaultInjector>(faults));
                    return std::unique_ptr<engine::FrameSource>(
                        std::move(source));
                };
                const auto id = host.admit_restartable(argv_[1], config,
                                                       std::move(factory));
                admitted_any = true;
                return "OK admitted " + std::to_string(id);
            }
            if (argv_.size() >= 4 && argv_[0] == "net") {
                std::uint64_t port = 0;
                std::uint64_t token = 0;
                if (!parse_u64(argv_[2], port) || port > 65535 ||
                    !parse_u64(argv_[3], token))
                    return "ERR usage: ADMIT net <name> <udp_port> <token>";
                auto socket = std::make_unique<net::UdpSocket>(
                    static_cast<std::uint16_t>(port));
                const std::uint16_t bound = socket->local_port();
                net::NetSourceConfig net_config;
                net_config.session_token = token;
                net_config.idle_timeout_s = net_idle_timeout_s;
                const auto id = host.admit(
                    argv_[1], tenant_config(token),
                    std::make_unique<net::NetSource>(std::move(socket),
                                                     net_config));
                admitted_any = true;
                return "OK admitted " + std::to_string(id) + " udp " +
                       std::to_string(bound);
            }
            return "ERR usage: ADMIT sim <name> <seed> <seconds> | "
                   "ADMIT net <name> <udp_port> <token>";
        });
    control.register_command("DRAIN", [&](const std::vector<std::string>&) {
        draining = true;
        return std::string("OK draining");
    });

    std::signal(SIGINT, handle_sigint);
    std::signal(SIGTERM, handle_sigint);

    // The one line a launcher can parse for the ephemeral port.
    std::printf("witrackd: control plane on 127.0.0.1:%u (%zu worker(s), "
                "%zu-session cap)\n",
                static_cast<unsigned>(control.port()), host.workers(),
                host.config().max_sessions);
    std::fflush(stdout);

    const auto started = std::chrono::steady_clock::now();
    auto last_stats = started;
    for (;;) {
        if (g_interrupted) {
            draining = true;
            g_interrupted = 0;
            std::printf("witrackd: interrupt, draining\n");
            std::fflush(stdout);
        }
        control.poll();
        const std::size_t frames = host.step_all();

        const auto now = std::chrono::steady_clock::now();
        const double up_s =
            std::chrono::duration<double>(now - started).count();
        // Reap on the stats cadence, after the print: a session that just
        // finished shows up in one final periodic line (with its lifetime
        // net counters) before leaving the registry.
        if (stats_every_s > 0.0) {
            if (std::chrono::duration<double>(now - last_stats).count() >=
                stats_every_s) {
                last_stats = now;
                const std::string json =
                    engine::to_json(host.take_fleet_stats());
                std::printf("witrackd: %s\n", json.c_str());
                std::fflush(stdout);
                host.reap();
            }
        } else {
            host.reap();
        }

        const bool idle =
            host.active_sessions() == 0 && host.queued_sessions() == 0;
        if (draining && idle) break;
        if (idle_exit && admitted_any && idle) break;
        if (run_seconds > 0.0 && up_s >= run_seconds) break;
        // Nothing stepped: park in the control socket's poll so the loop
        // stays responsive without spinning a core.
        if (frames == 0) control.poll(5);
    }

    host.reap();
    std::printf("witrackd: drained, %s\n",
                engine::to_json(host.take_fleet_stats()).c_str());
    return 0;
}
