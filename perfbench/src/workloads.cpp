#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "engine/host.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "harness.hpp"
#include "hw/fault_injector.hpp"
#include "net/fault_injector.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "sim/environment.hpp"
#include "sim/motion.hpp"

namespace perfbench {
namespace {

using namespace witrack;

constexpr std::size_t kSessions = 8;         ///< sim_fleet homes
constexpr std::size_t kNetSessions = 5;      ///< wtnf_stream homes
constexpr std::size_t kFaultedSessions = 2;  ///< sim_fleet: 4-RX array + hw faults
constexpr double kFleetEpisodeS = 2.0;       ///< one sim_fleet wave
constexpr double kNetEpisodeS = 1.0;         ///< one wtnf_stream wave
constexpr double kReplayEpisodeS = 4.0;      ///< the recorded fall window
constexpr double kFallLeadS = 2.0;           ///< recording starts this long before the fall
constexpr int kSetupRepeats = 3;             ///< setup_s is the median of these
constexpr double kSetupMinS = 0.5;           ///< ... repeated for at least this long
constexpr int kTraceSlices = 3;              ///< traced mode: untraced/traced alternations
constexpr double kTrackErrCeilingM = 1.0;    ///< sanity ceiling on track_err_m_p50
const char* const kOutDir = ".bench_build";  ///< recordings and traces, under the cwd

// WTNF link faults: one frame in kLossPeriod lost, plus seeded duplicates
// and reorders (per datagram; a 5-sweep frame is ~220 datagrams).
constexpr std::size_t kLossPeriod = 200;
constexpr double kNetDuplicate = 1e-3;
constexpr double kNetReorder = 1e-3;

const double kMiss = std::numeric_limits<double>::infinity();

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

double frame_period_s() { return FmcwParams{}.frame_duration_s(); }

/// Frames a sim episode of `duration_s` yields (Scenario stops at t >= duration).
std::size_t episode_frames(double duration_s) {
    std::size_t n = 0;
    while (static_cast<double>(n) * frame_period_s() < duration_s) ++n;
    return n;
}

/// Where the people walk. Motion is fixed per session (seeded by the session
/// index, not by --seed), so every run tracks the same paths and the
/// accuracy figures compare like with like; --seed drives everything the
/// radio sees on top of that: receiver noise, body scintillation and the
/// hardware and link faults.
constexpr std::uint64_t kMotionSeed = 0x3D7AC4E1;

const sim::MotionBounds& walk_bounds() {
    static const sim::MotionBounds bounds = sim::make_through_wall_lab().bounds;
    return bounds;
}

/// Median of at least kSetupRepeats builds, repeated for at least
/// kSetupMinS so that a build of a few milliseconds is still steady.
template <typename Build>
double median_setup_s(Build&& build) {
    std::vector<double> times;
    const double begin = now_s();
    while (times.size() < static_cast<std::size_t>(kSetupRepeats) ||
           (now_s() - begin < kSetupMinS && times.size() < 1000)) {
        const double t0 = now_s();
        build();
        times.push_back(now_s() - t0);
    }
    return percentile(times, 0.5);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------------ phases

/// What one timed phase (untraced or traced) observed.
struct Phase {
    double wall_s = 0.0;
    std::size_t offered = 0;
    std::size_t frames = 0;
    std::size_t units = 0;                ///< waves or replay passes
    double first_unit_rss_mb = 0.0;       ///< peak RSS when the first unit ended
    std::vector<double> latency_s;        ///< misses are +inf
    std::vector<double> error_m;
    std::vector<std::string> problems;

    struct StepStat {
        double total_s = 0.0;
        std::size_t samples = 0;
    };
    std::map<std::string, StepStat> steps;  ///< pipeline.* from take_stage_stats
    double session_step_s = 0.0;            ///< FleetStats per-session step time
    std::size_t snapshot_bytes = 0;
    std::uint64_t degraded_frames = 0;
    engine::NetIngestStats net;
    std::size_t net_frames_sent = 0;
    std::size_t link_lost = 0;            ///< frames the link was scheduled to destroy
    double wait_s = 0.0;
    std::size_t backlog_max = 0;

    double fps() const { return wall_s > 0.0 ? static_cast<double>(frames) / wall_s : 0.0; }
    /// Frames offered that produced no result, counting link losses.
    std::size_t unprocessed() const { return offered - std::min(offered, frames); }
    /// Frames the program failed: unprocessed ones the link did not destroy.
    std::size_t failed() const { return unprocessed() - std::min(unprocessed(), link_lost); }

    /// Closed loops run more waves or passes on a faster build, and the
    /// heap creeps up a little with each, so peak memory is taken after a
    /// fixed amount of work: set-up and the first unit.
    void end_unit() {
        if (units++ == 0) first_unit_rss_mb = peak_rss_mb();
    }

    /// Fold a later phase of the same kind into this one.
    void merge(const Phase& other) {
        if (units == 0) first_unit_rss_mb = other.first_unit_rss_mb;
        wall_s += other.wall_s;
        offered += other.offered;
        frames += other.frames;
        units += other.units;
        latency_s.insert(latency_s.end(), other.latency_s.begin(), other.latency_s.end());
        error_m.insert(error_m.end(), other.error_m.begin(), other.error_m.end());
        for (const auto& text : other.problems) problem(text);
        for (const auto& [name, step] : other.steps) {
            steps[name].total_s += step.total_s;
            steps[name].samples += step.samples;
        }
        session_step_s += other.session_step_s;
        snapshot_bytes = std::max(snapshot_bytes, other.snapshot_bytes);
        degraded_frames += other.degraded_frames;
        net += other.net;
        net_frames_sent += other.net_frames_sent;
        link_lost += other.link_lost;
        wait_s += other.wait_s;
        backlog_max = std::max(backlog_max, other.backlog_max);
    }

    void problem(std::string text) {
        if (problems.size() < 16) problems.push_back(std::move(text));
    }

    /// Fold a finished session's probe in; `expected` frames were offered.
    void collect(const FrameProbe& probe, std::size_t expected) {
        offered += expected;
        frames += probe.frames;
        latency_s.insert(latency_s.end(), probe.latency_s.begin(), probe.latency_s.end());
        if (expected > probe.frames) latency_s.insert(latency_s.end(), expected - probe.frames, kMiss);
        error_m.insert(error_m.end(), probe.error_m.begin(), probe.error_m.end());
    }

    void add_steps(const std::vector<engine::Engine::StageStats>& stats) {
        for (const auto& stat : stats) {
            if (stat.name.rfind("pipeline.", 0) != 0) continue;
            steps[stat.name].total_s += stat.total_s;
            steps[stat.name].samples += stat.frames;
        }
    }
};

std::unique_ptr<FrameProbe> make_probe(std::size_t session, Tracer& tracer) {
    auto probe = std::make_unique<FrameProbe>();
    probe->session = static_cast<std::uint32_t>(session);
    probe->frame_period_s = frame_period_s();
    probe->tracer = tracer.enabled() ? &tracer : nullptr;
    return probe;
}

engine::EngineHost make_host(std::size_t workers) {
    return engine::EngineHost(
        engine::HostConfig{}.with_workers(workers).with_max_sessions(kSessions));
}

/// Round loop shared by the fleet workloads: step_all until every session
/// drained, one host.round span per round; `after_round` runs between rounds.
template <typename AfterRound>
void drive_rounds(engine::EngineHost& host, Tracer& tracer, double& round_start,
                  AfterRound&& after_round) {
    while (host.active_sessions() > 0) {
        round_start = now_s();
        const auto span = tracer.open(Layer::kRound, 0, host.rounds(), round_start);
        host.step_all();
        tracer.close(span, now_s());
        after_round();
    }
}

/// Wave bookkeeping shared by the fleet workloads: fold FleetStats into the
/// phase and check each session ended Finished with every frame probed
/// (unless the input is `lossy`: then unprobed frames only count as misses).
void settle_wave(engine::EngineHost& host, Phase& phase,
                 const std::vector<engine::SessionId>& ids,
                 const std::vector<std::unique_ptr<FrameProbe>>& probes,
                 const std::vector<std::size_t>& expected, bool lossy) {
    const engine::FleetStats fleet = host.take_fleet_stats();
    for (const auto& session : fleet.sessions) {
        phase.session_step_s += session.total_step_s;
        phase.add_steps(session.stages);
    }
    for (std::size_t s = 0; s < ids.size(); ++s) {
        const engine::SessionState state = host.state(ids[s]);
        if (state != engine::SessionState::kFinished)
            phase.problem("session " + std::to_string(s) + " ended " +
                          engine::to_string(state));
        if (!lossy && probes[s]->frames != expected[s])
            phase.problem("session " + std::to_string(s) + " probed " +
                          std::to_string(probes[s]->frames) + " of " +
                          std::to_string(expected[s]) + " frames");
        phase.collect(*probes[s], expected[s]);
    }
}

// ---------------------------------------------------------------- sim_fleet

struct FleetSession {
    engine::EngineConfig config;
    std::uint64_t walk_seed = 0;
    std::optional<hw::FaultConfig> faults;
};

std::vector<FleetSession> fleet_sessions(std::uint64_t seed) {
    std::vector<FleetSession> sessions(kSessions);
    for (std::size_t s = 0; s < kSessions; ++s) {
        FleetSession& session = sessions[s];
        session.config.with_seed(mix(seed, 100 + s));
        session.walk_seed = mix(kMotionSeed, 200 + s);
        if (s >= kSessions - kFaultedSessions) {
            session.config.with_cross_array(true);
            hw::FaultConfig faults;
            faults.dropout_rate = 0.02;
            faults.saturation_rate = 0.02;
            faults.seed = mix(seed, 300 + s);
            session.faults = faults;
        }
    }
    return sessions;
}

std::unique_ptr<engine::SimSource> build_walk(const FleetSession& session) {
    auto source = std::make_unique<engine::SimSource>(
        session.config, std::make_unique<sim::RandomWaypointWalk>(
                            walk_bounds(), kFleetEpisodeS, Rng(session.walk_seed)));
    if (session.faults)
        source->set_fault_injector(std::make_unique<hw::FaultInjector>(*session.faults));
    return source;
}

Phase run_fleet_phase(const std::vector<FleetSession>& sessions, double seconds,
                      Tracer& tracer) {
    Phase phase;
    engine::EngineHost host = make_host(nproc());
    const std::size_t frames = episode_frames(kFleetEpisodeS);
    const auto per_checkpoint = static_cast<std::size_t>(std::llround(1.0 / frame_period_s()));
    double round_start = 0.0;
    const double begin = now_s();
    do {
        std::vector<std::unique_ptr<FrameProbe>> probes;
        std::vector<engine::SessionId> ids;
        std::vector<std::size_t> next_checkpoint(sessions.size(), per_checkpoint);
        for (std::size_t s = 0; s < sessions.size(); ++s) {
            probes.push_back(make_probe(s + 1, tracer));
            probes.back()->input_ready = [&round_start](std::uint64_t) { return round_start; };
            ids.push_back(host.admit(
                "home-" + std::to_string(s), sessions[s].config,
                std::make_unique<TimedSource>(build_walk(sessions[s]), Layer::kSimNext,
                                              *probes.back())));
            wire_home(*host.session(ids.back()), *probes.back());
        }
        drive_rounds(host, tracer, round_start, [&] {
            // One in-memory checkpoint per simulated second of each session.
            for (std::size_t s = 0; s < ids.size(); ++s) {
                const engine::Engine& engine = *host.session(ids[s]);
                if (engine.session_state() != engine::SessionState::kRunning ||
                    engine.frames_processed() < next_checkpoint[s])
                    continue;
                next_checkpoint[s] += per_checkpoint;
                std::ostringstream snapshot;
                const auto span = tracer.open(Layer::kCheckpoint, static_cast<std::uint32_t>(s + 1),
                                              engine.frames_processed(), now_s());
                host.checkpoint_session(ids[s], snapshot);
                tracer.close(span, now_s());
                phase.snapshot_bytes = std::max(
                    phase.snapshot_bytes, static_cast<std::size_t>(snapshot.tellp()));
            }
        });
        for (std::size_t s = 0; s < ids.size(); ++s) {
            const std::uint64_t degraded = host.session(ids[s])->quality_stats().degraded_frames;
            if (sessions[s].faults && degraded == 0)
                phase.problem("faulted session " + std::to_string(s) + " never degraded");
            phase.degraded_frames += degraded;
        }
        settle_wave(host, phase, ids, probes, std::vector<std::size_t>(ids.size(), frames),
                    /*lossy=*/false);
        host.reap();
        phase.end_unit();
    } while (now_s() - begin < seconds);
    phase.wall_s = now_s() - begin;
    return phase;
}

// -------------------------------------------------------------- wtnf_stream

struct NetEpisode {
    std::vector<net::Datagram> clean;   ///< every frame packed, then end-of-stream
    std::vector<std::size_t> first;     ///< index in `clean` of each frame's fragment 0
    std::uint64_t token = 0;
    std::uint64_t fault_seed = 0;       ///< seeds the link faults of every wave
    engine::EngineConfig config;
    geom::ArrayGeometry array;
    std::size_t frames() const { return first.size(); }
};

/// Simulate one home and pack every frame into WTNF datagrams.
NetEpisode build_net_episode(std::uint64_t seed, std::size_t index) {
    NetEpisode episode;
    episode.token = 1000 + index;
    episode.fault_seed = mix(seed, 600 + index);
    episode.config.with_seed(mix(seed, 400 + index));
    engine::SimSource sim(episode.config,
                          std::make_unique<sim::RandomWaypointWalk>(
                              walk_bounds(), kNetEpisodeS, Rng(mix(kMotionSeed, 500 + index))));
    episode.array = sim.array();
    engine::Frame frame;
    while (sim.next(frame)) {
        const std::uint64_t seq = episode.frames();
        episode.first.push_back(episode.clean.size());
        for (auto& datagram : net::pack_frame(frame, episode.token, seq))
            episode.clean.push_back(std::move(datagram));
    }
    episode.clean.push_back(net::pack_end_of_stream(episode.token, episode.frames()));
    return episode;
}

std::vector<NetEpisode> build_net_episodes(std::uint64_t seed) {
    std::vector<NetEpisode> episodes(kNetSessions);
    std::atomic<std::size_t> next{0};
    std::exception_ptr error;
    std::mutex error_mutex;
    {
        std::vector<std::jthread> threads;  // joined at the end of this block
        for (std::size_t t = 0; t < std::min(nproc(), kNetSessions); ++t) {
            threads.emplace_back([&] {
                for (std::size_t i; (i = next.fetch_add(1)) < kNetSessions;) {
                    try {
                        episodes[i] = build_net_episode(seed, i);
                    } catch (...) {
                        std::lock_guard<std::mutex> lock(error_mutex);
                        if (!error) error = std::current_exception();
                    }
                }
            });
        }
    }
    if (error) std::rethrow_exception(error);
    return episodes;
}

/// One wave's damaged, scheduled copy of an episode's stream, with the link
/// counters a NetSource must report for it.
struct NetWave {
    std::shared_ptr<const PacedStream> stream;
    std::vector<double> frame_due_s;  ///< due time of each frame's last datagram
    std::uint64_t crc_errors = 0;     ///< corrupted datagrams sent
    std::uint64_t duplicates = 0;     ///< surplus copies sent
    std::size_t lost_frames = 0;      ///< frames the schedule destroyed
};

/// Damage and schedule wave `wave` of session `session`'s stream.
///
/// Exactly one frame in kLossPeriod is lost, on a fixed schedule staggered
/// across sessions, alternately by a dropped and by a corrupted datagram
/// (which one is seeded). A random loss count would make latency unsteady:
/// each lost frame holds its session's delivery back for the reassembly
/// window, which stalls the whole serial round. Duplicates and reorders
/// come from a seeded net::FaultInjector. The injector only decides per
/// datagram, so it runs over 40-byte stand-ins (the real 32-byte header
/// plus a zeroed payload) and the result points back into the clean stream.
///
/// Frame k's datagrams are due k frame periods after sending starts
/// (frame-synchronous bursts).
NetWave fault_wave(const NetEpisode& episode, std::size_t session, std::size_t wave,
                   std::uint64_t seed) {
    std::vector<net::Datagram> standins;
    standins.reserve(episode.clean.size());
    for (const auto& datagram : episode.clean) {
        standins.emplace_back(datagram.begin(), datagram.begin() + net::kHeaderBytes);
        standins.back().resize(net::kHeaderBytes + 8, 0);
    }
    net::FaultInjector injector(net::FaultConfig{.duplicate_rate = kNetDuplicate,
                                                 .reorder_rate = kNetReorder,
                                                 .seed = mix(seed, wave)});
    standins = injector.apply(std::move(standins));

    const std::size_t frames = episode.frames();
    // The datagram that kills each scheduled frame: (seq, fragment) -> drop?
    std::map<std::pair<std::uint64_t, std::uint16_t>, bool> kills;
    for (std::size_t seq = 0; seq < frames; ++seq) {
        const std::size_t global = wave * frames + seq;
        if (global % kLossPeriod != kLossPeriod / 2) continue;
        const std::size_t end = seq + 1 < frames ? episode.first[seq + 1] : episode.clean.size() - 1;
        const auto fragment =
            static_cast<std::uint16_t>(mix(seed, global) % (end - episode.first[seq]));
        kills[{seq, fragment}] = (global / kLossPeriod + session) % 2 == 0;
    }

    NetWave out;
    out.duplicates = injector.counters().duplicated;
    out.lost_frames = kills.size();
    auto paced = std::make_shared<PacedStream>();
    out.frame_due_s.assign(frames, 0.0);
    std::map<std::pair<std::uint64_t, std::uint16_t>, std::size_t> killed_copies;
    for (const auto& standin : standins) {
        // Frame seq at header offset 16, fragment index at 24 (the WTNF layout).
        std::uint64_t seq = 0;
        std::uint16_t fragment = 0;
        std::memcpy(&seq, standin.data() + 16, sizeof(seq));
        std::memcpy(&fragment, standin.data() + 24, sizeof(fragment));
        const net::Datagram* datagram =
            &episode.clean[seq < frames ? episode.first[seq] + fragment : episode.clean.size() - 1];
        const auto kill = seq < frames ? kills.find({seq, fragment}) : kills.end();
        if (kill != kills.end()) {
            // Every copy dies, so a duplicate cannot rescue the frame.
            if (++killed_copies[kill->first] > 1) --out.duplicates;
            if (kill->second) continue;  // dropped
            paced->owned.push_back(*datagram);
            paced->owned.back()[net::kHeaderBytes] ^= 0x5A;  // fails its CRC
            datagram = &paced->owned.back();
            ++out.crc_errors;
        }
        paced->datagrams.push_back(datagram);
        paced->due_s.push_back(static_cast<double>(std::min<std::uint64_t>(seq, frames)) *
                               frame_period_s());
    }
    // A reordered pair is sent together, at the earlier of its due times.
    for (std::size_t i = paced->due_s.size() - 1; i-- > 0;)
        paced->due_s[i] = std::min(paced->due_s[i], paced->due_s[i + 1]);
    for (std::size_t i = 0; i < paced->datagrams.size(); ++i) {
        std::uint64_t seq = 0;
        std::memcpy(&seq, paced->datagrams[i]->data() + 16, sizeof(seq));
        if (seq < frames) out.frame_due_s[seq] = std::max(out.frame_due_s[seq], paced->due_s[i]);
    }
    out.stream = std::move(paced);
    return out;
}

/// Open loop: `seconds` one-second waves, each sending every episode at the
/// radio's frame rate with fresh link faults. Only the waves themselves
/// are timed; damaging the next wave's streams happens between them.
Phase run_net_phase(const std::vector<NetEpisode>& episodes, double seconds, Tracer& tracer) {
    Phase phase;
    // Serial, as witrackd runs by default: with a shared pool, every frame's
    // per-RX fan-out waited on the slowest of 4 vCPUs, and latency followed
    // the noise of neighbouring machines (p99 spread 0.3 against 0.006).
    engine::EngineHost host = make_host(1);
    double round_start = 0.0;
    const auto waves = static_cast<std::size_t>(std::max(1.0, std::round(seconds / kNetEpisodeS)));
    for (std::size_t w = 0; w < waves; ++w) {
        std::vector<NetWave> damaged;
        for (std::size_t s = 0; s < episodes.size(); ++s)
            damaged.push_back(fault_wave(episodes[s], s, w, episodes[s].fault_seed));

        const double begin = now_s();
        const double start = begin + 0.002;
        std::vector<std::unique_ptr<FrameProbe>> probes;
        std::vector<engine::SessionId> ids;
        std::vector<const PacedDatagramSource*> senders;
        std::vector<std::size_t> expected;
        for (std::size_t s = 0; s < episodes.size(); ++s) {
            const NetEpisode& episode = episodes[s];
            probes.push_back(make_probe(s + 1, tracer));
            probes.back()->input_ready = [start, &due = damaged[s].frame_due_s](std::uint64_t seq) {
                return start + due.at(seq);
            };
            auto sender = std::make_unique<PacedDatagramSource>(damaged[s].stream, start,
                                                                probes.back().get());
            senders.push_back(sender.get());
            net::NetSourceConfig config;
            config.fmcw = episode.config.fmcw;
            config.array = episode.array;
            config.session_token = episode.token;
            ids.push_back(host.admit(
                "wtnf-" + std::to_string(s), episode.config,
                std::make_unique<TimedSource>(
                    std::make_unique<net::NetSource>(std::move(sender), config),
                    Layer::kNetNext, *probes.back())));
            wire_home(*host.session(ids.back()), *probes.back());
            expected.push_back(episode.frames());
        }
        drive_rounds(host, tracer, round_start, [] {});
        phase.wall_s += now_s() - begin;

        for (std::size_t s = 0; s < ids.size(); ++s) {
            const NetWave& sent = damaged[s];
            const engine::NetIngestStats net = host.session(ids[s])->net_stats().value();
            const std::string who = "wtnf session " + std::to_string(s) + ": ";
            if (net.frames_delivered + net.frame_gaps != expected[s])
                phase.problem(who + "delivered + gaps != frames sent");
            if (net.frame_gaps != sent.lost_frames)
                phase.problem(who + "frame_gaps != frames the link destroyed");
            if (net.crc_errors != sent.crc_errors)
                phase.problem(who + "crc_errors != corrupted datagrams");
            // A surplus copy that lands after its frame closed is a late
            // fragment rather than a duplicate; together they are exact.
            if (net.duplicates + net.late_fragments != sent.duplicates)
                phase.problem(who + "duplicates + late fragments != duplicated datagrams");
            if (probes[s]->frames != net.frames_delivered)
                phase.problem(who + "probed frames != frames delivered");
            phase.net += net;
            phase.net_frames_sent += expected[s];
            phase.link_lost += sent.lost_frames;
            phase.wait_s += senders[s]->wait_s();
            phase.backlog_max = std::max(phase.backlog_max, senders[s]->backlog_max());
        }
        // Frames the link lost are misses, not a broken session.
        settle_wave(host, phase, ids, probes, expected, /*lossy=*/true);
        host.reap();
        phase.end_unit();
    }
    return phase;
}

// ------------------------------------------------------------ replay_single

/// A window of another script: pose_at(t) is the inner pose at t + offset.
class WindowScript final : public sim::MotionScript {
  public:
    WindowScript(std::unique_ptr<sim::MotionScript> inner, double offset_s, double duration_s)
        : inner_(std::move(inner)), offset_s_(offset_s), duration_s_(duration_s) {}
    sim::Pose pose_at(double t) const override { return inner_->pose_at(t + offset_s_); }
    double duration_s() const override { return duration_s_; }

  private:
    std::unique_ptr<sim::MotionScript> inner_;
    double offset_s_;
    double duration_s_;
};

struct Recording {
    std::string path;
    std::vector<geom::Vec3> track;  ///< smoothed track of the recording run
};

/// Simulate a seeded fall (from kFallLeadS before the body starts to drop)
/// through the home deployment while recording every frame.
Recording record_fall(std::uint64_t seed, const std::string& path) {
    auto fall = std::make_unique<sim::ActivityScript>(sim::ActivityKind::kFall, walk_bounds(),
                                                      Rng(mix(kMotionSeed, 700)));
    const double stand_z = fall->pose_at(0.0).center.z;
    double onset = 0.0;
    while (onset < fall->duration_s() && fall->pose_at(onset).center.z > 0.9 * stand_z)
        onset += frame_period_s();
    auto script = std::make_unique<WindowScript>(
        std::move(fall), std::max(0.0, onset - kFallLeadS), kReplayEpisodeS);

    engine::EngineConfig config;
    config.with_seed(mix(seed, 701)).with_workers(1);
    auto source = std::make_unique<engine::SimSource>(config, std::move(script));
    engine::Recorder recorder(path, source->fmcw(), source->array());
    engine::Engine engine(config, std::move(source));
    FrameProbe probe;
    probe.keep_track = true;
    probe.recorder = &recorder;
    probe.input_ready = [](std::uint64_t) { return now_s(); };
    wire_home(engine, probe);
    engine.run();
    recorder.close();
    return {path, std::move(probe.track)};
}

bool same_bits(const std::vector<geom::Vec3>& a, const std::vector<geom::Vec3>& b) {
    return a.size() == b.size() &&
           (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(geom::Vec3)) == 0);
}

Phase run_replay_phase(const Recording& recording, double seconds, Tracer& tracer) {
    Phase phase;
    double step_start = 0.0;
    std::uint64_t steps = 0;
    const double begin = now_s();
    do {
        auto probe = make_probe(1, tracer);
        probe->keep_track = true;
        probe->input_ready = [&step_start](std::uint64_t) { return step_start; };
        engine::EngineConfig config;
        config.with_workers(1);
        engine::Engine engine(config, std::make_unique<TimedSource>(
                                          std::make_unique<engine::ReplaySource>(recording.path),
                                          Layer::kReplayNext, *probe));
        wire_home(engine, *probe);
        for (bool more = true; more;) {
            step_start = now_s();
            const auto span = tracer.open(Layer::kStep, 0, steps++, step_start);
            more = engine.step();
            tracer.close(span, now_s());
            if (!more) tracer.set_seq(span, kNoFrame);
        }
        engine.finish();
        phase.add_steps(engine.take_stage_stats());
        if (!same_bits(probe->track, recording.track)) {
            phase.problem("replayed track differs from the recorded run's");
            probe->frames = 0;  // every frame of the pass is suspect: all misses
            probe->latency_s.clear();
        }
        phase.collect(*probe, recording.track.size());
        phase.end_unit();
    } while (now_s() - begin < seconds);
    phase.wall_s = now_s() - begin;
    return phase;
}

// ------------------------------------------------------------------ metrics

void add(std::vector<Metric>& out, std::string name, double value, std::string unit) {
    out.push_back({std::move(name), value, std::move(unit)});
}

void add_percentiles(std::vector<Metric>& out, const std::string& name, std::vector<double> values,
                     const std::string& unit) {
    add(out, name + "_p50", percentile(values, 0.5), unit);
    add(out, name + "_p99", percentile(values, 0.99), unit);
}

/// Tracking error of the smoothed track against the simulator's truth
/// (the paper's Fig. 8 medians). It is deterministic per seed but differs
/// from seed to seed by more than any bound a run-to-run comparison could
/// use, so it is reported with the per-layer metrics and on the context
/// line rather than gated as an end-to-end metric.
void add_accuracy(std::vector<Metric>& out, const Phase& phase) {
    std::vector<double> errors = phase.error_m;
    add(out, "track_err_m_p50", percentile(errors, 0.5), "m");
    add(out, "track_err_m_p90", percentile(errors, 0.9), "m");
}

void end_to_end(Outcome& outcome, Phase& phase, double setup_s) {
    const double latency_p50 = percentile(phase.latency_s, 0.5);
    const double latency_p99 = percentile(phase.latency_s, 0.99);
    if (!std::isfinite(latency_p50) || !std::isfinite(latency_p99))
        phase.problem("more than 1% of the frames were lost: latency percentile is a miss");
    add(outcome.metrics, "frames_per_s", phase.fps(), "frames/s");
    add(outcome.metrics, "frame_latency_ms_p50", latency_p50 * 1e3, "ms");
    add(outcome.metrics, "frame_latency_ms_p99", latency_p99 * 1e3, "ms");
    // Frames the link destroyed count here: the user never sees them.
    const double failed_ratio = phase.offered > 0
        ? static_cast<double>(phase.unprocessed()) / static_cast<double>(phase.offered) : 1.0;
    add(outcome.metrics, "frames_ok_ratio", 1.0 - failed_ratio, "ratio");
    add(outcome.metrics, "setup_s", setup_s, "s");
    add(outcome.metrics, "peak_rss_mb", phase.first_unit_rss_mb, "MB");
    add(outcome.info, "frames_failed_ratio", failed_ratio, "ratio");
    add_accuracy(outcome.info, phase);
    add(outcome.info, "latency_samples", static_cast<double>(phase.latency_s.size()), "count");
}

double step_mean_us(const Phase& phase, const std::string& step) {
    const auto it = phase.steps.find("pipeline." + step);
    if (it == phase.steps.end() || it->second.samples == 0) return 0.0;
    return it->second.total_s / static_cast<double>(it->second.samples) * 1e6;
}

void per_layer(Outcome& outcome, const Phase& untraced, const Phase& traced,
               const Tracer& tracer) {
    auto& out = outcome.metrics;
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = tracer.self_times_all();
    // Self times of one layer's spans, leaving out calls that produced no
    // frame (the one that found the source exhausted).
    auto layer_times = [&](Layer layer, double scale) {
        std::vector<double> out;
        for (std::size_t i = 0; i < spans.size(); ++i)
            if (spans[i].layer == layer && spans[i].seq != kNoFrame)
                out.push_back(self[i] * scale);
        return out;
    };
    auto durations = [&](Layer layer, double scale) {
        std::vector<double> out;
        for (const Span& span : spans)
            if (span.layer == layer) out.push_back((span.t1 - span.t0) * scale);
        return out;
    };

    add_accuracy(out, untraced);
    add_percentiles(out, "sim.next_ms", layer_times(Layer::kSimNext, 1e3), "ms");
    add_percentiles(out, "replay.next_us", layer_times(Layer::kReplayNext, 1e6), "us");
    add_percentiles(out, "net.next_busy_us", layer_times(Layer::kNetNext, 1e6), "us");
    const double units = static_cast<double>(std::max<std::size_t>(1, traced.units));
    add(out, "net.wait_share", traced.wall_s > 0.0 ? traced.wait_s / traced.wall_s : 0.0, "ratio");
    add(out, "net.backlog_datagrams_max", static_cast<double>(traced.backlog_max), "count");
    add(out, "net.delivered_ratio",
        traced.net_frames_sent > 0 ? static_cast<double>(traced.net.frames_delivered) /
                                         static_cast<double>(traced.net_frames_sent)
                                   : 0.0,
        "ratio");
    add(out, "net.crc_errors", static_cast<double>(traced.net.crc_errors) / units, "count");
    add(out, "net.duplicates", static_cast<double>(traced.net.duplicates) / units, "count");
    add(out, "net.frame_gaps", static_cast<double>(traced.net.frame_gaps) / units, "count");
    add_percentiles(out, "pipeline.frame_us", layer_times(Layer::kPipeline, 1e6), "us");
    for (const char* step : {"fft", "subtract", "contour", "denoise", "localize", "smooth"})
        add(out, std::string("pipeline.") + step + "_us", step_mean_us(traced, step), "us");
    add_percentiles(out, "stages.frame_us", layer_times(Layer::kStages, 1e6), "us");
    const std::vector<double> rounds_s = durations(Layer::kRound, 1.0);
    double round_total_s = 0.0;
    for (double round : rounds_s) round_total_s += round;
    add_percentiles(out, "host.round_ms", durations(Layer::kRound, 1e3), "ms");
    add(out, "host.parallelism", round_total_s > 0.0 ? traced.session_step_s / round_total_s : 0.0,
        "x");
    add_percentiles(out, "snapshot.checkpoint_us", durations(Layer::kCheckpoint, 1e6), "us");
    add(out, "snapshot.bytes", static_cast<double>(traced.snapshot_bytes), "bytes");
    add(out, "quality.degraded_frames", static_cast<double>(traced.degraded_frames) / units,
        "count");

    // Tracing cost, and (for the standalone engine) whether the layers'
    // self times add up to the untraced step latency: per step, the self
    // times of its children (replay.next, pipeline, stages).
    const double overhead =
        untraced.fps() > 0.0 ? (untraced.fps() - traced.fps()) / untraced.fps() : 0.0;
    add(out, "trace.overhead_ratio", overhead, "ratio");
    std::vector<double> covered(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const auto parent = spans[i].parent;
        if (parent >= 0 && spans[static_cast<std::size_t>(parent)].layer == Layer::kStep)
            covered[static_cast<std::size_t>(parent)] += self[i];
    }
    std::vector<double> per_step;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].layer == Layer::kStep && spans[i].seq != kNoFrame)
            per_step.push_back(covered[i]);
    std::vector<double> latency = untraced.latency_s;
    const double untraced_p50 = percentile(latency, 0.5);
    add(out, "trace.reconcile_ratio",
        per_step.empty() || untraced_p50 <= 0.0 ? 0.0 : percentile(per_step, 0.5) / untraced_p50,
        "ratio");
    add(outcome.info, "trace_spans", static_cast<double>(spans.size()), "count");
}

/// Shared shape of every workload: median set-up, then an untraced timed
/// phase. Traced mode alternates untraced and traced slices, kTraceSlices
/// of each, so that tracing overhead and reconciliation compare phases run
/// under the same machine conditions.
template <typename Inputs, typename Setup, typename RunPhase>
Outcome measure(const Options& options, Setup&& setup, RunPhase&& run_phase) {
    Inputs inputs;
    const double setup_s = median_setup_s([&] {
        inputs = Inputs{};  // free the previous build first: peak memory is one set
        inputs = setup();
    });

    Tracer off(false);
    Tracer on(true);
    Phase untraced;
    Phase traced;
    if (!options.trace) {
        untraced = run_phase(inputs, options.seconds, off);
    } else {
        const double slice_s = options.seconds / kTraceSlices;
        for (int i = 0; i < kTraceSlices; ++i) {
            untraced.merge(run_phase(inputs, slice_s, off));
            traced.merge(run_phase(inputs, slice_s, on));
        }
    }
    Outcome outcome;
    const Phase* reported = options.trace ? &traced : &untraced;
    outcome.attempted = reported->offered;
    outcome.failed = reported->failed();

    std::vector<double> errors = untraced.error_m;
    const double err_p50 = percentile(errors, 0.5);
    if (!(err_p50 < kTrackErrCeilingM))
        untraced.problem("track_err_m_p50 " + std::to_string(err_p50) + " m exceeds the " +
                         std::to_string(kTrackErrCeilingM) + " m ceiling");
    if (options.trace) {
        per_layer(outcome, untraced, traced, on);
        std::filesystem::create_directories(std::string(kOutDir) + "/traces");
        const std::string path = std::string(kOutDir) + "/traces/" + options.workload + "-seed" +
                                 std::to_string(options.seed) + ".jsonl";
        on.write_jsonl(path);
    } else {
        end_to_end(outcome, untraced, setup_s);
    }
    for (Phase* phase : {&untraced, &traced})
        outcome.problems.insert(outcome.problems.end(), phase->problems.begin(),
                                phase->problems.end());
    if (!outcome.problems.empty() && outcome.failed == 0) outcome.failed = 1;
    add(outcome.info, "units", static_cast<double>(reported->units), "count");
    return outcome;
}

}  // namespace

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"sim_fleet", "wtnf_stream", "replay_single"};
    return names;
}

Outcome run_workload(const Options& options) {
    if (options.workload == "sim_fleet") {
        return measure<std::vector<FleetSession>>(
            options,
            [&] {
                auto sessions = fleet_sessions(options.seed);
                for (const auto& session : sessions) build_walk(session);
                return sessions;
            },
            run_fleet_phase);
    }
    if (options.workload == "wtnf_stream") {
        return measure<std::vector<NetEpisode>>(
            options, [&] { return build_net_episodes(options.seed); }, run_net_phase);
    }
    if (options.workload == "replay_single") {
        std::filesystem::create_directories(kOutDir);
        const std::string path = std::string(kOutDir) + "/replay-seed" +
                                 std::to_string(options.seed) + ".wtrk";
        Outcome outcome = measure<Recording>(
            options, [&] { return record_fall(options.seed, path); },
            [](const Recording& recording, double seconds, Tracer& tracer) {
                Tracer off(false);
                run_replay_phase(recording, 0.0, off);  // warm caches: one pass
                return run_replay_phase(recording, seconds, tracer);
            });
        std::filesystem::remove(path);
        return outcome;
    }
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
