#include "engine/host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace witrack::engine {

namespace {

double steady_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) --
/// session names and fault reasons are operator-provided free text.
void append_json_string(std::string& out, const std::string& text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_field(std::string& out, const char* key, std::uint64_t value,
                  bool leading_comma = true) {
    if (leading_comma) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void append_field(std::string& out, const char* key, double value,
                  bool leading_comma = true) {
    if (leading_comma) out += ',';
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key, value);
    out += buf;
}

void append_quality(std::string& out, const QualityStats& quality) {
    out += "{";
    append_field(out, "frames", quality.frames, false);
    append_field(out, "degraded_frames", quality.degraded_frames);
    append_field(out, "rx_dropouts", quality.rx_dropouts);
    append_field(out, "saturated_rx", quality.saturated_rx);
    append_field(out, "dropped_sweeps", quality.dropped_sweeps);
    append_field(out, "short_sweeps", quality.short_sweeps);
    append_field(out, "noise_bursts", quality.noise_bursts);
    append_field(out, "drift_frames", quality.drift_frames);
    append_field(out, "mean_health", quality.mean_health());
    append_field(out, "min_health", quality.min_health);
    out += "}";
}

void append_net(std::string& out, const NetIngestStats& net) {
    out += "{";
    append_field(out, "datagrams", net.datagrams, false);
    append_field(out, "bytes", net.bytes);
    append_field(out, "frames_delivered", net.frames_delivered);
    append_field(out, "frame_gaps", net.frame_gaps);
    append_field(out, "reorders", net.reorders);
    append_field(out, "duplicates", net.duplicates);
    append_field(out, "late_fragments", net.late_fragments);
    append_field(out, "crc_errors", net.crc_errors);
    append_field(out, "truncated", net.truncated);
    append_field(out, "bad_magic", net.bad_magic);
    append_field(out, "version_skew", net.version_skew);
    append_field(out, "malformed", net.malformed);
    append_field(out, "foreign_token", net.foreign_token);
    append_field(out, "idle_timeouts", net.idle_timeouts);
    out += "}";
}

}  // namespace

std::string to_json(const FleetStats& stats) {
    std::string out;
    out.reserve(256 + stats.sessions.size() * 192);
    out += "{";
    append_field(out, "frames", static_cast<std::uint64_t>(stats.frames), false);
    append_field(out, "wall_s", stats.wall_s);
    append_field(out, "throughput_fps", stats.throughput_fps);
    append_field(out, "sessions_admitted",
                 static_cast<std::uint64_t>(stats.sessions_admitted));
    append_field(out, "sessions_finished",
                 static_cast<std::uint64_t>(stats.sessions_finished));
    append_field(out, "sessions_evicted",
                 static_cast<std::uint64_t>(stats.sessions_evicted));
    append_field(out, "active_sessions",
                 static_cast<std::uint64_t>(stats.active_sessions));
    append_field(out, "queued_sessions",
                 static_cast<std::uint64_t>(stats.queued_sessions));
    append_field(out, "sessions_restarted",
                 static_cast<std::uint64_t>(stats.sessions_restarted));
    out += ",\"net\":";
    append_net(out, stats.net);
    out += ",\"quality\":";
    append_quality(out, stats.quality);
    out += ",\"sessions\":[";
    for (std::size_t i = 0; i < stats.sessions.size(); ++i) {
        const SessionStats& session = stats.sessions[i];
        if (i > 0) out += ',';
        out += "{";
        append_field(out, "id", static_cast<std::uint64_t>(session.id), false);
        out += ",\"name\":";
        append_json_string(out, session.name);
        out += ",\"state\":\"";
        out += to_string(session.state);
        out += '"';
        append_field(out, "frames", static_cast<std::uint64_t>(session.frames));
        append_field(out, "mean_step_ms", session.mean_step_s() * 1e3);
        append_field(out, "max_step_ms", session.max_step_s * 1e3);
        append_field(out, "health", session.recent_health);
        if (session.restarts > 0)
            append_field(out, "restarts",
                         static_cast<std::uint64_t>(session.restarts));
        if (session.quality.degraded_frames > 0) {
            out += ",\"quality\":";
            append_quality(out, session.quality);
        }
        if (!session.fault.empty()) {
            out += ",\"fault\":";
            append_json_string(out, session.fault);
        }
        if (!session.stages.empty()) {
            out += ",\"stages\":[";
            for (std::size_t s = 0; s < session.stages.size(); ++s) {
                const Engine::StageStats& stage = session.stages[s];
                if (s > 0) out += ',';
                out += "{\"name\":";
                append_json_string(out, stage.name);
                append_field(out, "frames",
                             static_cast<std::uint64_t>(stage.frames));
                append_field(out, "mean_ms", stage.mean_s() * 1e3);
                append_field(out, "max_ms", stage.max_s * 1e3);
                out += "}";
            }
            out += "]";
        }
        if (session.net) {
            out += ",\"net\":";
            append_net(out, *session.net);
        }
        out += "}";
    }
    out += "]}";
    return out;
}

EngineHost::EngineHost(HostConfig config)
    : config_(config),
      workers_(resolve_worker_count(config.workers)),
      plans_(config.plan_cache != nullptr ? config.plan_cache
                                          : &dsp::FftPlanCache::global()) {
    if (config_.max_sessions == 0)
        throw std::invalid_argument("EngineHost: max_sessions must be >= 1");
    // A NaN threshold would fail every `health >= threshold` test and
    // restart (then evict) every restartable session each window.
    if (!(config_.health_threshold >= 0.0 && config_.health_threshold <= 1.0))
        throw std::invalid_argument("EngineHost: health_threshold must be in [0, 1]");
    if (workers_ > 1) pool_ = std::make_unique<common::WorkerPool>(workers_);
    window_started_s_ = steady_seconds();
}

SessionId EngineHost::admit(std::string name, EngineConfig config,
                            std::unique_ptr<FrameSource> source) {
    const bool full = active_sessions() >= config_.max_sessions;
    if (full && !config_.queue_when_full)
        throw std::runtime_error("EngineHost: admission rejected, " +
                                 std::to_string(config_.max_sessions) +
                                 " sessions already active");

    auto session = std::make_unique<Session>();
    session->id = next_id_++;
    session->name = std::move(name);
    session->queued = full;
    // The fleet-session Engine: parallelism from the shared pool (the
    // host's decision, not the session config's), FFT plans from the shared
    // cache.
    session->engine = std::make_unique<Engine>(std::move(config),
                                               std::move(source), pool_.get(),
                                               plans_);
    session->engine->set_session_id(session->id);
    const SessionId id = session->id;
    sessions_.push_back(std::move(session));
    ++admitted_total_;
    return id;
}

SessionId EngineHost::admit_restartable(
    std::string name, EngineConfig config, SourceFactory factory,
    const std::function<void(Engine&)>& wire_stages) {
    if (!factory)
        throw std::invalid_argument(
            "EngineHost: admit_restartable needs a source factory");
    auto source = factory();
    // Wire the initial incarnation exactly as a restart would.
    EngineConfig config_copy = config;
    const SessionId id = admit(std::move(name), std::move(config),
                               std::move(source));
    Session* session = find(id);
    session->engine_config = std::move(config_copy);
    session->factory = std::move(factory);
    session->wire_stages = wire_stages;
    if (session->wire_stages) session->wire_stages(*session->engine);
    return id;
}

void EngineHost::checkpoint_session(SessionId id, std::ostream& out) const {
    const Session* session = find(id);
    if (session == nullptr)
        throw std::out_of_range("EngineHost: unknown session " + std::to_string(id));
    session->engine->snapshot(out);
}

SessionId EngineHost::restore_session(
    std::string name, EngineConfig config, std::unique_ptr<FrameSource> source,
    std::istream& snapshot, const std::function<void(Engine&)>& wire_stages) {
    const bool full = active_sessions() >= config_.max_sessions;
    if (full && !config_.queue_when_full)
        throw std::runtime_error("EngineHost: admission rejected, " +
                                 std::to_string(config_.max_sessions) +
                                 " sessions already active");

    // Build and restore the Engine BEFORE registering anything: a corrupt
    // snapshot throws out of restore() and the host -- including every live
    // session -- is left exactly as it was.
    auto engine = std::make_unique<Engine>(std::move(config), std::move(source),
                                           pool_.get(), plans_);
    if (wire_stages) wire_stages(*engine);
    engine->restore(snapshot);

    auto session = std::make_unique<Session>();
    session->id = next_id_++;
    session->name = std::move(name);
    session->queued = full;
    session->engine = std::move(engine);
    session->engine->set_session_id(session->id);
    const SessionId id = session->id;
    sessions_.push_back(std::move(session));
    ++admitted_total_;
    return id;
}

EngineHost::Session* EngineHost::find(SessionId id) {
    for (auto& session : sessions_)
        if (session->id == id) return session.get();
    return nullptr;
}

const EngineHost::Session* EngineHost::find(SessionId id) const {
    for (const auto& session : sessions_)
        if (session->id == id) return session.get();
    return nullptr;
}

Engine* EngineHost::session(SessionId id) {
    Session* found = find(id);
    return found != nullptr ? found->engine.get() : nullptr;
}

const Engine* EngineHost::session(SessionId id) const {
    const Session* found = find(id);
    return found != nullptr ? found->engine.get() : nullptr;
}

SessionState EngineHost::state(SessionId id) const {
    const Session* found = find(id);
    if (found == nullptr)
        throw std::out_of_range("EngineHost: unknown session id " +
                                std::to_string(id));
    return found->engine->session_state();
}

void EngineHost::pause(SessionId id) {
    Session* found = find(id);
    if (found != nullptr) found->paused = true;
}

void EngineHost::resume(SessionId id) {
    Session* found = find(id);
    if (found == nullptr) return;
    found->paused = false;
    found->lag = 0;
}

bool EngineHost::terminal(const Session& session) const {
    const SessionState state = session.engine->session_state();
    return state == SessionState::kFinished || state == SessionState::kEvicted;
}

bool EngineHost::evict(SessionId id, std::string reason) {
    Session* found = find(id);
    if (found == nullptr || terminal(*found)) return false;
    evict_session(*found, std::move(reason));
    promote_queued();
    return true;
}

void EngineHost::evict_session(Session& session, std::string reason) {
    session.fault = std::move(reason);
    session.engine->mark_evicted();
    session.accounted = true;
    ++evicted_total_;
}

void EngineHost::promote_queued() {
    // FIFO promotion in admission order: the vector already is that order.
    for (auto& session : sessions_) {
        if (active_sessions() >= config_.max_sessions) return;
        if (session->queued && !terminal(*session)) session->queued = false;
    }
}

std::size_t EngineHost::reap() {
    settle();  // count (and promote around) out-of-band finishes first
    const std::size_t before = sessions_.size();
    std::erase_if(sessions_, [this](const std::unique_ptr<Session>& session) {
        return terminal(*session);
    });
    return before - sessions_.size();
}

std::size_t EngineHost::active_sessions() const {
    std::size_t count = 0;
    for (const auto& session : sessions_)
        if (!session->queued && !terminal(*session)) ++count;
    return count;
}

std::size_t EngineHost::queued_sessions() const {
    std::size_t count = 0;
    for (const auto& session : sessions_)
        if (session->queued && !terminal(*session)) ++count;
    return count;
}

void EngineHost::settle() {
    // Sessions can reach a terminal state outside the scheduler: session()
    // hands out the Engine*, and a caller may run()/finish() it directly.
    // Catch up the lifetime counters and hand the freed slots to the queue,
    // so an out-of-band finish never starves a queued tenant.
    for (auto& session : sessions_) {
        if (session->accounted || !terminal(*session)) continue;
        session->accounted = true;
        if (session->engine->session_state() == SessionState::kFinished)
            ++finished_total_;
        else
            ++evicted_total_;
        promote_queued();
    }
}

std::size_t EngineHost::step_all() {
    settle();
    const std::size_t processed = round_serial();
    watch_health();
    ++rounds_;
    return processed;
}

void EngineHost::watch_health() {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session& session = *sessions_[i];
        if (session.queued || terminal(session)) continue;
        // Quality deltas since the last round roll into this session's
        // tumbling watchdog window. Restarts keep the marks consistent:
        // the restored engine resumes the cumulative counters.
        const QualityStats& cumulative = session.engine->quality_stats();
        if (cumulative.frames < session.mark_frames) {
            // Caller restored this engine out-of-band to an older cursor;
            // re-anchor instead of producing a negative delta.
            session.mark_frames = cumulative.frames;
            session.mark_health_sum = cumulative.health_sum;
            continue;
        }
        session.window_frames += cumulative.frames - session.mark_frames;
        session.window_health_sum +=
            cumulative.health_sum - session.mark_health_sum;
        session.mark_frames = cumulative.frames;
        session.mark_health_sum = cumulative.health_sum;
        if (session.window_frames == 0) continue;
        session.recent_health = session.window_health_sum /
                                static_cast<double>(session.window_frames);
        if (session.window_frames < config_.health_window) continue;
        const double window_health = session.recent_health;
        session.window_frames = 0;
        session.window_health_sum = 0.0;
        if (config_.health_threshold <= 0.0 || !session.factory) continue;
        if (window_health >= config_.health_threshold) continue;
        if (session.restarts >= config_.max_restarts) {
            evict_session(session,
                          "health " + std::to_string(window_health) +
                              " below threshold after " +
                              std::to_string(session.restarts) + " restarts");
            promote_queued();
            continue;
        }
        restart_session(session);
    }
}

void EngineHost::restart_session(Session& session) {
    try {
        // In-memory checkpoint -> fresh engine (fresh source from the
        // factory, stages re-wired) -> restore -> swap into the same
        // record. Siblings never observe any of it.
        std::stringstream snapshot;
        session.engine->snapshot(snapshot);
        auto engine = std::make_unique<Engine>(session.engine_config,
                                               session.factory(), pool_.get(),
                                               plans_);
        if (session.wire_stages) session.wire_stages(*engine);
        engine->restore(snapshot);
        session.engine = std::move(engine);
        session.engine->set_session_id(session.id);
        ++session.restarts;
        ++restarts_total_;
    } catch (const std::exception& error) {
        evict_session(session,
                      std::string("watchdog restart failed: ") + error.what());
        promote_queued();
    }
}

void EngineHost::lag_session(Session& session) {
    // Backpressure: a session that cannot consume its frames falls
    // behind the stream one frame per round. A live radio drops
    // those frames on the floor; past the configured lag the
    // session's tracking state is stale beyond recovery and the
    // host reclaims the slot.
    ++session.lag;
    if (config_.max_frame_lag > 0 && session.lag > config_.max_frame_lag) {
        evict_session(session,
                      "frame lag " + std::to_string(session.lag) +
                          " exceeded max_frame_lag " +
                          std::to_string(config_.max_frame_lag));
        promote_queued();
    }
}

std::size_t EngineHost::round_serial() {
    std::size_t processed = 0;
    // Fair round-robin over a stable admission order: each schedulable
    // session consumes exactly one frame before any session sees a second.
    // Index loop on purpose -- step() can run stages that admit sessions.
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session& session = *sessions_[i];
        if (session.queued || terminal(session)) continue;

        if (session.paused) {
            lag_session(session);
            continue;
        }

        try {
            const auto t0 = std::chrono::steady_clock::now();
            const bool produced = session.engine->step();
            const auto t1 = std::chrono::steady_clock::now();
            if (produced) {
                const double elapsed =
                    std::chrono::duration<double>(t1 - t0).count();
                ++session.frames;
                session.total_step_s += elapsed;
                session.max_step_s = std::max(session.max_step_s, elapsed);
                session.lag = 0;
                ++processed;
                ++frames_window_;
            } else {
                // Source exhausted: Draining -> deliver the episode
                // finish() work -> Finished, and hand the slot on.
                session.engine->finish();
                session.accounted = true;
                ++finished_total_;
                promote_queued();
            }
        } catch (const std::exception& error) {
            // Fault isolation: the throwing session is evicted; the
            // remaining sessions keep their slots and their state.
            evict_session(session, std::string("step() threw: ") + error.what());
            promote_queued();
        } catch (...) {
            evict_session(session, "step() threw a non-std exception");
            promote_queued();
        }
    }
    return processed;
}

bool EngineHost::progress_possible() const {
    for (const auto& session : sessions_) {
        if (session->queued || terminal(*session)) continue;
        if (!session->paused) return true;
        // A paused session still progresses toward eviction when lag is
        // bounded; with max_frame_lag == 0 it would spin forever.
        if (config_.max_frame_lag > 0) return true;
    }
    return false;
}

std::size_t EngineHost::run(std::size_t max_frames) {
    std::size_t processed = 0;
    for (;;) {
        settle();  // out-of-band finishes free slots before the check below
        if (!progress_possible()) break;
        if (max_frames > 0 && processed >= max_frames) break;
        processed += step_all();
    }
    return processed;
}

FleetStats EngineHost::take_fleet_stats() {
    FleetStats stats;
    const double now_s = steady_seconds();
    stats.frames = frames_window_;
    stats.wall_s = now_s - window_started_s_;
    stats.throughput_fps =
        stats.wall_s > 0.0 ? static_cast<double>(stats.frames) / stats.wall_s : 0.0;
    stats.sessions_admitted = admitted_total_;
    stats.sessions_finished = finished_total_;
    stats.sessions_evicted = evicted_total_;
    stats.active_sessions = active_sessions();
    stats.queued_sessions = queued_sessions();
    stats.sessions_restarted = restarts_total_;

    stats.sessions.reserve(sessions_.size());
    for (auto& session : sessions_) {
        SessionStats rollup;
        rollup.id = session->id;
        rollup.name = session->name;
        rollup.state = session->engine->session_state();
        rollup.frames = session->frames;
        rollup.total_step_s = session->total_step_s;
        rollup.max_step_s = session->max_step_s;
        rollup.stages = session->engine->take_stage_stats();
        rollup.fault = session->fault;
        rollup.net = session->engine->net_stats();
        if (rollup.net) stats.net += *rollup.net;
        rollup.quality = session->engine->quality_stats();
        stats.quality += rollup.quality;
        rollup.recent_health = session->recent_health;
        rollup.restarts = session->restarts;
        stats.sessions.push_back(std::move(rollup));

        session->frames = 0;
        session->total_step_s = 0.0;
        session->max_step_s = 0.0;
    }

    frames_window_ = 0;
    window_started_s_ = now_s;
    return stats;
}

std::string to_json(const std::vector<EngineHost::SessionHealth>& sessions) {
    std::string out;
    out.reserve(64 + sessions.size() * 256);
    out += "{\"sessions\":[";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const EngineHost::SessionHealth& session = sessions[i];
        if (i > 0) out += ',';
        out += "{";
        append_field(out, "id", static_cast<std::uint64_t>(session.id), false);
        out += ",\"name\":";
        append_json_string(out, session.name);
        out += ",\"state\":\"";
        out += to_string(session.state);
        out += '"';
        append_field(out, "health", session.recent_health);
        out += ",\"degraded\":";
        out += session.degraded ? "true" : "false";
        append_field(out, "restarts",
                     static_cast<std::uint64_t>(session.restarts));
        out += ",\"quality\":";
        append_quality(out, session.quality);
        out += "}";
    }
    out += "]}";
    return out;
}

std::vector<EngineHost::SessionHealth> EngineHost::session_health() const {
    std::vector<SessionHealth> out;
    out.reserve(sessions_.size());
    for (const auto& session : sessions_) {
        SessionHealth health;
        health.id = session->id;
        health.name = session->name;
        health.state = session->engine->session_state();
        health.quality = session->engine->quality_stats();
        health.recent_health = session->recent_health;
        health.restarts = session->restarts;
        health.degraded = session->recent_health < 1.0;
        out.push_back(std::move(health));
    }
    return out;
}

}  // namespace witrack::engine
