// Fleet runtime suite. The contract under test: an EngineHost multiplexing
// heterogeneous sessions (sim + replay, different demand masks) over one
// shared WorkerPool produces per-session output bit-identical to the same
// sessions run standalone on dedicated Engines -- under the serial and the
// shared-pool schedules -- while admission control, backpressure eviction
// and fault isolation keep tenants from hurting each other. Plus the
// FftPlanCache sharing proof and WorkerPool multi-client semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/pipeline_steps.hpp"
#include "dsp/fft_plan_cache.hpp"
#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"

namespace witrack {
namespace {

using core::PipelineOutputs;
using geom::Vec3;

// ------------------------------------------------------------ helpers

engine::EngineConfig walk_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<sim::LineWalkScript> walk_script(double x0 = -1.0, double x1 = 1.0) {
    return std::make_unique<sim::LineWalkScript>(Vec3{x0, 5, 0}, Vec3{x1, 5, 0},
                                                 2.0, 1.0);
}

void expect_same_track(const std::vector<core::TrackPoint>& a,
                       const std::vector<core::TrackPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time_s, b[i].time_s);
        EXPECT_EQ(a[i].position.x, b[i].position.x);
        EXPECT_EQ(a[i].position.y, b[i].position.y);
        EXPECT_EQ(a[i].position.z, b[i].position.z);
        EXPECT_EQ(a[i].residual_rms, b[i].residual_rms);
    }
}

void expect_same_tof(const core::TofFrame& a, const core::TofFrame& b) {
    ASSERT_EQ(a.antennas.size(), b.antennas.size());
    EXPECT_EQ(a.time_s, b.time_s);
    for (std::size_t rx = 0; rx < a.antennas.size(); ++rx) {
        const auto& x = a.antennas[rx];
        const auto& y = b.antennas[rx];
        EXPECT_EQ(x.contour.detected, y.contour.detected);
        EXPECT_EQ(x.contour.round_trip_m, y.contour.round_trip_m);
        ASSERT_EQ(x.denoised_m.has_value(), y.denoised_m.has_value());
        if (x.denoised_m) {
            EXPECT_EQ(*x.denoised_m, *y.denoised_m);
        }
    }
}

/// Record a deterministic sim episode to `path` once.
void record_episode(const std::string& path, std::uint64_t seed) {
    auto config = walk_config(seed);
    engine::SimSource live(config, walk_script());
    engine::Recorder recorder(path, live.fmcw(), live.array());
    engine::Frame frame;
    while (live.next(frame)) recorder.write(frame);
    recorder.close();
}

/// Minimal TOF-consuming stage: records each frame's TOF observations.
class TofTapStage : public engine::AppStage {
  public:
    std::string_view name() const override { return "tof_tap"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    bool concurrent_safe() const override { return true; }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult& result,
                  engine::EventBus&) override {
        frames.push_back(result.tof);
    }
    std::vector<core::TofFrame> frames;
};

/// Publishes one PersonsEvent from finish() -- probes whether episode
/// verdicts leak out of an evicted session.
class FinishProbeStage : public engine::AppStage {
  public:
    std::string_view name() const override { return "finish_probe"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {}
    void finish(engine::EventBus& bus) override {
        bus.publish(engine::PersonsEvent{0.0, {}, {}});
    }
};

/// Throws once at a chosen frame index -- the fault-isolation probe.
class FaultyStage : public engine::AppStage {
  public:
    explicit FaultyStage(std::size_t fail_at) : fail_at_(fail_at) {}
    std::string_view name() const override { return "faulty"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {
        if (++seen_ == fail_at_) throw std::runtime_error("tenant bug");
    }

  private:
    std::size_t fail_at_;
    std::size_t seen_ = 0;
};

// ------------------------------------------- heterogeneous fleet bit parity

/// Run the canonical 3-session heterogeneous fleet (full-demand sim walk,
/// TOF-only sim walk, localize-only replay) on one EngineHost and compare
/// every session's output bit for bit against dedicated standalone Engines.
void run_fleet_parity(std::size_t host_workers) {
    const std::string path = testing::TempDir() + "witrack_fleet_parity.wtrk";
    record_episode(path, 407);

    // --- standalone references (serial: the schedule-independent truth) ---
    auto full_config = walk_config(401);
    engine::Engine full_ref(full_config,
                            std::make_unique<engine::SimSource>(full_config,
                                                                walk_script()));
    full_ref.run();
    ASSERT_GT(full_ref.tracker().track().size(), 50u);

    auto tof_config = walk_config(402);
    engine::Engine tof_ref(tof_config, std::make_unique<engine::SimSource>(
                                           tof_config, walk_script(-0.5, 1.5)));
    auto& ref_tap = tof_ref.emplace_stage<TofTapStage>();
    tof_ref.run();
    ASSERT_GT(ref_tap.frames.size(), 100u);
    EXPECT_TRUE(tof_ref.tracker().track().empty());  // demand mask respected

    auto replay_config = walk_config(407);
    replay_config.with_outputs(PipelineOutputs::kRawPosition);
    engine::Engine replay_ref(replay_config,
                              std::make_unique<engine::ReplaySource>(path));
    replay_ref.run();
    ASSERT_GT(replay_ref.tracker().raw_track().size(), 50u);
    EXPECT_TRUE(replay_ref.tracker().track().empty());

    // --- the same three sessions multiplexed on one host ------------------
    engine::EngineHost host(engine::HostConfig{}
                                .with_workers(host_workers)
                                .with_max_sessions(8));
    const auto full_id = host.admit("home-a", walk_config(401),
                                    std::make_unique<engine::SimSource>(
                                        walk_config(401), walk_script()));
    const auto tof_id =
        host.admit("home-b", walk_config(402),
                   std::make_unique<engine::SimSource>(walk_config(402),
                                                       walk_script(-0.5, 1.5)));
    auto& host_tap = host.session(tof_id)->emplace_stage<TofTapStage>();
    auto rp_config = walk_config(407);
    rp_config.with_outputs(PipelineOutputs::kRawPosition);
    const auto replay_id = host.admit(
        "replay-c", rp_config, std::make_unique<engine::ReplaySource>(path));

    EXPECT_EQ(host.state(full_id), engine::SessionState::kAdmitted);
    host.run();
    EXPECT_EQ(host.state(full_id), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(tof_id), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(replay_id), engine::SessionState::kFinished);

    // Bit parity per session, regardless of schedule or co-tenants.
    expect_same_track(full_ref.tracker().track(),
                      host.session(full_id)->tracker().track());
    expect_same_track(full_ref.tracker().raw_track(),
                      host.session(full_id)->tracker().raw_track());
    ASSERT_EQ(ref_tap.frames.size(), host_tap.frames.size());
    for (std::size_t i = 0; i < ref_tap.frames.size(); ++i)
        expect_same_tof(ref_tap.frames[i], host_tap.frames[i]);
    EXPECT_TRUE(host.session(tof_id)->tracker().track().empty());
    expect_same_track(replay_ref.tracker().raw_track(),
                      host.session(replay_id)->tracker().raw_track());
    EXPECT_TRUE(host.session(replay_id)->tracker().track().empty());
    std::remove(path.c_str());
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalSerialHost) {
    run_fleet_parity(1);
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalSharedPoolHost) {
    run_fleet_parity(4);
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalDefaultWorkers) {
    // workers = 0 resolves WITRACK_WORKERS exactly like the standalone
    // Engine does -- the TSan CI job runs this suite with WITRACK_WORKERS=4,
    // flipping the whole fleet onto the shared pool.
    run_fleet_parity(0);
}

TEST(Fleet, ExplicitWorkerCountAboveCapThrows) {
    // An explicit count is bounded by the same 256 cap the WITRACK_WORKERS
    // path applies; past it the host refuses to start instead of trying
    // to spawn (or reserve) that many threads.
    EXPECT_THROW(engine::EngineHost(engine::HostConfig{}.with_workers(257)),
                 std::invalid_argument);
    EXPECT_THROW(engine::EngineHost(engine::HostConfig{}.with_workers(SIZE_MAX)),
                 std::invalid_argument);
    EXPECT_EQ(engine::resolve_worker_count(256), 256u);
}

// ------------------------------------------------------ round-robin fairness

TEST(Fleet, StepAllIsFairRoundRobin) {
    engine::EngineHost host;
    const auto a = host.admit("a", walk_config(411),
                              std::make_unique<engine::SimSource>(
                                  walk_config(411), walk_script()));
    const auto b = host.admit("b", walk_config(412),
                              std::make_unique<engine::SimSource>(
                                  walk_config(412), walk_script()));
    for (int round = 1; round <= 10; ++round) {
        EXPECT_EQ(host.step_all(), 2u);  // one frame per session per round
        EXPECT_EQ(host.session(a)->frames_processed(),
                  static_cast<std::size_t>(round));
        EXPECT_EQ(host.session(b)->frames_processed(),
                  static_cast<std::size_t>(round));
    }
    EXPECT_EQ(host.rounds(), 10u);
    EXPECT_EQ(host.state(a), engine::SessionState::kRunning);

    // A frame budget stops between rounds.
    const std::size_t more = host.run(6);
    EXPECT_EQ(more, 6u);
}

// ------------------------------------------------------------ admission

TEST(Fleet, AdmissionCapQueuesAndPromotes) {
    engine::EngineHost host(
        engine::HostConfig{}.with_max_sessions(2).with_queue_when_full(true));
    const auto a = host.admit("a", walk_config(421),
                              std::make_unique<engine::SimSource>(
                                  walk_config(421), walk_script()));
    const auto b = host.admit("b", walk_config(422),
                              std::make_unique<engine::SimSource>(
                                  walk_config(422), walk_script()));
    const auto c = host.admit("c", walk_config(423),
                              std::make_unique<engine::SimSource>(
                                  walk_config(423), walk_script()));
    EXPECT_EQ(host.active_sessions(), 2u);
    EXPECT_EQ(host.queued_sessions(), 1u);

    // The queued session does not run while the fleet is at capacity.
    host.step_all();
    EXPECT_EQ(host.session(c)->frames_processed(), 0u);
    EXPECT_EQ(host.state(c), engine::SessionState::kAdmitted);

    // ...but finishes (promoted into a freed slot) by the end of the run,
    // with output identical to a dedicated Engine.
    host.run();
    EXPECT_EQ(host.state(a), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(c), engine::SessionState::kFinished);
    EXPECT_EQ(host.queued_sessions(), 0u);

    auto ref_config = walk_config(423);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(c)->tracker().track());
}

TEST(Fleet, AdmissionCapRejectsWhenQueueingDisabled) {
    engine::EngineHost host(
        engine::HostConfig{}.with_max_sessions(1).with_queue_when_full(false));
    host.admit("only", walk_config(424),
               std::make_unique<engine::SimSource>(walk_config(424),
                                                   walk_script()));
    EXPECT_THROW(host.admit("rejected", walk_config(425),
                            std::make_unique<engine::SimSource>(
                                walk_config(425), walk_script())),
                 std::runtime_error);
    EXPECT_EQ(host.total_sessions(), 1u);
}

// --------------------------------------------------- backpressure + faults

TEST(Fleet, PausedSessionAccruesLagAndIsEvicted) {
    engine::EngineHost host(engine::HostConfig{}.with_max_frame_lag(5));
    const auto slow = host.admit("slow", walk_config(431),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(431), walk_script()));
    const auto healthy = host.admit("healthy", walk_config(432),
                                    std::make_unique<engine::SimSource>(
                                        walk_config(432), walk_script()));
    for (int i = 0; i < 3; ++i) host.step_all();
    host.pause(slow);
    // 5 rounds of lag are tolerated; the 6th evicts.
    for (int i = 0; i < 5; ++i) host.step_all();
    EXPECT_EQ(host.state(slow), engine::SessionState::kRunning);
    host.step_all();
    EXPECT_EQ(host.state(slow), engine::SessionState::kEvicted);
    EXPECT_EQ(host.session(slow)->frames_processed(), 3u);

    // The surviving tenant is untouched: it finishes with output identical
    // to a dedicated Engine.
    host.run();
    EXPECT_EQ(host.state(healthy), engine::SessionState::kFinished);
    auto ref_config = walk_config(432);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(healthy)->tracker().track());

    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.sessions_evicted, 1u);
    EXPECT_EQ(stats.sessions_finished, 1u);
    ASSERT_EQ(stats.sessions.size(), 2u);
    EXPECT_NE(stats.sessions[0].fault.find("max_frame_lag"), std::string::npos);
}

TEST(Fleet, PauseResumeWithoutEviction) {
    engine::EngineHost host(engine::HostConfig{}.with_max_frame_lag(10));
    const auto id = host.admit("s", walk_config(433),
                               std::make_unique<engine::SimSource>(
                                   walk_config(433), walk_script()));
    host.step_all();
    host.pause(id);
    for (int i = 0; i < 4; ++i) host.step_all();
    EXPECT_EQ(host.session(id)->frames_processed(), 1u);
    host.resume(id);
    host.run();
    EXPECT_EQ(host.state(id), engine::SessionState::kFinished);

    // A resumed pull-source session lost nothing (frames were not consumed
    // while paused), so the track matches a dedicated Engine's exactly.
    auto ref_config = walk_config(433);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(), host.session(id)->tracker().track());
}

TEST(Fleet, ThrowingStageEvictsOnlyItsSession) {
    engine::EngineHost host;
    const auto bad = host.admit("bad", walk_config(441),
                                std::make_unique<engine::SimSource>(
                                    walk_config(441), walk_script()));
    const auto good = host.admit("good", walk_config(442),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(442), walk_script()));
    host.session(bad)->emplace_stage<FaultyStage>(/*fail_at=*/10);

    host.run();
    EXPECT_EQ(host.state(bad), engine::SessionState::kEvicted);
    EXPECT_EQ(host.state(good), engine::SessionState::kFinished);
    const auto stats = host.take_fleet_stats();
    EXPECT_NE(stats.sessions[0].fault.find("tenant bug"), std::string::npos);

    auto ref_config = walk_config(442);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(good)->tracker().track());
}

TEST(Fleet, ManualEvictionFreesSlotForQueuedSession) {
    engine::EngineHost host(engine::HostConfig{}.with_max_sessions(1));
    const auto a = host.admit("a", walk_config(443),
                              std::make_unique<engine::SimSource>(
                                  walk_config(443), walk_script()));
    const auto b = host.admit("b", walk_config(444),
                              std::make_unique<engine::SimSource>(
                                  walk_config(444), walk_script()));
    host.step_all();
    EXPECT_EQ(host.session(b)->frames_processed(), 0u);
    EXPECT_TRUE(host.evict(a, "tenant closed the app"));
    EXPECT_FALSE(host.evict(a));  // already terminal
    EXPECT_EQ(host.state(a), engine::SessionState::kEvicted);
    host.run();
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_GT(host.session(b)->frames_processed(), 100u);
}

TEST(Fleet, EvictedSessionEngineIsTerminallyInert) {
    // Eviction must hold even for a caller still holding the (readable)
    // Engine: no further frames process, and episode finish() verdicts --
    // computed from a half-processed stream -- are never published.
    engine::EngineHost host;
    const auto id = host.admit("doomed", walk_config(445),
                               std::make_unique<engine::SimSource>(
                                   walk_config(445), walk_script()));
    host.session(id)->emplace_stage<FinishProbeStage>();
    std::size_t verdicts = 0;
    host.session(id)->bus().subscribe<engine::PersonsEvent>(
        [&](const engine::PersonsEvent&) { ++verdicts; });

    for (int i = 0; i < 5; ++i) host.step_all();
    ASSERT_TRUE(host.evict(id, "test eviction"));

    engine::Engine* engine = host.session(id);
    EXPECT_FALSE(engine->step());
    EXPECT_EQ(engine->run(), 0u);
    engine->finish();
    EXPECT_EQ(engine->frames_processed(), 5u);
    EXPECT_EQ(verdicts, 0u);
    EXPECT_EQ(engine->session_state(), engine::SessionState::kEvicted);

    // A non-evicted session publishes its verdict exactly once, for
    // contrast.
    const auto ok = host.admit("ok", walk_config(446),
                               std::make_unique<engine::SimSource>(
                                   walk_config(446), walk_script()));
    host.session(ok)->emplace_stage<FinishProbeStage>();
    std::size_t ok_verdicts = 0;
    host.session(ok)->bus().subscribe<engine::PersonsEvent>(
        [&](const engine::PersonsEvent&) { ++ok_verdicts; });
    host.run();
    EXPECT_EQ(ok_verdicts, 1u);
}

TEST(Fleet, FinishedEngineRefusesFurtherFrames) {
    // finish() is terminal: once episode verdicts were delivered, no frame
    // may flow (it could never get episode closure).
    auto config = walk_config(449);
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, walk_script()));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(eng.step());
    eng.finish();
    EXPECT_EQ(eng.session_state(), engine::SessionState::kFinished);
    EXPECT_FALSE(eng.step());
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(eng.frames_processed(), 5u);
}

TEST(Fleet, OutOfBandFinishPromotesQueuedSessionAndIsCounted) {
    // session() hands out the Engine*; a caller may drive a session to
    // completion outside the scheduler. The host must still notice the
    // freed slot (queued tenants run) and count the finish.
    engine::EngineHost host(engine::HostConfig{}.with_max_sessions(1));
    const auto a = host.admit("a", walk_config(452),
                              std::make_unique<engine::SimSource>(
                                  walk_config(452), walk_script()));
    const auto b = host.admit("b", walk_config(453),
                              std::make_unique<engine::SimSource>(
                                  walk_config(453), walk_script()));
    EXPECT_EQ(host.queued_sessions(), 1u);

    host.session(a)->run();  // out-of-band: not via step_all()
    EXPECT_EQ(host.state(a), engine::SessionState::kFinished);

    host.run();
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_GT(host.session(b)->frames_processed(), 100u);
    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.sessions_finished, 2u);
    EXPECT_EQ(stats.queued_sessions, 0u);
}

TEST(Fleet, ReapDropsTerminalSessionsOnly) {
    engine::EngineHost host;
    const auto done = host.admit("done", walk_config(447),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(447), walk_script()));
    host.run();
    const auto live = host.admit("live", walk_config(448),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(448), walk_script()));
    host.step_all();

    EXPECT_EQ(host.total_sessions(), 2u);
    EXPECT_EQ(host.reap(), 1u);  // only the finished session goes
    EXPECT_EQ(host.total_sessions(), 1u);
    EXPECT_EQ(host.session(done), nullptr);
    ASSERT_NE(host.session(live), nullptr);
    EXPECT_EQ(host.state(live), engine::SessionState::kRunning);
    EXPECT_EQ(host.reap(), 0u);

    // The reaped id is gone from telemetry; the survivor still rolls up.
    const auto stats = host.take_fleet_stats();
    ASSERT_EQ(stats.sessions.size(), 1u);
    EXPECT_EQ(stats.sessions[0].name, "live");
}

// ----------------------------------------------------------- fleet stats

TEST(Fleet, TakeFleetStatsSnapshotsAndResets) {
    engine::EngineHost host;
    const auto id = host.admit("s", walk_config(451),
                               std::make_unique<engine::SimSource>(
                                   walk_config(451), walk_script()));
    host.session(id)->emplace_stage<TofTapStage>();
    for (int i = 0; i < 25; ++i) host.step_all();

    auto window1 = host.take_fleet_stats();
    EXPECT_EQ(window1.frames, 25u);
    EXPECT_GT(window1.wall_s, 0.0);
    EXPECT_GT(window1.throughput_fps, 0.0);
    EXPECT_EQ(window1.sessions_admitted, 1u);
    EXPECT_EQ(window1.active_sessions, 1u);
    ASSERT_EQ(window1.sessions.size(), 1u);
    EXPECT_EQ(window1.sessions[0].name, "s");
    EXPECT_EQ(window1.sessions[0].frames, 25u);
    EXPECT_GT(window1.sessions[0].total_step_s, 0.0);
    EXPECT_GE(window1.sessions[0].max_step_s, window1.sessions[0].mean_step_s());
    // The per-stage rollup rides the same snapshot (take_stage_stats);
    // the demanded pipeline steps' cycle-counter entries follow the
    // application stages.
    ASSERT_GE(window1.sessions[0].stages.size(), 2u);
    EXPECT_EQ(window1.sessions[0].stages[0].name, "tof_tap");
    EXPECT_EQ(window1.sessions[0].stages[0].frames, 25u);
    for (std::size_t i = 1; i < window1.sessions[0].stages.size(); ++i)
        EXPECT_EQ(window1.sessions[0].stages[i].name.rfind("pipeline.", 0), 0u);

    // The window reset: a second take right after 10 more frames reports
    // only the new window, on both levels.
    for (int i = 0; i < 10; ++i) host.step_all();
    auto window2 = host.take_fleet_stats();
    EXPECT_EQ(window2.frames, 10u);
    EXPECT_EQ(window2.sessions[0].frames, 10u);
    EXPECT_EQ(window2.sessions[0].stages[0].frames, 10u);
}

// ------------------------------------------------------- FFT plan sharing

TEST(Fleet, SessionsShareOneFftPlan) {
    engine::EngineHost host;
    const auto a = host.admit("a", walk_config(461),
                              std::make_unique<engine::SimSource>(
                                  walk_config(461), walk_script()));
    const auto b = host.admit("b", walk_config(462),
                              std::make_unique<engine::SimSource>(
                                  walk_config(462), walk_script()));
    const auto* plan_a =
        host.session(a)->tracker().tof_estimator().processors().lane(0).plan();
    const auto* plan_b =
        host.session(b)->tracker().tof_estimator().processors().lane(0).plan();
    ASSERT_NE(plan_a, nullptr);
    // Same pointer: the twiddle/chirp tables exist once for the fleet.
    EXPECT_EQ(plan_a, plan_b);
    // And they came from the host's cache (the process-global one here).
    // The processor's plan shape is (fft_size, pruned to the sweep length).
    const auto& shared_pipeline = host.session(a)->pipeline_config();
    EXPECT_EQ(plan_a, host.plan_cache()
                          .real_plan(shared_pipeline.fft_size,
                                     shared_pipeline.fmcw.samples_per_sweep())
                          .get());

    // A host with a private cache is isolated from the global plans.
    dsp::FftPlanCache isolated;
    engine::EngineHost tenant_host(
        engine::HostConfig{}.with_plan_cache(&isolated));
    const auto c = tenant_host.admit("c", walk_config(463),
                                     std::make_unique<engine::SimSource>(
                                         walk_config(463), walk_script()));
    const auto* plan_c = tenant_host.session(c)
                             ->tracker()
                             .tof_estimator()
                             .processors()
                             .lane(0)
                             .plan();
    EXPECT_NE(plan_c, plan_a);
    EXPECT_GT(isolated.cached_plans(), 0u);
}

// ------------------------------------------- WorkerPool multi-client safety

TEST(WorkerPoolFleet, InterleavedParallelForFromTwoClients) {
    // Two sessions' worth of concurrent parallel_for traffic on one shared
    // pool: every index of every fan-out runs exactly once, no cross-talk.
    common::WorkerPool pool(4);
    constexpr std::size_t kN = 256;
    constexpr int kRounds = 50;
    std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);

    auto client = [&pool](std::vector<std::atomic<int>>& hits) {
        for (int round = 0; round < kRounds; ++round)
            pool.parallel_for(hits.size(), [&hits](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
    };
    std::thread a(client, std::ref(hits_a));
    std::thread b(client, std::ref(hits_b));
    a.join();
    b.join();
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits_a[i].load(), kRounds);
        EXPECT_EQ(hits_b[i].load(), kRounds);
    }
}

TEST(WorkerPoolFleet, ExceptionInOneClientDoesNotPoisonTheOther) {
    common::WorkerPool pool(4);
    constexpr int kRounds = 25;
    std::atomic<int> faulty_throws{0};
    std::atomic<std::size_t> healthy_sum{0};

    std::thread faulty([&] {
        for (int round = 0; round < kRounds; ++round) {
            try {
                pool.parallel_for(64, [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("tenant bug");
                });
            } catch (const std::runtime_error&) {
                faulty_throws.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    std::thread healthy([&] {
        for (int round = 0; round < kRounds; ++round)
            pool.parallel_for(100, [&](std::size_t i) {
                healthy_sum.fetch_add(i, std::memory_order_relaxed);
            });
    });
    faulty.join();
    healthy.join();
    // Every faulty fan-out rethrew on its own caller; every healthy fan-out
    // still covered all of its indices.
    EXPECT_EQ(faulty_throws.load(), kRounds);
    EXPECT_EQ(healthy_sum.load(), static_cast<std::size_t>(kRounds) * 4950u);

    // The pool survives both clients and keeps scheduling.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace witrack
