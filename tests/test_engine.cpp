// Engine integration tests: the quickstart scenario reproduced purely via
// Engine + event subscriptions, event-driven fall and pointing detection on
// scripted motions, engine-vs-hand-wired parity, the replay format's
// bit-identical round trip and its rejection of hostile headers, per-stage
// latency accounting, and the bounded history knobs (tracker track cap,
// fall-monitor alert ring).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/appliances.hpp"
#include "apps/fall_monitor.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "dsp/stats.hpp"
#include "engine/engine.hpp"
#include "engine/live_source.hpp"
#include "engine/plugins.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "hw/frontend.hpp"

namespace witrack {
namespace {

using geom::Vec3;

std::string temp_recording_path(const char* name) {
    return testing::TempDir() + name;
}

// --------------------------------------------------------- quickstart

TEST(Engine, QuickstartScenarioViaEventsOnly) {
    // The through-wall tracking experiment driven exclusively through the
    // new API: no direct Scenario -> tracker wiring anywhere.
    engine::EngineConfig config;
    config.with_through_wall(true).with_fast_capture(true).with_seed(21);

    const auto env = sim::make_through_wall_lab();
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::RandomWaypointWalk>(
                                               env.bounds, 20.0, Rng(101).fork(1))));

    std::vector<double> ex, ey, ez;
    eng.bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent& event) {
            if (!event.smoothed || event.time_s < 2.0) return;
            ASSERT_TRUE(event.truth.has_value());
            const Vec3 est = event.smoothed->position;
            const Vec3 truth = event.truth->position;
            ex.push_back(std::abs(est.x - truth.x));
            ey.push_back(std::abs(est.y - truth.y));
            ez.push_back(std::abs(est.z - truth.z));
        });

    const std::size_t frames = eng.run();
    EXPECT_EQ(frames, eng.frames_processed());
    EXPECT_EQ(frames, eng.tracker().frames_processed());
    ASSERT_GT(ex.size(), 500u);
    // Paper medians (through wall): 13.1 / 10.25 / 21.0 cm; same headroom
    // as the hand-wired integration test.
    EXPECT_LT(dsp::median(ex), 0.25);
    EXPECT_LT(dsp::median(ey), 0.25);
    EXPECT_LT(dsp::median(ez), 0.40);
}

TEST(Engine, MatchesHandWiredTrackerBitForBit) {
    // The Engine is plumbing, not processing: its smoothed track must be
    // bit-identical to a hand-wired Scenario -> WiTrackTracker loop.
    auto make_config = [] {
        engine::EngineConfig config;
        config.with_fast_capture(true).with_seed(99);
        return config;
    };
    auto make_script = [] {
        return std::make_unique<sim::LineWalkScript>(Vec3{-1, 5, 0}, Vec3{1, 5, 0},
                                                     2.0, 1.0);
    };

    // Engine run.
    auto config = make_config();
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(config, make_script()));
    eng.run();

    // Hand-wired run over an identical scenario.
    sim::Scenario scenario(engine::make_scenario_config(make_config()), make_script());
    core::WiTrackTracker tracker(config.pipeline_config(), scenario.array());
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) tracker.process_frame(frame.sweeps, frame.time_s);

    const auto& a = eng.tracker().track();
    const auto& b = tracker.track();
    ASSERT_GT(a.size(), 50u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].position.x, b[i].position.x);
        EXPECT_EQ(a[i].position.y, b[i].position.y);
        EXPECT_EQ(a[i].position.z, b[i].position.z);
    }
}

// ------------------------------------------------------------- fall events

TEST(Engine, FallEventFiresOnScriptedFallOnly) {
    auto run_activity = [](sim::ActivityKind kind, std::uint64_t script_seed) {
        const auto env = sim::make_through_wall_lab();
        engine::EngineConfig config;
        config.with_fast_capture(true).with_seed(71);
        engine::Engine eng(
            config, std::make_unique<engine::SimSource>(
                        config, std::make_unique<sim::ActivityScript>(
                                    kind, env.bounds, Rng(script_seed), 24.0)));
        eng.emplace_stage<engine::FallMonitorStage>();
        std::vector<engine::FallEvent> events;
        eng.bus().subscribe<engine::FallEvent>(
            [&](const engine::FallEvent& event) { events.push_back(event); });
        eng.run();
        return events;
    };

    // The scripted fall raises exactly one alert, stamped mid-episode.
    const auto fall_events = run_activity(sim::ActivityKind::kFall, 6);
    ASSERT_EQ(fall_events.size(), 1u);
    EXPECT_LT(fall_events[0].analysis.final_elevation_m, 0.45);
    EXPECT_GT(fall_events[0].time_s, 0.0);

    // Sitting down on a chair stays quiet.
    const auto sit_events = run_activity(sim::ActivityKind::kSitChair, 4);
    EXPECT_TRUE(sit_events.empty());
}

// --------------------------------------------------------- pointing events

TEST(Engine, StagesFinishOnlyOnce) {
    // A second run() (or run() after a manual step() loop) must not
    // re-publish episode events.
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(81);
    engine::Engine eng(
        config,
        std::make_unique<engine::SimSource>(
            config, std::make_unique<sim::PointingScript>(
                        Vec3{0.5, 4.5, 0}, Vec3{0.5, 0.7, 0.2}.normalized(), Rng(5))));
    eng.emplace_stage<engine::PointingStage>();

    std::size_t events = 0;
    eng.bus().subscribe<engine::PointingEvent>(
        [&](const engine::PointingEvent&) { ++events; });
    eng.run();
    ASSERT_EQ(events, 1u);
    eng.run();  // source exhausted: no frames, and no duplicate finish
    EXPECT_EQ(events, 1u);
}

TEST(Engine, PointingEventRecoversDirection) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_through_wall(true).with_seed(81);

    const Vec3 stand{0.5, 4.5, 0};
    const Vec3 truth_dir = Vec3{0.5, 0.7, 0.2}.normalized();
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::PointingScript>(
                                               stand, truth_dir, Rng(5))));
    eng.emplace_stage<engine::PointingStage>();

    std::vector<engine::PointingEvent> events;
    eng.bus().subscribe<engine::PointingEvent>(
        [&](const engine::PointingEvent& event) { events.push_back(event); });
    eng.run();

    ASSERT_EQ(events.size(), 1u);
    const double err_deg =
        rad_to_deg(geom::angle_between(events[0].pointing.direction, truth_dir));
    EXPECT_LT(err_deg, 50.0);  // single-seed tolerance, as in the old test
}

TEST(Engine, PointingEventDrivesApplianceController) {
    // The known-good actuation geometry of the hand-wired integration test,
    // now composed purely over the event bus.
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(92);

    const Vec3 stand{0.0, 5.0, 0};
    const Vec3 lamp_pos{2.0, 7.5, 1.2};
    const Vec3 dir = (lamp_pos - Vec3{stand.x, stand.y, 1.3}).normalized();
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::PointingScript>(
                                               stand, dir, Rng(7))));
    eng.emplace_stage<engine::PointingStage>();

    apps::ApplianceRegistry registry(deg_to_rad(35.0));
    registry.add("lamp", lamp_pos);
    registry.add("screen", {-2.5, 6.0, 1.0});  // far off the pointing ray
    apps::InsteonDriver driver;
    const auto& controller =
        eng.emplace_stage<engine::ApplianceController>(registry, driver);
    eng.run();

    // The PointingEvent drove the controller, which toggled the lamp.
    ASSERT_TRUE(controller.last_actuated().has_value());
    EXPECT_EQ(*controller.last_actuated(), "lamp");
    ASSERT_EQ(driver.log().size(), 1u);
    EXPECT_EQ(driver.log()[0].device, "lamp");
    EXPECT_TRUE(driver.log()[0].turn_on);
}

// ------------------------------------------------------ multi-person events

TEST(Engine, PersonsEventsCarryTwoPeopleWithTruth) {
    engine::EngineConfig config;
    config.with_fast_capture(true)
        .with_second_person(true)
        .with_seed(93)
        .with_contour_peaks(3);

    engine::Engine eng(
        config,
        std::make_unique<engine::SimSource>(
            config,
            std::make_unique<sim::LineWalkScript>(Vec3{-2.0, 4, 0},
                                                  Vec3{-0.5, 6.5, 0}, 6.0, 1.0),
            std::make_unique<sim::LineWalkScript>(Vec3{2.0, 6.5, 0},
                                                  Vec3{0.8, 4.0, 0}, 6.0, 1.0)));
    eng.emplace_stage<engine::MultiPersonStage>(2);

    std::size_t events = 0, with_two = 0;
    eng.bus().subscribe<engine::PersonsEvent>([&](const engine::PersonsEvent& event) {
        ++events;
        ASSERT_TRUE(event.truth.has_value());
        ASSERT_TRUE(event.truth->position2.has_value());
        if (event.people.size() == 2) ++with_two;
    });
    eng.run();

    EXPECT_EQ(events, eng.frames_processed());
    EXPECT_GT(with_two, events / 2);
}

TEST(Engine, MultiPersonStageRequiresMultiPeakConfig) {
    engine::EngineConfig config;
    config.with_fast_capture(true);  // contour_peaks left at 1
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(
                           config, std::make_unique<sim::StandStillScript>(
                                       Vec3{0, 5, 0}, 1.0)));
    EXPECT_THROW(eng.emplace_stage<engine::MultiPersonStage>(2),
                 std::invalid_argument);
}

// ------------------------------------------------------------------ replay

TEST(Engine, ReplayRoundTripIsBitIdentical) {
    const std::string path = temp_recording_path("witrack_roundtrip.wtrk");

    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(123);
    engine::SimSource live(config, std::make_unique<sim::LineWalkScript>(
                                       Vec3{-1, 5, 0}, Vec3{1, 5, 0}, 2.0, 1.0));

    // Live pass: track and record every frame.
    core::WiTrackTracker live_tracker(config.pipeline_config(), live.array());
    std::vector<engine::GroundTruth> live_truths;
    {
        engine::Recorder recorder(path, live.fmcw(), live.array());
        engine::Frame frame;
        while (live.next(frame)) {
            live_tracker.process_frame(frame.sweeps, frame.time_s);
            recorder.write(frame);
            ASSERT_TRUE(frame.truth.has_value());
            live_truths.push_back(*frame.truth);
        }
        EXPECT_GT(recorder.frames_written(), 100u);
    }

    // Replay pass: the recording is self-contained (fmcw + geometry).
    engine::ReplaySource replay(path);
    EXPECT_EQ(replay.fmcw().samples_per_sweep(), live.fmcw().samples_per_sweep());
    ASSERT_EQ(replay.array().rx.size(), live.array().rx.size());
    for (std::size_t i = 0; i < replay.array().rx.size(); ++i) {
        EXPECT_EQ(replay.array().rx[i].x, live.array().rx[i].x);
        EXPECT_EQ(replay.array().rx[i].z, live.array().rx[i].z);
    }

    core::WiTrackTracker replay_tracker(config.pipeline_config(), replay.array());
    engine::Frame frame;
    std::size_t index = 0;
    while (replay.next(frame)) {
        replay_tracker.process_frame(frame.sweeps, frame.time_s);
        // Ground truth survives the round trip verbatim.
        ASSERT_TRUE(frame.truth.has_value());
        ASSERT_LT(index, live_truths.size());
        EXPECT_EQ(frame.truth->position.x, live_truths[index].position.x);
        EXPECT_EQ(frame.truth->position.y, live_truths[index].position.y);
        EXPECT_EQ(frame.truth->position.z, live_truths[index].position.z);
        ++index;
    }
    EXPECT_EQ(index, live_truths.size());

    // Doubles are stored verbatim, so the tracks match bit for bit.
    const auto& a = live_tracker.track();
    const auto& b = replay_tracker.track();
    ASSERT_GT(a.size(), 50u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time_s, b[i].time_s);
        EXPECT_EQ(a[i].position.x, b[i].position.x);
        EXPECT_EQ(a[i].position.y, b[i].position.y);
        EXPECT_EQ(a[i].position.z, b[i].position.z);
        EXPECT_EQ(a[i].residual_rms, b[i].residual_rms);
    }
    std::remove(path.c_str());
}

TEST(Engine, PipelineAdoptsSourceFmcwParameters) {
    // A recording carries its own FMCW parameters; an Engine built with a
    // default config over that replay must process with the *recording's*
    // sweep geometry, or every range would be silently rescaled.
    const std::string path = temp_recording_path("witrack_fmcw.wtrk");
    FmcwParams custom;
    custom.bandwidth_hz = 1.0e9;  // non-default: changes bin_round_trip_m

    engine::EngineConfig record_config;
    record_config.with_fast_capture(true).with_seed(5).with_fmcw(custom);
    engine::SimSource live(record_config, std::make_unique<sim::StandStillScript>(
                                              Vec3{0, 5, 0}, 0.5));
    {
        engine::Recorder recorder(path, live.fmcw(), live.array());
        engine::Frame frame;
        while (live.next(frame)) recorder.write(frame);
    }

    auto replay_source = std::make_unique<engine::ReplaySource>(path);
    const auto* replay = replay_source.get();  // observe the cursor post-run
    engine::EngineConfig default_config;  // deliberately NOT the custom fmcw
    engine::Engine eng(default_config, std::move(replay_source));
    EXPECT_EQ(eng.pipeline_config().fmcw.bandwidth_hz, custom.bandwidth_hz);
    // The stored config is kept coherent too, so stages reading
    // StageContext::config.fmcw agree with the pipeline.
    EXPECT_EQ(eng.config().fmcw.bandwidth_hz, custom.bandwidth_hz);
    const std::size_t frames = eng.run();
    EXPECT_GT(frames, 0u);
    EXPECT_EQ(frames, replay->frames_read());
    std::remove(path.c_str());
}

TEST(Engine, RecorderRejectsMismatchedFrameShape) {
    const std::string path = temp_recording_path("witrack_shape.wtrk");
    FmcwParams fmcw;
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    engine::Recorder recorder(path, fmcw, array);

    engine::Frame frame;  // empty buffer: shape disagrees with the header
    EXPECT_THROW(recorder.write(frame), std::invalid_argument);

    frame.sweeps.resize(array.rx.size(), 1, fmcw.samples_per_sweep());
    EXPECT_NO_THROW(recorder.write(frame));

    // More sweeps than the header's sweeps_per_frame would be rejected as
    // corrupt on replay; write() must refuse to produce such a recording.
    frame.sweeps.resize(array.rx.size(), fmcw.sweeps_per_frame + 1,
                        fmcw.samples_per_sweep());
    EXPECT_THROW(recorder.write(frame), std::invalid_argument);
    std::remove(path.c_str());
}

TEST(Engine, ReplayRejectsForeignFiles) {
    const std::string path = temp_recording_path("witrack_bad.wtrk");
    {
        std::ofstream out(path, std::ios::binary);
        out << "definitely not a recording";
    }
    EXPECT_THROW(engine::ReplaySource{path}, std::runtime_error);
    std::remove(path.c_str());
    EXPECT_THROW(engine::ReplaySource{"/nonexistent/witrack.wtrk"},
                 std::runtime_error);
}

// Writes only a recording header, so a hostile count or rate is never
// backed by data of the claimed size. num_rx positions follow only when
// the count is small.
void write_replay_header(const std::string& path, const FmcwParams& fmcw,
                         std::uint64_t num_rx) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    common::write_raw(out, engine::kReplayMagic);
    common::write_raw(out, engine::kReplayVersion);
    for (const double v : {fmcw.start_frequency_hz, fmcw.bandwidth_hz,
                           fmcw.sweep_duration_s, fmcw.sample_rate_hz,
                           fmcw.tx_power_w})
        common::write_raw(out, v);
    common::write_raw(out, static_cast<std::uint64_t>(fmcw.sweeps_per_frame));
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    common::write_vec3(out, array.tx);
    common::write_vec3(out, array.boresight);
    common::write_raw(out, num_rx);
    for (std::uint64_t i = 0; i < num_rx && i < 16; ++i)
        common::write_vec3(out, array.rx[i % array.rx.size()]);
}

TEST(Engine, ReplayRejectsHostileHeaders) {
    const std::string path = temp_recording_path("witrack_hostile.wtrk");
    write_replay_header(path, FmcwParams{}, 3);
    EXPECT_NO_THROW(engine::ReplaySource{path});

    // 2^40 receivers: rejected before array_.rx is sized from the count.
    write_replay_header(path, FmcwParams{}, std::uint64_t{1} << 40);
    EXPECT_THROW(engine::ReplaySource{path}, std::runtime_error);
    // One receiver cannot localize: rejected here, not later by the Engine.
    write_replay_header(path, FmcwParams{}, 1);
    EXPECT_THROW(engine::ReplaySource{path}, std::runtime_error);

    // NaN passes `<= 0`; 1e300 samples/s overflows the size_t cast. Both
    // are FmcwParams::validate() failures, reported as runtime_error.
    FmcwParams nan_rate;
    nan_rate.sample_rate_hz = std::nan("");
    write_replay_header(path, nan_rate, 3);
    EXPECT_THROW(engine::ReplaySource{path}, std::runtime_error);

    FmcwParams huge_rate;
    huge_rate.sample_rate_hz = 1e300;
    write_replay_header(path, huge_rate, 3);
    EXPECT_THROW(engine::ReplaySource{path}, std::runtime_error);
    std::remove(path.c_str());
}

// ------------------------------------------------- latency + history caps

TEST(Engine, StageLatencyAccounting) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(7);
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::LineWalkScript>(
                                               Vec3{-1, 5, 0}, Vec3{1, 5, 0}, 1.0,
                                               1.0)));
    eng.emplace_stage<engine::FallMonitorStage>();
    eng.run();

    ASSERT_EQ(eng.stage_stats().size(), 1u);
    const auto& stats = eng.stage_stats()[0];
    EXPECT_EQ(stats.name, "fall_monitor");
    EXPECT_EQ(stats.frames, eng.frames_processed());
    EXPECT_GT(stats.total_s, 0.0);
    EXPECT_GE(stats.max_s, stats.mean_s());
    EXPECT_GE(stats.finish_s, 0.0);  // episode work accounted separately
    // Paper budget: the whole pipeline fits in 75 ms; an app stage must be
    // far below that.
    EXPECT_LT(stats.mean_s(), 0.075);
}

TEST(Engine, TrackHistoryCapBoundsMemory) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(11).with_track_history(50);
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, std::make_unique<sim::LineWalkScript>(
                                               Vec3{-1, 5, 0}, Vec3{1, 5, 0}, 4.0,
                                               1.0)));
    eng.run();

    ASSERT_GT(eng.frames_processed(), 200u);
    // Block trimming retains at most 2x the cap between trims.
    EXPECT_LE(eng.tracker().track().size(), 100u);
    EXPECT_LE(eng.tracker().raw_track().size(), 100u);
    EXPECT_GE(eng.tracker().track().size(), 50u);
}

TEST(FallMonitorApp, AlertRingDropsOldest) {
    // Synthesize repeated stand -> fast fall -> recover cycles; each cycle
    // triggers exactly one alert, and the ring keeps only the newest two.
    apps::FallMonitor monitor(core::FallDetectorConfig{}, /*max_alerts=*/2);
    double t = 0.0;
    const double dt = 0.0125;
    auto feed = [&](double seconds, auto elevation_at) {
        const int steps = static_cast<int>(seconds / dt);
        for (int i = 0; i < steps; ++i) {
            core::TrackPoint point;
            point.time_s = t;
            point.position = {0.0, 5.0, elevation_at(i * dt / seconds)};
            monitor.push(point);
            t += dt;
        }
    };

    // The low dwell must outlast the detector's 6 s sliding window, so the
    // descent has left the window by the time the monitor re-arms on the
    // way back up -- exactly one alert per cycle.
    const int cycles = 5;
    for (int c = 0; c < cycles; ++c) {
        feed(4.0, [](double) { return 1.0; });                        // standing
        feed(0.35, [](double u) { return 1.0 - 0.85 * u; });          // fast drop
        feed(6.5, [](double) { return 0.15; });                       // on the ground
        feed(1.0, [](double u) { return 0.15 + 0.85 * u; });          // get back up
    }

    EXPECT_EQ(monitor.total_alerts(), static_cast<std::size_t>(cycles));
    ASSERT_EQ(monitor.alerts().size(), 2u);  // ring bounded the history
    for (const auto& alert : monitor.alerts())
        EXPECT_EQ(alert.activity, core::Activity::kFall);
}

// --------------------------------------------------------- LiveSource

// The hardware ingest path: a LiveSource driving hw::FmcwFrontend sweep by
// sweep. The channel's antennas sit exactly on the default T array (Tx at
// the centre, Rx at +-1 m and 1 m below), so the geometry handed to the
// engine matches the physics that produced the sweeps.

geom::ArrayGeometry live_array() { return geom::make_t_array({0, 0, 1.3}, 1.0); }

rf::Channel live_channel() {
    const geom::ArrayGeometry array = live_array();
    rf::Antenna tx{array.tx, array.boresight, {}};
    std::vector<rf::Antenna> rx;
    for (const auto& position : array.rx)
        rx.push_back(rf::Antenna{position, array.boresight, {}});
    return rf::Channel(rf::ChannelConfig{}, tx, rx, rf::Scene{});
}

TEST(LiveSource, FrameShapeAndClockMatchTheFrontend) {
    hw::FrontendConfig config;
    hw::FmcwFrontend frontend(config, live_channel(), Rng(11));
    const double duration_s = 5.5 * config.fmcw.frame_duration_s();
    engine::LiveSource source(frontend, live_array(), duration_s);

    EXPECT_EQ(&source.fmcw(), &frontend.params());
    EXPECT_EQ(source.array().num_rx(), frontend.num_rx());

    engine::Frame frame;
    std::size_t frames = 0;
    double last_time = -1.0;
    while (source.next(frame)) {
        // Full capture geometry: one row per Rx, every configured sweep.
        ASSERT_EQ(frame.sweeps.num_rx(), frontend.num_rx());
        ASSERT_EQ(frame.sweeps.num_sweeps(), config.fmcw.sweeps_per_frame);
        ASSERT_EQ(frame.sweeps.samples_per_sweep(),
                  config.fmcw.samples_per_sweep());
        // Hardware has no ground truth, and the clock is the sweep clock.
        EXPECT_FALSE(frame.truth.has_value());
        EXPECT_DOUBLE_EQ(frame.time_s, static_cast<double>(frames) *
                                           config.fmcw.frame_duration_s());
        EXPECT_GT(frame.time_s, last_time);
        last_time = frame.time_s;
        ++frames;
    }
    EXPECT_EQ(frames, 6u);  // ceil(5.5 frame durations)
    EXPECT_FALSE(source.next(frame));  // stays exhausted
}

TEST(LiveSource, BodyProviderShapesTheCapture) {
    hw::FrontendConfig config;
    config.adc_bits = 0;  // no quantization: the echo must always register
    const double duration_s = 2.0 * config.fmcw.frame_duration_s();

    std::vector<double> provider_times;
    auto provider = [&](double time_s) {
        provider_times.push_back(time_s);
        return std::vector<rf::BodyScatterer>{{{0.0, 5.0, 1.3}, 0.8, 0.0}};
    };

    hw::FmcwFrontend with_body(config, live_channel(), Rng(12));
    engine::LiveSource occupied(with_body, live_array(), duration_s, provider);
    hw::FmcwFrontend without(config, live_channel(), Rng(12));
    engine::LiveSource empty_room(without, live_array(), duration_s);

    engine::Frame a, b;
    ASSERT_TRUE(occupied.next(a));
    ASSERT_TRUE(empty_room.next(b));
    // The provider is consulted once per frame, at the frame's capture time.
    ASSERT_EQ(provider_times.size(), 1u);
    EXPECT_DOUBLE_EQ(provider_times[0], 0.0);
    // Same seed, same statics -- any difference is the body's echo.
    ASSERT_EQ(a.sweeps.size(), b.sweeps.size());
    double energy = 0.0;
    for (std::size_t i = 0; i < a.sweeps.size(); ++i) {
        const double d = a.sweeps.data()[i] - b.sweeps.data()[i];
        energy += d * d;
    }
    EXPECT_GT(energy, 0.0);
}

TEST(LiveSource, DeterministicForTheSameFrontendSeed) {
    hw::FrontendConfig config;
    const double duration_s = 3.0 * config.fmcw.frame_duration_s();
    auto provider = [](double) {
        return std::vector<rf::BodyScatterer>{{{0.3, 4.0, 1.0}, 0.8, 0.1}};
    };

    hw::FmcwFrontend f1(config, live_channel(), Rng(13));
    hw::FmcwFrontend f2(config, live_channel(), Rng(13));
    engine::LiveSource s1(f1, live_array(), duration_s, provider);
    engine::LiveSource s2(f2, live_array(), duration_s, provider);

    engine::Frame a, b;
    std::size_t frames = 0;
    while (s1.next(a)) {
        ASSERT_TRUE(s2.next(b));
        ASSERT_EQ(a.sweeps.size(), b.sweeps.size());
        EXPECT_EQ(std::memcmp(a.sweeps.data(), b.sweeps.data(),
                              a.sweeps.size() * sizeof(double)),
                  0);
        ++frames;
    }
    EXPECT_FALSE(s2.next(b));
    EXPECT_EQ(frames, 3u);
}

}  // namespace
}  // namespace witrack
