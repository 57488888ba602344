// Tests of the benchmark's own plumbing: the FrameSource decorator must be
// invisible to snapshots and net counters, the paced sender must block and
// end like a real link, and the span arithmetic must add up.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "engine/host.hpp"
#include "engine/sim_source.hpp"
#include "harness.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "sim/motion.hpp"

namespace {

using namespace perfbench;
namespace sim = witrack::sim;

engine::EngineConfig quick_config() {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(11);
    return config;
}

std::unique_ptr<engine::FrameSource> quick_sim() {
    return std::make_unique<engine::SimSource>(
        quick_config(), std::make_unique<sim::LineWalkScript>(geom::Vec3{-1, 5, 0},
                                                               geom::Vec3{1, 5, 0}, 1.0));
}

/// What TimedSource would be without the forwarding overrides.
class NextOnlySource final : public engine::FrameSource {
  public:
    explicit NextOnlySource(std::unique_ptr<engine::FrameSource> inner)
        : inner_(std::move(inner)) {}
    bool next(engine::Frame& frame) override { return inner_->next(frame); }
    const geom::ArrayGeometry& array() const override { return inner_->array(); }
    const witrack::FmcwParams& fmcw() const override { return inner_->fmcw(); }

  private:
    std::unique_ptr<engine::FrameSource> inner_;
};

TEST(TimedSource, CheckpointsAndRestoresThroughTheDecorator) {
    FrameProbe probe;
    probe.input_ready = [](std::uint64_t) { return now_s(); };
    FrameProbe restored_probe = probe;

    engine::EngineHost host(engine::HostConfig{}.with_workers(1));
    const auto id = host.admit("timed", quick_config(),
                               std::make_unique<TimedSource>(quick_sim(), Layer::kSimNext, probe));
    wire_home(*host.session(id), probe);
    for (int i = 0; i < 10; ++i) host.step_all();

    std::stringstream snapshot;
    ASSERT_NO_THROW(host.checkpoint_session(id, snapshot));
    EXPECT_GT(snapshot.str().size(), 0u);
    const auto copy = host.restore_session(
        "restored", quick_config(),
        std::make_unique<TimedSource>(quick_sim(), Layer::kSimNext, restored_probe), snapshot,
        [&](engine::Engine& engine) { wire_home(engine, restored_probe); });

    // Both resume at the same frame and track it bit for bit.
    probe.keep_track = restored_probe.keep_track = true;
    host.step_all();
    ASSERT_EQ(probe.track.size(), 1u);
    ASSERT_EQ(restored_probe.track.size(), 1u);
    EXPECT_EQ(probe.seq, restored_probe.seq);
    EXPECT_EQ(probe.track[0].x, restored_probe.track[0].x);
    EXPECT_EQ(probe.track[0].y, restored_probe.track[0].y);
    EXPECT_EQ(probe.track[0].z, restored_probe.track[0].z);
    EXPECT_NE(host.session(copy), nullptr);
}

TEST(TimedSource, ANonForwardingDecoratorCannotCheckpoint) {
    engine::EngineHost host(engine::HostConfig{}.with_workers(1));
    const auto id =
        host.admit("plain", quick_config(), std::make_unique<NextOnlySource>(quick_sim()));
    host.step_all();
    std::stringstream snapshot;
    EXPECT_THROW(host.checkpoint_session(id, snapshot), std::runtime_error);
}

/// A few fast-capture frames packed as one sender's WTNF stream.
PacedStream packed_stream(std::size_t frames, double spacing_s, std::vector<net::Datagram>& store) {
    auto source = quick_sim();
    engine::Frame frame;
    std::vector<double> due;
    for (std::uint64_t seq = 0; seq < frames && source->next(frame); ++seq)
        for (auto& datagram : net::pack_frame(frame, 7, seq)) {
            store.push_back(std::move(datagram));
            due.push_back(static_cast<double>(seq) * spacing_s);
        }
    store.push_back(net::pack_end_of_stream(7, frames));
    due.push_back(static_cast<double>(frames) * spacing_s);
    PacedStream stream;
    for (const auto& datagram : store) stream.datagrams.push_back(&datagram);
    stream.due_s = due;
    return stream;
}

TEST(TimedSource, ForwardsNetCounters) {
    std::vector<net::Datagram> store;
    auto stream = std::make_shared<PacedStream>(packed_stream(2, 0.0, store));
    net::NetSourceConfig config;
    config.session_token = 7;
    FrameProbe probe;
    TimedSource source(
        std::make_unique<net::NetSource>(std::make_unique<PacedDatagramSource>(stream, now_s()),
                                         config),
        Layer::kNetNext, probe);
    engine::Frame frame;
    ASSERT_TRUE(source.next(frame));
    const auto stats = source.net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->frames_delivered, 1u);
    EXPECT_GT(stats->datagrams, 0u);
}

TEST(PacedDatagramSource, ReleasesOnScheduleAndThenEnds) {
    std::vector<std::uint8_t> a{1}, b{2}, c{3};
    auto stream = std::make_shared<PacedStream>();
    stream->datagrams = {&a, &b, &c};
    stream->due_s = {0.0, 0.03, 0.06};
    const double start = now_s();
    PacedDatagramSource source(stream, start);

    std::vector<std::uint8_t> got;
    ASSERT_TRUE(source.receive(got));
    EXPECT_EQ(got, a);
    EXPECT_FALSE(source.receive(got));  // b is not due yet
    EXPECT_FALSE(source.exhausted());

    // wait() sleeps until b is due, not for the whole timeout.
    ASSERT_TRUE(source.wait(1000));
    const double waited = now_s() - start;
    EXPECT_GE(waited, 0.03);
    EXPECT_LT(waited, 0.5);
    ASSERT_TRUE(source.receive(got));
    EXPECT_EQ(got, b);

    // A timeout shorter than the gap returns false without a datagram.
    EXPECT_FALSE(source.wait(1));
    ASSERT_TRUE(source.wait(1000));
    ASSERT_TRUE(source.receive(got));
    EXPECT_EQ(got, c);
    EXPECT_TRUE(source.exhausted());
    EXPECT_FALSE(source.wait(1000));
    EXPECT_GT(source.wait_s(), 0.05);
}

TEST(PacedDatagramSource, NetSourceEndsWithTheStreamNotTheIdleTimeout) {
    std::vector<net::Datagram> store;
    auto stream = std::make_shared<PacedStream>(packed_stream(4, 0.0125, store));
    net::NetSourceConfig config;
    config.session_token = 7;
    config.idle_timeout_s = 30.0;
    net::NetSource source(std::make_unique<PacedDatagramSource>(stream, now_s()), config);
    const double begin = now_s();
    engine::Frame frame;
    std::size_t frames = 0;
    while (source.next(frame)) ++frames;
    EXPECT_EQ(frames, 4u);
    EXPECT_LT(now_s() - begin, 2.0);
    EXPECT_EQ(source.net_stats()->idle_timeouts, 0u);
}

TEST(Tracer, SelfTimeSubtractsDirectChildren) {
    Tracer tracer(true);
    const auto root = tracer.open(Layer::kStep, 0, 0, 0.0);
    tracer.add(Layer::kReplayNext, 1, 0, 0.0, 1.0);
    const auto inner = tracer.open(Layer::kNetNext, 1, 0, 1.0);
    tracer.add(Layer::kNetWait, 1, 0, 1.0, 1.5);
    tracer.close(inner, 3.0);
    tracer.close(root, 4.0);
    const auto self = tracer.self_times_all();
    ASSERT_EQ(self.size(), 4u);
    EXPECT_DOUBLE_EQ(self[0], 1.0);  // 4 - 1 - 2
    EXPECT_DOUBLE_EQ(self[1], 1.0);
    EXPECT_DOUBLE_EQ(self[2], 1.5);  // 2 - 0.5
    EXPECT_DOUBLE_EQ(self[3], 0.5);
    EXPECT_EQ(tracer.spans()[1].parent, 0);
    EXPECT_EQ(tracer.spans()[3].parent, 2);

    Tracer off(false);
    EXPECT_EQ(off.open(Layer::kStep, 0, 0, 0.0), -1);
    EXPECT_TRUE(off.spans().empty());
}

TEST(Percentile, NearestRankWithMissesLast) {
    std::vector<double> values{5, 1, 4, 2, 3};
    EXPECT_EQ(percentile(values, 0.5), 3.0);
    EXPECT_EQ(percentile(values, 0.99), 5.0);
    EXPECT_EQ(percentile(values, 0.0), 1.0);
    std::vector<double> misses{1, std::numeric_limits<double>::infinity()};
    EXPECT_EQ(percentile(misses, 0.5), 1.0);
    EXPECT_TRUE(std::isinf(percentile(misses, 0.99)));
    std::vector<double> none;
    EXPECT_EQ(percentile(none, 0.5), 0.0);
}

}  // namespace
