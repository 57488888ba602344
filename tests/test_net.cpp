// Network ingestion suite. The contract under test: frames shipped through
// the WTNF wire protocol into a NetSource-fed Engine produce output
// bit-identical to the same episode pulled from the in-process SimSource --
// over real loopback UDP datagrams -- and every way a link can misbehave
// (truncation, corruption, loss, reordering, duplication, version skew,
// foreign traffic) is counted in NetIngestStats and degrades the stream
// gracefully: gaps, never crashes, never silently corrupt frames. Plus the
// TCP control plane: PING/STATS/PAUSE/RESUME/EVICT/CHECKPOINT driving a
// live EngineHost over a socket.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/sim_source.hpp"
#include "hw/fault_injector.hpp"
#include "net/control_server.hpp"
#include "net/datagram_source.hpp"
#include "net/fault_injector.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "net/sequence_tracker.hpp"
#include "net/udp_socket.hpp"

namespace witrack {
namespace {

using geom::Vec3;
using net::Datagram;
using net::DecodeStatus;

// ------------------------------------------------------------ helpers

engine::EngineConfig walk_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<sim::LineWalkScript> walk_script(double seconds = 2.0) {
    return std::make_unique<sim::LineWalkScript>(Vec3{-1.0, 5, 0},
                                                 Vec3{1.0, 5, 0}, seconds, 1.0);
}

/// Capture a full sim episode as owned Frame copies.
std::vector<engine::Frame> record_frames(std::uint64_t seed,
                                         double seconds = 2.0) {
    auto config = walk_config(seed);
    engine::SimSource source(config, walk_script(seconds));
    std::vector<engine::Frame> frames;
    engine::Frame frame;
    while (source.next(frame)) frames.push_back(frame);
    return frames;
}

/// A tiny frame whose body fits any MTU -- protocol unit-test fodder.
engine::Frame tiny_frame(double time_s = 0.25) {
    engine::Frame frame;
    frame.time_s = time_s;
    frame.sweeps.resize(2, 1, 4);
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = 0.5 * static_cast<double>(i) - 1.0;
    frame.truth = engine::GroundTruth{Vec3{0.1, 4.5, -0.2}, Vec3{1.0, 2.0, 3.0}};
    return frame;
}

void expect_same_frame(const engine::Frame& a, const engine::Frame& b) {
    EXPECT_EQ(a.time_s, b.time_s);
    ASSERT_EQ(a.sweeps.num_rx(), b.sweeps.num_rx());
    ASSERT_EQ(a.sweeps.num_sweeps(), b.sweeps.num_sweeps());
    ASSERT_EQ(a.sweeps.samples_per_sweep(), b.sweeps.samples_per_sweep());
    EXPECT_EQ(std::memcmp(a.sweeps.data(), b.sweeps.data(),
                          a.sweeps.size() * sizeof(double)),
              0);
    ASSERT_EQ(a.truth.has_value(), b.truth.has_value());
    if (a.truth) {
        EXPECT_EQ(a.truth->position.x, b.truth->position.x);
        EXPECT_EQ(a.truth->position.y, b.truth->position.y);
        EXPECT_EQ(a.truth->position.z, b.truth->position.z);
        ASSERT_EQ(a.truth->position2.has_value(), b.truth->position2.has_value());
        if (a.truth->position2) {
            EXPECT_EQ(a.truth->position2->x, b.truth->position2->x);
            EXPECT_EQ(a.truth->position2->y, b.truth->position2->y);
            EXPECT_EQ(a.truth->position2->z, b.truth->position2->z);
        }
    }
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

/// The full datagram stream of an episode: every frame in seq order, the
/// end-of-stream marker last.
std::vector<Datagram> pack_episode(const std::vector<engine::Frame>& frames,
                                   std::uint64_t token,
                                   std::size_t mtu = net::kDefaultMtuBytes) {
    std::vector<Datagram> stream;
    for (std::size_t i = 0; i < frames.size(); ++i)
        for (auto& datagram : net::pack_frame(frames[i], token, i, mtu))
            stream.push_back(std::move(datagram));
    stream.push_back(net::pack_end_of_stream(token, frames.size()));
    return stream;
}

std::unique_ptr<net::NetSource> queue_source(
    std::vector<Datagram> stream, std::uint64_t token,
    net::SequenceTrackerConfig tracker = {}) {
    auto queue = std::make_unique<net::QueueDatagramSource>();
    for (auto& datagram : stream) queue->push(std::move(datagram));
    queue->close();
    net::NetSourceConfig config;
    config.session_token = token;
    config.tracker = tracker;
    return std::make_unique<net::NetSource>(std::move(queue), config);
}

// Header field offsets (see the layout table in net/frame_protocol.hpp).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffFlags = 6;
constexpr std::size_t kOffFragIndex = 24;
constexpr std::size_t kOffFragCount = 26;

void patch16(Datagram& datagram, std::size_t offset, std::uint16_t value) {
    std::memcpy(datagram.data() + offset, &value, sizeof value);
}

/// Recompute and overwrite the trailing CRC, so field-tampering tests
/// exercise the header validation rather than tripping the CRC check.
void reseal(Datagram& datagram) {
    const std::uint32_t crc =
        common::crc32(datagram.data(), datagram.size() - net::kTrailerBytes);
    std::memcpy(datagram.data() + datagram.size() - net::kTrailerBytes, &crc,
                sizeof crc);
}

DecodeStatus decode(const Datagram& datagram) {
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    return net::decode_datagram(datagram, header, payload);
}

// ------------------------------------------------------ wire protocol

TEST(FrameProtocol, SingleFragmentRoundTrip) {
    const engine::Frame frame = tiny_frame();
    const auto datagrams = net::pack_frame(frame, 42, 7);
    ASSERT_EQ(datagrams.size(), 1u);
    EXPECT_LE(datagrams[0].size(), net::kDefaultMtuBytes);

    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(datagrams[0], header, payload),
              DecodeStatus::kOk);
    EXPECT_EQ(header.token, 42u);
    EXPECT_EQ(header.frame_seq, 7u);
    EXPECT_EQ(header.fragment_index, 0u);
    EXPECT_EQ(header.fragment_count, 1u);
    EXPECT_FALSE(header.end_of_stream());
    EXPECT_EQ(payload.size(), net::frame_body_bytes(frame));

    engine::Frame decoded;
    ASSERT_TRUE(net::decode_frame_body(payload, decoded));
    expect_same_frame(frame, decoded);
}

TEST(FrameProtocol, MultiFragmentRoundTrip) {
    engine::Frame frame = tiny_frame(1.5);
    frame.truth.reset();
    frame.sweeps.resize(3, 1, 500);  // 12 KB body: ~9 fragments at MTU 1400
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = std::sin(0.01 * static_cast<double>(i));

    const auto datagrams = net::pack_frame(frame, 9, 0);
    ASSERT_GT(datagrams.size(), 4u);
    for (const auto& datagram : datagrams)
        EXPECT_LE(datagram.size(), net::kDefaultMtuBytes);

    net::SequenceTracker tracker;
    for (const auto& datagram : datagrams) {
        net::FrameHeader header;
        std::span<const std::uint8_t> payload;
        ASSERT_EQ(net::decode_datagram(datagram, header, payload),
                  DecodeStatus::kOk);
        EXPECT_EQ(header.fragment_count, datagrams.size());
        tracker.offer(header, payload);
    }
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 0u);
    engine::Frame decoded;
    ASSERT_TRUE(net::decode_frame_body(body, decoded));
    expect_same_frame(frame, decoded);
}

TEST(FrameProtocol, EndOfStreamMarker) {
    const Datagram eos = net::pack_end_of_stream(5, 160);
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(eos, header, payload), DecodeStatus::kOk);
    EXPECT_TRUE(header.end_of_stream());
    EXPECT_EQ(header.frame_seq, 160u);
    EXPECT_TRUE(payload.empty());
}

TEST(FrameProtocol, PackRejectsUnusableMtu) {
    EXPECT_THROW(net::pack_frame(tiny_frame(), 1, 0,
                                 net::kHeaderBytes + net::kTrailerBytes),
                 std::invalid_argument);
}

TEST(FrameProtocol, PackRejectsFragmentCountOverflow) {
    engine::Frame frame = tiny_frame();
    frame.truth.reset();
    frame.sweeps.resize(4, 1, 2500);  // 80 KB body
    // 1-byte payloads would need ~80000 fragments: over the u16 count.
    EXPECT_THROW(net::pack_frame(frame, 1, 0,
                                 net::kHeaderBytes + net::kTrailerBytes + 1),
                 std::invalid_argument);
}

TEST(FrameProtocol, TornDatagramPaths) {
    const Datagram good = net::pack_frame(tiny_frame(), 3, 0)[0];
    ASSERT_EQ(decode(good), DecodeStatus::kOk);

    // Too short to even hold a header.
    Datagram torn(good.begin(), good.begin() + 20);
    EXPECT_EQ(decode(torn), DecodeStatus::kTruncated);

    // Tail cut off: total length disagrees with payload_len.
    torn = good;
    torn.pop_back();
    EXPECT_EQ(decode(torn), DecodeStatus::kTruncated);

    // Not our protocol at all.
    torn = good;
    torn[0] ^= 0xFF;
    EXPECT_EQ(decode(torn), DecodeStatus::kBadMagic);

    // Version skew is judged BEFORE the CRC (a future revision may move the
    // CRC field), so a bumped version is reported as skew even though the
    // CRC no longer matches.
    torn = good;
    patch16(torn, kOffVersion, net::kProtocolVersion + 1);
    EXPECT_EQ(decode(torn), DecodeStatus::kVersionSkew);

    // One flipped payload bit: CRC catches it.
    torn = good;
    torn[net::kHeaderBytes] ^= 0x01;
    EXPECT_EQ(decode(torn), DecodeStatus::kBadCrc);
}

TEST(FrameProtocol, MalformedHeaderPaths) {
    const Datagram good = net::pack_frame(tiny_frame(), 3, 0)[0];

    // fragment_count == 0 can index nothing.
    Datagram bad = good;
    patch16(bad, kOffFragCount, 0);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // fragment_index out of range.
    bad = good;
    patch16(bad, kOffFragIndex, 5);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // End-of-stream markers carry no payload.
    bad = good;
    patch16(bad, kOffFlags, net::kFlagEndOfStream);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // payload_len * fragment_count blowing past the frame body cap: needs
    // an MTU-sized payload (~1.4 KB) so 65535 fragments exceed 64 MiB.
    engine::Frame wide = tiny_frame();
    wide.sweeps.resize(3, 1, 500);
    bad = net::pack_frame(wide, 3, 0)[0];
    ASSERT_GT(bad.size(), 1024u + net::kHeaderBytes + net::kTrailerBytes);
    patch16(bad, kOffFragCount, 0xFFFF);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);
}

TEST(FrameProtocol, BodyShapeMismatchRejected) {
    const engine::Frame frame = tiny_frame();
    const auto datagrams = net::pack_frame(frame, 1, 0);
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(datagrams[0], header, payload),
              DecodeStatus::kOk);

    // Corrupt the num_rx shape field inside the body: the sample count no
    // longer matches, so the body must be rejected, not misinterpreted.
    std::vector<std::uint8_t> body(payload.begin(), payload.end());
    const std::size_t shape_offset =
        sizeof(double) + 1 + 6 * sizeof(double);  // time, flags, two truths
    std::uint32_t bogus_rx = 7;
    std::memcpy(body.data() + shape_offset, &bogus_rx, sizeof bogus_rx);
    engine::Frame decoded;
    EXPECT_FALSE(net::decode_frame_body(body, decoded));

    // Truncated body: same verdict.
    std::vector<std::uint8_t> short_body(payload.begin(), payload.end() - 8);
    EXPECT_FALSE(net::decode_frame_body(short_body, decoded));
}

// --------------------------------------------------- sequence tracking

/// offer() every datagram of `frame_seq` packed from a tiny frame.
void offer_frame(net::SequenceTracker& tracker, std::uint64_t frame_seq,
                 std::uint64_t token = 1) {
    const auto datagrams =
        net::pack_frame(tiny_frame(0.1 * static_cast<double>(frame_seq)),
                        token, frame_seq);
    for (const auto& datagram : datagrams) {
        net::FrameHeader header;
        std::span<const std::uint8_t> payload;
        ASSERT_EQ(net::decode_datagram(datagram, header, payload),
                  DecodeStatus::kOk);
        tracker.offer(header, payload);
    }
}

TEST(SequenceTracker, InOrderDelivery) {
    net::SequenceTracker tracker;
    for (std::uint64_t seq = 0; seq < 5; ++seq) offer_frame(tracker, seq);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    for (std::uint64_t want = 0; want < 5; ++want) {
        ASSERT_TRUE(tracker.pop(seq, body));
        EXPECT_EQ(seq, want);
    }
    EXPECT_FALSE(tracker.pop(seq, body));
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().reorders, 0u);
    EXPECT_EQ(tracker.stats().duplicates, 0u);
}

TEST(SequenceTracker, ReorderedFramesDeliveredInOrder) {
    net::SequenceTracker tracker;
    offer_frame(tracker, 1);  // arrives first
    offer_frame(tracker, 0);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 0u);
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 1u);
    EXPECT_GE(tracker.stats().reorders, 1u);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
}

TEST(SequenceTracker, FlushAccountsGapsAgainstEndOfStream) {
    net::SequenceTracker tracker;
    offer_frame(tracker, 0);
    offer_frame(tracker, 1);
    offer_frame(tracker, 3);  // 2 never arrives
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    const Datagram eos = net::pack_end_of_stream(1, 5);  // 4 never arrives
    ASSERT_EQ(net::decode_datagram(eos, header, payload), DecodeStatus::kOk);
    tracker.offer(header, payload);
    EXPECT_TRUE(tracker.end_of_stream_seen());

    tracker.flush();
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    std::vector<std::uint64_t> delivered;
    while (tracker.pop(seq, body)) delivered.push_back(seq);
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 3}));
    EXPECT_EQ(tracker.stats().frame_gaps, 2u);  // seqs 2 and 4
    EXPECT_EQ(tracker.pending_frames(), 0u);
}

TEST(SequenceTracker, DuplicateAndLateFragmentsCounted) {
    net::SequenceTracker tracker;
    // Frame 1 arrives twice while the hole at 0 blocks delivery: the
    // second copy is a duplicate of a frame still parked in the tracker.
    offer_frame(tracker, 1);
    offer_frame(tracker, 1);
    EXPECT_GE(tracker.stats().duplicates, 1u);

    offer_frame(tracker, 0);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    ASSERT_TRUE(tracker.pop(seq, body));
    offer_frame(tracker, 0);  // after the frame's book closed: late
    EXPECT_GE(tracker.stats().late_fragments, 1u);
}

TEST(SequenceTracker, WindowOverflowWritesOffTheHole) {
    net::SequenceTracker tracker({.window_frames = 4});
    // Frame 0 never arrives; 1..4 pending stalls delivery until the window
    // fills, then 0 is written off and everything flows.
    for (std::uint64_t seq = 1; seq <= 3; ++seq) offer_frame(tracker, seq);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    EXPECT_FALSE(tracker.pop(seq, body));  // still hoping for frame 0
    offer_frame(tracker, 5);               // frontier - next == window
    std::vector<std::uint64_t> delivered;
    while (tracker.pop(seq, body)) delivered.push_back(seq);
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(tracker.stats().frame_gaps, 1u);
}

// ------------------------------------------------------------ NetSource

TEST(NetSource, CleanQueueStreamDeliversEveryFrameBitwise) {
    const auto frames = record_frames(301, 0.5);
    ASSERT_GT(frames.size(), 10u);
    auto source = queue_source(pack_episode(frames, 11), 11);
    net::NetSource* net_source = source.get();

    engine::Frame frame;
    std::size_t delivered = 0;
    while (source->next(frame)) {
        ASSERT_LT(delivered, frames.size());
        expect_same_frame(frames[delivered], frame);
        ++delivered;
    }
    EXPECT_EQ(delivered, frames.size());

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->frames_delivered, frames.size());
    EXPECT_EQ(stats->frame_gaps, 0u);
    EXPECT_EQ(stats->crc_errors, 0u);
    EXPECT_GT(stats->datagrams, frames.size());  // multi-fragment frames
    EXPECT_GT(stats->bytes, 0u);
}

TEST(NetSource, CountsUndecodableAndForeignDatagrams) {
    const auto frames = record_frames(302, 0.25);
    auto stream = pack_episode(frames, 21);

    Datagram truncated = stream[0];
    truncated.resize(10);
    Datagram bad_magic = stream[0];
    bad_magic[0] ^= 0xFF;
    Datagram skewed = stream[0];
    patch16(skewed, kOffVersion, net::kProtocolVersion + 3);
    Datagram corrupt = stream[0];
    corrupt[net::kHeaderBytes] ^= 0x10;
    const Datagram foreign = net::pack_frame(tiny_frame(), 99, 0)[0];

    // Splice the junk in ahead of the real stream.
    std::vector<Datagram> noisy{truncated, bad_magic, skewed, corrupt, foreign};
    for (auto& datagram : stream) noisy.push_back(std::move(datagram));

    auto source = queue_source(std::move(noisy), 21);
    net::NetSource* net_source = source.get();
    engine::Frame frame;
    std::size_t delivered = 0;
    while (source->next(frame)) ++delivered;
    EXPECT_EQ(delivered, frames.size());

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->truncated, 1u);
    EXPECT_EQ(stats->bad_magic, 1u);
    EXPECT_EQ(stats->version_skew, 1u);
    EXPECT_EQ(stats->crc_errors, 1u);
    EXPECT_EQ(stats->foreign_token, 1u);
    EXPECT_EQ(stats->frame_gaps, 0u);  // the real copy of frame 0 still came
}

TEST(NetSource, IdleTimeoutEndsTheStream) {
    // A queue that never closes and never receives: silence. The source
    // must give up after idle_timeout_s, not hang the engine forever.
    auto queue = std::make_unique<net::QueueDatagramSource>();
    net::NetSourceConfig config;
    config.session_token = 1;
    config.idle_timeout_s = 0.05;
    config.poll_interval_ms = 1;
    net::NetSource source(std::move(queue), config);
    engine::Frame frame;
    EXPECT_FALSE(source.next(frame));
    const auto stats = source.net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->idle_timeouts, 1u);
}

// -------------------------------------------------- fault injection

TEST(FaultInjector, DeterministicForAGivenSeed) {
    const auto frames = record_frames(303, 0.25);
    net::FaultConfig config;
    config.drop_rate = 0.1;
    config.duplicate_rate = 0.05;
    config.corrupt_rate = 0.05;
    config.reorder_rate = 0.1;
    config.seed = 77;

    net::FaultInjector a(config), b(config);
    const auto out_a = a.apply(pack_episode(frames, 5));
    const auto out_b = b.apply(pack_episode(frames, 5));
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) EXPECT_EQ(out_a[i], out_b[i]);
    EXPECT_EQ(a.counters().dropped, b.counters().dropped);
    EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);

    net::FaultInjector c(net::FaultConfig{.seed = 78});
    EXPECT_GT(a.counters().dropped, 0u);
    EXPECT_GT(a.counters().corrupted, 0u);
    EXPECT_GT(a.counters().duplicated, 0u);
    EXPECT_GT(a.counters().reordered, 0u);
    (void)c;
}

TEST(FaultInjector, FaultedStreamDegradesGracefully) {
    const auto frames = record_frames(304, 1.0);
    ASSERT_GT(frames.size(), 40u);

    net::FaultConfig fault;
    fault.drop_rate = 0.03;
    fault.duplicate_rate = 0.02;
    fault.corrupt_rate = 0.02;
    fault.reorder_rate = 0.05;
    fault.seed = 1234;  // protect_last defaults true: the EOS marker lands
    net::FaultInjector injector(fault);
    auto source = queue_source(injector.apply(pack_episode(frames, 7)), 7);
    net::NetSource* net_source = source.get();

    std::map<double, std::size_t> by_time;
    for (std::size_t i = 0; i < frames.size(); ++i)
        by_time[frames[i].time_s] = i;

    engine::Frame frame;
    std::size_t delivered = 0;
    std::size_t last_index = 0;
    bool first = true;
    while (source->next(frame)) {
        // Every delivered frame is bit-exact (corruption never leaks
        // through the CRC) and order is preserved across the holes.
        const auto it = by_time.find(frame.time_s);
        ASSERT_NE(it, by_time.end());
        expect_same_frame(frames[it->second], frame);
        if (!first) {
            EXPECT_GT(it->second, last_index);
        }
        last_index = it->second;
        first = false;
        ++delivered;
    }

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    // Exact bookkeeping: every sent frame was delivered or counted as a
    // gap; every corrupted datagram is exactly one CRC error; every
    // surplus duplicate surfaced as a duplicate or a late fragment.
    EXPECT_EQ(stats->frames_delivered, delivered);
    EXPECT_EQ(stats->frames_delivered + stats->frame_gaps, frames.size());
    EXPECT_EQ(stats->crc_errors, injector.counters().corrupted);
    EXPECT_EQ(stats->duplicates + stats->late_fragments,
              injector.counters().duplicated);
    EXPECT_GT(stats->frame_gaps, 0u);
    EXPECT_GT(stats->reorders, 0u);
    EXPECT_LE(stats->reorders, injector.counters().reordered);
}

TEST(FaultInjector, FaultedEngineSessionSurvivesEndToEnd) {
    const auto frames = record_frames(305, 1.0);
    net::FaultConfig fault;
    fault.drop_rate = 0.05;
    fault.corrupt_rate = 0.03;
    fault.reorder_rate = 0.05;
    fault.seed = 4321;
    net::FaultInjector injector(fault);
    auto source = queue_source(injector.apply(pack_episode(frames, 3)), 3);

    engine::EngineHost host;
    const auto id = host.admit("lossy-home", walk_config(305), std::move(source));
    host.run();
    EXPECT_EQ(host.state(id), engine::SessionState::kFinished);

    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.net.frames_delivered + stats.net.frame_gaps, frames.size());
    EXPECT_GT(stats.net.frame_gaps, 0u);
    ASSERT_EQ(stats.sessions.size(), 1u);
    ASSERT_TRUE(stats.sessions[0].net.has_value());
    EXPECT_EQ(stats.sessions[0].net->frames_delivered,
              stats.net.frames_delivered);
    // The degraded session still tracked: fewer points than a clean run,
    // but a track, and the process is alive to tell.
    EXPECT_GT(host.session(id)->tracker().track().size(), 0u);
}

// ------------------------------------------- loopback UDP end-to-end

TEST(LoopbackE2E, NetFedEngineIsBitIdenticalToSimFed) {
    const auto config = walk_config(808);

    // Reference: the same episode pulled straight from the simulator.
    engine::Engine reference(
        config, std::make_unique<engine::SimSource>(config, walk_script()));
    reference.run();
    ASSERT_GT(reference.tracker().track().size(), 50u);

    const auto frames = record_frames(808);
    ASSERT_GT(frames.size(), 100u);

    // Receiver: a real UDP socket feeding a NetSource feeding an Engine.
    auto socket = std::make_unique<net::UdpSocket>();
    const std::uint16_t ingest_port = socket->local_port();
    net::NetSourceConfig net_config;
    {
        engine::SimSource shape(config, walk_script());
        net_config.fmcw = shape.fmcw();
        net_config.array = shape.array();
    }
    net_config.session_token = 77;
    net_config.idle_timeout_s = 30.0;  // CI boxes stall; silence is not expected
    auto source =
        std::make_unique<net::NetSource>(std::move(socket), net_config);
    net::NetSource* net_source = source.get();
    engine::Engine netted(config, std::move(source));

    // Interleave sender and receiver: ship one frame's datagrams, pumping
    // the socket every few sends so the kernel receive buffer (typically
    // ~208 KB, about two fast-capture frames) never overflows, then step
    // the engine through that frame.
    net::UdpSocket sender;
    for (std::size_t seq = 0; seq < frames.size(); ++seq) {
        const auto datagrams = net::pack_frame(frames[seq], 77, seq);
        std::size_t sent = 0;
        for (const auto& datagram : datagrams) {
            sender.send_to(ingest_port, datagram);
            if (++sent % 16 == 0) net_source->pump();
        }
        ASSERT_TRUE(netted.step());
    }
    const Datagram eos = net::pack_end_of_stream(77, frames.size());
    sender.send_to(ingest_port, eos);
    netted.run();  // drains the stream end, finishes the session

    expect_same_track(reference.tracker().track(), netted.tracker().track());
    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->frames_delivered, frames.size());
    EXPECT_EQ(stats->frame_gaps, 0u);
    EXPECT_EQ(stats->crc_errors, 0u);
    EXPECT_EQ(stats->idle_timeouts, 0u);
}

// -------------------------------------------------- TCP control plane

/// Drive a request through a single-threaded server + client pair: the
/// server only makes progress when poll()ed, so interleave until the
/// response line lands.
std::string roundtrip(net::ControlServer& server, net::ControlClient& client,
                      const std::string& line) {
    client.send(line);
    std::string response;
    for (int i = 0; i < 5000; ++i) {
        server.poll();
        if (client.try_receive(response)) return response;
    }
    throw std::runtime_error("control response never arrived: " + line);
}

TEST(ControlPlane, HostRejectsNonFiniteOrOutOfRangeHealthThreshold) {
    // witrackd hands --health-threshold to the host; a NaN would fail every
    // `health >= threshold` test and restart every restartable session.
    for (const double bad : {std::nan(""), -0.5, 1.5, HUGE_VAL}) {
        EXPECT_THROW(engine::EngineHost(engine::HostConfig{}.with_health_threshold(bad)),
                     std::invalid_argument)
            << bad;
    }
    for (const double good : {0.0, 0.5, 1.0})
        EXPECT_NO_THROW(engine::EngineHost(engine::HostConfig{}.with_health_threshold(good)));
}

TEST(ControlPlane, PingAndUnknownCommand) {
    engine::EngineHost host;
    net::ControlServer server(host);
    ASSERT_GT(server.port(), 0u);
    net::ControlClient client(server.port());
    EXPECT_EQ(roundtrip(server, client, "PING"), "OK pong");
    EXPECT_EQ(roundtrip(server, client, "FLY"), "ERR unknown command FLY");
    EXPECT_EQ(roundtrip(server, client, "PAUSE nine"),
              "ERR usage: PAUSE <id>");
}

TEST(ControlPlane, StatsScrapeIsJson) {
    engine::EngineHost host;
    const auto id = host.admit(
        "home-a", walk_config(401),
        std::make_unique<engine::SimSource>(walk_config(401), walk_script(0.5)));
    for (int i = 0; i < 10; ++i) host.step_all();

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response = roundtrip(server, client, "STATS");
    ASSERT_EQ(response.rfind("OK {", 0), 0u);
    const std::string json = response.substr(3);
    EXPECT_NE(json.find("\"sessions\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"home-a\""), std::string::npos);
    EXPECT_NE(json.find("\"frames\":10"), std::string::npos);
    EXPECT_NE(json.find("\"net\":{"), std::string::npos);
    (void)id;
}

TEST(ControlPlane, HealthScrapeReportsDegradationNonDestructively) {
    engine::EngineHost host;
    auto source = std::make_unique<engine::SimSource>(walk_config(405),
                                                      walk_script(1.0));
    hw::FaultConfig faults;
    faults.dropout_rate = 0.2;
    faults.seed = 9;
    source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
    host.admit("degraded-home", walk_config(405), std::move(source));
    for (int i = 0; i < 30; ++i) host.step_all();

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response = roundtrip(server, client, "HEALTH");
    ASSERT_EQ(response.rfind("OK {", 0), 0u);
    EXPECT_NE(response.find("\"name\":\"degraded-home\""), std::string::npos);
    EXPECT_NE(response.find("\"health\":"), std::string::npos);
    EXPECT_NE(response.find("\"degraded\":true"), std::string::npos);
    EXPECT_NE(response.find("\"rx_dropouts\":"), std::string::npos);
    // Unlike STATS, HEALTH never resets a window: polling it twice in a
    // row (no frames in between) returns the identical document.
    EXPECT_EQ(roundtrip(server, client, "HEALTH"), response);

    // The destructive scrape carries the fleet-level quality rollup.
    const std::string stats = roundtrip(server, client, "STATS");
    EXPECT_NE(stats.find("\"quality\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"sessions_restarted\":0"), std::string::npos);
    EXPECT_NE(stats.find("\"degraded_frames\":"), std::string::npos);
}

TEST(ControlPlane, PauseResumeEvictLifecycle) {
    engine::EngineHost host;
    const auto id = host.admit(
        "home-b", walk_config(402),
        std::make_unique<engine::SimSource>(walk_config(402), walk_script()));
    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string id_str = std::to_string(id);

    EXPECT_EQ(roundtrip(server, client, "PAUSE " + id_str), "OK paused " + id_str);
    EXPECT_EQ(host.step_all(), 0u);  // the only session is paused

    EXPECT_EQ(roundtrip(server, client, "RESUME " + id_str),
              "OK resumed " + id_str);
    EXPECT_GT(host.step_all(), 0u);

    EXPECT_EQ(roundtrip(server, client, "EVICT " + id_str + " operator test"),
              "OK evicted " + id_str);
    EXPECT_EQ(host.state(id), engine::SessionState::kEvicted);
    EXPECT_EQ(roundtrip(server, client, "EVICT " + id_str),
              "ERR session unknown or already terminal");
    // Unknown ids come back as errors, not exceptions.
    EXPECT_EQ(roundtrip(server, client, "PAUSE 99999").rfind("ERR", 0), 0u);
}

TEST(ControlPlane, CheckpointScrapedSessionRestoresBitIdentical) {
    const std::string path = testing::TempDir() + "witrack_control_ckpt.wtrk";

    engine::Engine reference(
        walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()));
    reference.run();

    engine::EngineHost host;
    const auto id = host.admit(
        "home-c", walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()));
    for (int i = 0; i < 40; ++i) host.step_all();  // mid-episode

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response =
        roundtrip(server, client, "CHECKPOINT " + std::to_string(id) + " " + path);
    ASSERT_EQ(response.rfind("OK checkpointed", 0), 0u);

    // Restore the drained state onto a fresh host and run both to the end:
    // the restored session must land exactly where the original does.
    std::ifstream snapshot(path, std::ios::binary);
    ASSERT_TRUE(snapshot.good());
    engine::EngineHost other;
    const auto restored = other.restore_session(
        "home-c-restored", walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()),
        snapshot);
    host.run();
    other.run();
    expect_same_track(reference.tracker().track(),
                      host.session(id)->tracker().track());
    expect_same_track(reference.tracker().track(),
                      other.session(restored)->tracker().track());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace witrack
