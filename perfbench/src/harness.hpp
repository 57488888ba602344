// Measurement plumbing of the frame-path benchmark. Everything here sits
// outside the library and reaches it only through its public seams:
//
//   Tracer                 in-memory spans (layer, frame id, parent, times)
//   TimedSource            FrameSource decorator timing the source layer
//   PacedDatagramSource    DatagramSource releasing a pre-packed stream on
//                          a schedule (the open-loop sender)
//   FrameProbe/ProbeStage  per-session frame clocks, the "live display"
//                          subscriber and the last stage, which scores the
//                          smoothed track against the simulator's truth
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/frame_source.hpp"
#include "engine/replay.hpp"
#include "engine/stage.hpp"
#include "net/datagram_source.hpp"

namespace perfbench {

namespace engine = witrack::engine;
namespace geom = witrack::geom;
namespace net = witrack::net;
namespace core = witrack::core;
namespace common = witrack::common;
using witrack::FmcwParams;

using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock (one origin for every timestamp of a run).
inline double now_s() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

/// Nearest-rank percentile (q in [0, 1]) of `values`, which it sorts.
/// +infinity entries are misses; they sort last. 0 for an empty set.
double percentile(std::vector<double>& values, double q);

// ------------------------------------------------------------------ spans

enum class Layer : std::uint8_t {
    kRound,        ///< host.round: one EngineHost::step_all
    kStep,         ///< engine.step: one standalone Engine::step
    kSimNext,      ///< sim.next: SimSource::next
    kReplayNext,   ///< replay.next: ReplaySource::next
    kNetNext,      ///< net.next: NetSource::next
    kNetWait,      ///< net.wait: time the sender had nothing due
    kPipeline,     ///< pipeline: source return -> TrackUpdateEvent
    kStages,       ///< stages: TrackUpdateEvent -> probe stage
    kCheckpoint,   ///< snapshot.checkpoint: EngineHost::checkpoint_session
};
const char* to_string(Layer layer);

/// Span::seq of a call that produced no frame (the source was exhausted).
inline constexpr std::uint64_t kNoFrame = ~std::uint64_t{0};

struct Span {
    Layer layer = Layer::kRound;
    std::uint32_t session = 0;  ///< frame id, part 1 (0 = not frame-scoped)
    std::uint64_t seq = 0;      ///< frame id, part 2 (round/step counter for roots)
    std::int64_t parent = -1;   ///< index of the enclosing span, -1 for roots
    double t0 = 0.0;
    double t1 = 0.0;
};

/// Spans of one run, kept in memory and written out once at the end. All
/// spans are opened and closed on the thread that drives the engine(s):
/// the host steps its sessions on the calling thread, and the probe stage
/// and TrackUpdateEvent subscribers run there too. Disabled, every call is
/// a no-op returning -1.
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}
    bool enabled() const { return enabled_; }

    /// Open a span whose parent is the innermost open one.
    std::int64_t open(Layer layer, std::uint32_t session, std::uint64_t seq, double t0);
    void close(std::int64_t id, double t1);
    void set_seq(std::int64_t id, std::uint64_t seq) {
        if (id >= 0) spans_[static_cast<std::size_t>(id)].seq = seq;
    }

    /// Record an already finished span under the innermost open one.
    void add(Layer layer, std::uint32_t session, std::uint64_t seq, double t0, double t1);

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span (its duration minus the time covered by
    /// its direct children), indexed like spans().
    std::vector<double> self_times_all() const;

    /// One JSON object per line; throws std::runtime_error on I/O failure.
    void write_jsonl(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<std::int64_t> open_;
};

// ------------------------------------------------------ per-session probe

/// Clocks and results of one session's frames. The TimedSource, the
/// display subscriber and the ProbeStage of a session share one FrameProbe,
/// which must outlive the session's Engine.
struct FrameProbe {
    std::uint32_t session = 0;
    double frame_period_s = 0.0125;
    /// When the frame's input was available (the latency origin); given the
    /// frame's sequence number, which is its index in the episode.
    std::function<double(std::uint64_t seq)> input_ready;
    Tracer* tracer = nullptr;

    // Current frame, filled as it moves through the layers.
    std::uint64_t seq = 0;
    double source_done = 0.0;
    double event_at = 0.0;

    // Results.
    std::size_t frames = 0;
    std::vector<double> latency_s;
    std::vector<double> error_m;             ///< smoothed track vs truth
    std::vector<geom::Vec3> track;           ///< smoothed track (NaN = no fix)
    bool keep_track = false;
    geom::Vec3 display;                      ///< what the live display shows
    engine::Recorder* recorder = nullptr;    ///< tap: record every frame

    /// Sequence number of a frame: its index in the episode, recovered from
    /// the capture time (exact for sim, replay and WTNF alike).
    std::uint64_t seq_of(const engine::Frame& frame) const;
};

/// FrameSource decorator: times next() into the probe and the tracer and
/// forwards every other virtual unchanged, so snapshots and net counters
/// still work through it.
class TimedSource final : public engine::FrameSource {
  public:
    TimedSource(std::unique_ptr<engine::FrameSource> inner, Layer layer,
                FrameProbe& probe)
        : inner_(std::move(inner)), layer_(layer), probe_(probe) {}

    bool next(engine::Frame& frame) override;
    const geom::ArrayGeometry& array() const override { return inner_->array(); }
    const FmcwParams& fmcw() const override { return inner_->fmcw(); }
    void save_state(common::StateWriter& writer) const override {
        inner_->save_state(writer);
    }
    void load_state(common::StateReader& reader) override {
        inner_->load_state(reader);
    }
    std::optional<engine::NetIngestStats> net_stats() const override {
        return inner_->net_stats();
    }

  private:
    std::unique_ptr<engine::FrameSource> inner_;
    Layer layer_;
    FrameProbe& probe_;
};

/// The benchmark-owned last stage: timestamps the frame, scores the
/// smoothed track against Frame::truth and closes the frame's spans.
class ProbeStage final : public engine::AppStage {
  public:
    explicit ProbeStage(FrameProbe& probe) : probe_(probe) {}
    std::string_view name() const override { return "probe"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kSmoothedTrack;
    }
    void on_frame(const engine::Frame& frame,
                  const core::WiTrackTracker::FrameResult& result,
                  engine::EventBus& bus) override;

  private:
    FrameProbe& probe_;
};

/// Attach the home deployment to a session: a TrackUpdateEvent subscriber
/// (the live display), FallMonitorStage, PointingStage, then the probe.
void wire_home(engine::Engine& engine, FrameProbe& probe);

// ------------------------------------------------------- paced datagrams

/// A pre-packed datagram stream with the second (relative to the start of
/// sending) at which each datagram is due. Due times never decrease.
/// `datagrams` point either into storage that outlives the stream or into
/// `owned`.
struct PacedStream {
    std::vector<const std::vector<std::uint8_t>*> datagrams;
    std::vector<double> due_s;
    std::deque<std::vector<std::uint8_t>> owned;
};

/// Releases a PacedStream in real time: receive() hands out datagrams that
/// are due, wait() sleeps until the next one is due, and exhausted() turns
/// true once the last one was released. Each datagram is copied out on
/// release, as a socket would deliver it.
class PacedDatagramSource final : public net::DatagramSource {
  public:
    /// Sending starts at steady-clock second `start_s`.
    PacedDatagramSource(std::shared_ptr<const PacedStream> stream, double start_s,
                        FrameProbe* probe = nullptr);

    bool receive(std::vector<std::uint8_t>& datagram) override;
    bool wait(int timeout_ms) override;
    bool exhausted() const override { return next_ >= stream_->datagrams.size(); }

    double wait_s() const { return wait_s_; }
    /// Most datagrams that were due but not yet received, over all receives.
    std::size_t backlog_max() const { return backlog_max_; }

  private:
    std::shared_ptr<const PacedStream> stream_;
    double start_s_;
    FrameProbe* probe_;
    std::size_t next_ = 0;
    double wait_s_ = 0.0;
    std::size_t backlog_max_ = 0;
};

}  // namespace perfbench
