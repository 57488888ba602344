#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <thread>

#include "engine/plugins.hpp"

namespace perfbench {

double percentile(std::vector<double>& values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
    return values[index];
}

const char* to_string(Layer layer) {
    switch (layer) {
        case Layer::kRound: return "host.round";
        case Layer::kStep: return "engine.step";
        case Layer::kSimNext: return "sim.next";
        case Layer::kReplayNext: return "replay.next";
        case Layer::kNetNext: return "net.next";
        case Layer::kNetWait: return "net.wait";
        case Layer::kPipeline: return "pipeline";
        case Layer::kStages: return "stages";
        case Layer::kCheckpoint: return "snapshot.checkpoint";
    }
    return "?";
}

// ------------------------------------------------------------------ Tracer

std::int64_t Tracer::open(Layer layer, std::uint32_t session, std::uint64_t seq,
                          double t0) {
    if (!enabled_) return -1;
    const auto id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back({layer, session, seq, open_.empty() ? -1 : open_.back(), t0, t0});
    open_.push_back(id);
    return id;
}

void Tracer::close(std::int64_t id, double t1) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].t1 = t1;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::add(Layer layer, std::uint32_t session, std::uint64_t seq, double t0,
                 double t1) {
    if (!enabled_) return;
    spans_.push_back({layer, session, seq, open_.empty() ? -1 : open_.back(), t0, t1});
}

std::vector<double> Tracer::self_times_all() const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& span = spans_[i];
        self[i] += span.t1 - span.t0;
        if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.t1 - span.t0;
    }
    return self;
}

void Tracer::write_jsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write trace " + path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::fprintf(out,
                     "{\"id\":%zu,\"name\":\"%s\",\"session\":%u,\"seq\":%llu,"
                     "\"parent\":%lld,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                     i, to_string(s.layer), s.session,
                     static_cast<unsigned long long>(s.seq),
                     static_cast<long long>(s.parent), (s.t0 - origin) * 1e6,
                     (s.t1 - origin) * 1e6);
    }
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write trace " + path);
}

// ------------------------------------------------------------------- probe

std::uint64_t FrameProbe::seq_of(const engine::Frame& frame) const {
    return static_cast<std::uint64_t>(std::llround(frame.time_s / frame_period_s));
}

bool TimedSource::next(engine::Frame& frame) {
    Tracer* tracer = probe_.tracer;
    const double t0 = now_s();
    const std::int64_t span =
        tracer != nullptr ? tracer->open(layer_, probe_.session, 0, t0) : -1;
    const bool ok = inner_->next(frame);
    const double t1 = now_s();
    if (tracer != nullptr) tracer->close(span, t1);
    if (!ok) {
        if (tracer != nullptr) tracer->set_seq(span, kNoFrame);
        return false;
    }
    probe_.seq = probe_.seq_of(frame);
    probe_.source_done = t1;
    if (span >= 0) tracer->set_seq(span, probe_.seq);
    return true;
}

void ProbeStage::on_frame(const engine::Frame& frame,
                          const core::WiTrackTracker::FrameResult& result,
                          engine::EventBus&) {
    const double t = now_s();
    ++probe_.frames;
    probe_.latency_s.push_back(t - probe_.input_ready(probe_.seq));
    if (probe_.tracer != nullptr) {
        probe_.tracer->add(Layer::kPipeline, probe_.session, probe_.seq,
                           probe_.source_done, probe_.event_at);
        probe_.tracer->add(Layer::kStages, probe_.session, probe_.seq,
                           probe_.event_at, t);
    }
    if (result.smoothed && frame.truth)
        probe_.error_m.push_back(
            result.smoothed->position.distance_to(frame.truth->position));
    if (probe_.keep_track) {
        const double nan = std::numeric_limits<double>::quiet_NaN();
        probe_.track.push_back(result.smoothed ? result.smoothed->position
                                               : geom::Vec3{nan, nan, nan});
    }
    if (probe_.recorder != nullptr) probe_.recorder->write(frame);
}

void wire_home(engine::Engine& engine, FrameProbe& probe) {
    engine.bus().subscribe<engine::TrackUpdateEvent>(
        [&probe](const engine::TrackUpdateEvent& update) {
            probe.event_at = now_s();
            if (update.smoothed) probe.display = update.smoothed->position;
        });
    engine.emplace_stage<engine::FallMonitorStage>();
    engine.emplace_stage<engine::PointingStage>();
    engine.emplace_stage<ProbeStage>(probe);
}

// -------------------------------------------------------- PacedDatagramSource

PacedDatagramSource::PacedDatagramSource(std::shared_ptr<const PacedStream> stream,
                                         double start_s, FrameProbe* probe)
    : stream_(std::move(stream)), start_s_(start_s), probe_(probe) {}

bool PacedDatagramSource::receive(std::vector<std::uint8_t>& datagram) {
    if (exhausted()) return false;
    const double elapsed = now_s() - start_s_;
    if (stream_->due_s[next_] > elapsed) return false;
    const auto& due = stream_->due_s;
    const auto released = static_cast<std::size_t>(
        std::upper_bound(due.begin() + static_cast<std::ptrdiff_t>(next_), due.end(),
                         elapsed) -
        due.begin());
    backlog_max_ = std::max(backlog_max_, released - next_);
    datagram = *stream_->datagrams[next_++];
    return true;
}

bool PacedDatagramSource::wait(int timeout_ms) {
    if (exhausted()) return false;
    const double t0 = now_s();
    const double due = start_s_ + stream_->due_s[next_];
    if (due <= t0) return true;
    const double until = std::min(due, t0 + timeout_ms * 1e-3);
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(until))));
    const double t1 = now_s();
    wait_s_ += t1 - t0;
    if (probe_ != nullptr && probe_->tracer != nullptr)
        probe_->tracer->add(Layer::kNetWait, probe_->session, 0, t0, t1);
    return due <= t1;
}

}  // namespace perfbench
