#include "engine/replay.hpp"

#include <cstddef>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"

namespace witrack::engine {

// The replay wire format is built on the shared raw-stream helpers in
// common/serialize.hpp (one implementation with the snapshot format), with
// the "ReplaySource:" error prefix bound locally.
namespace {

using common::read_raw;
using common::write_raw;
using common::write_vec3;

template <typename T>
void read_or_throw(std::istream& in, T& value, const char* what) {
    common::read_or_throw(in, value, "ReplaySource", what);
}

void read_vec3(std::istream& in, geom::Vec3& v, const char* what) {
    common::read_vec3(in, v, "ReplaySource", what);
}

/// Runs a header validator, reporting its std::invalid_argument as the
/// std::runtime_error every corrupt recording throws.
template <typename Validate>
void check_header(Validate&& validate) {
    try {
        validate();
    } catch (const std::invalid_argument& e) {
        throw std::runtime_error(std::string("ReplaySource: corrupt header: ") +
                                 e.what());
    }
}

}  // namespace

Recorder::Recorder(const std::string& path, const FmcwParams& fmcw,
                   const geom::ArrayGeometry& array)
    : out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("Recorder: cannot open " + path);

    write_raw(out_, kReplayMagic);
    write_raw(out_, kReplayVersion);

    write_raw(out_, fmcw.start_frequency_hz);
    write_raw(out_, fmcw.bandwidth_hz);
    write_raw(out_, fmcw.sweep_duration_s);
    write_raw(out_, fmcw.sample_rate_hz);
    write_raw(out_, fmcw.tx_power_w);
    write_raw(out_, static_cast<std::uint64_t>(fmcw.sweeps_per_frame));

    write_vec3(out_, array.tx);
    write_vec3(out_, array.boresight);
    write_raw(out_, static_cast<std::uint64_t>(array.rx.size()));
    for (const auto& rx : array.rx) write_vec3(out_, rx);

    num_rx_ = array.rx.size();
    samples_per_sweep_ = fmcw.samples_per_sweep();
    sweeps_per_frame_ = fmcw.sweeps_per_frame;

    if (!out_) throw std::runtime_error("Recorder: header write failed");
}

void Recorder::write(const Frame& frame) {
    if (!out_.is_open()) throw std::runtime_error("Recorder: already closed");
    // A frame whose shape disagrees with the header would desync every
    // subsequent read (or fail ReplaySource's corruption bound); catch it
    // at the source so no unreplayable recording is ever written.
    if (frame.sweeps.num_rx() != num_rx_ ||
        frame.sweeps.samples_per_sweep() != samples_per_sweep_ ||
        frame.sweeps.num_sweeps() == 0 ||
        frame.sweeps.num_sweeps() > sweeps_per_frame_)
        throw std::invalid_argument("Recorder: frame shape mismatch");

    write_raw(out_, frame.time_s);
    write_raw(out_, static_cast<std::uint64_t>(frame.sweeps.num_sweeps()));
    write_raw(out_, static_cast<std::uint64_t>(frame.sweeps.samples_per_sweep()));

    std::uint8_t truth_flags = 0;
    if (frame.truth) {
        truth_flags |= 0x01;
        if (frame.truth->position2) truth_flags |= 0x02;
    }
    write_raw(out_, truth_flags);
    if (frame.truth) {
        write_vec3(out_, frame.truth->position);
        if (frame.truth->position2) write_vec3(out_, *frame.truth->position2);
    }

    out_.write(reinterpret_cast<const char*>(frame.sweeps.data()),
               static_cast<std::streamsize>(frame.sweeps.size() * sizeof(double)));
    if (!out_) throw std::runtime_error("Recorder: frame write failed");
    ++frames_written_;
}

void Recorder::close() {
    if (!out_.is_open()) return;
    out_.flush();
    const bool ok = static_cast<bool>(out_);
    out_.close();
    // A buffered write that only failed at flush time must not report a
    // complete recording.
    if (!ok) throw std::runtime_error("Recorder: flush failed on close");
}

ReplaySource::ReplaySource(const std::string& path)
    : in_(path, std::ios::binary) {
    if (!in_) throw std::runtime_error("ReplaySource: cannot open " + path);

    std::uint32_t magic = 0, version = 0;
    read_or_throw(in_, magic, "magic");
    if (magic != kReplayMagic)
        throw std::runtime_error("ReplaySource: not a WiTrack recording");
    read_or_throw(in_, version, "version");
    if (version != kReplayVersion)
        throw std::runtime_error("ReplaySource: unsupported recording version");

    read_or_throw(in_, fmcw_.start_frequency_hz, "fmcw");
    read_or_throw(in_, fmcw_.bandwidth_hz, "fmcw");
    read_or_throw(in_, fmcw_.sweep_duration_s, "fmcw");
    read_or_throw(in_, fmcw_.sample_rate_hz, "fmcw");
    read_or_throw(in_, fmcw_.tx_power_w, "fmcw");
    std::uint64_t sweeps_per_frame = 0;
    read_or_throw(in_, sweeps_per_frame, "fmcw");
    fmcw_.sweeps_per_frame = static_cast<std::size_t>(sweeps_per_frame);
    check_header([&] { fmcw_.validate(); });

    read_vec3(in_, array_.tx, "array");
    read_vec3(in_, array_.boresight, "array");
    std::uint64_t num_rx = 0;
    read_or_throw(in_, num_rx, "array");
    // Bound the frame before sizing anything: a corrupt count must fail
    // cleanly, not drive an arbitrary allocation. A whole frame (every rx,
    // every sweep) must fit the state format's chunk cap.
    const std::uint64_t max_sweeps =
        common::kMaxChunkBytes / (fmcw_.samples_per_sweep() * sizeof(double));
    if (fmcw_.sweeps_per_frame > max_sweeps ||
        num_rx > max_sweeps / fmcw_.sweeps_per_frame)
        throw std::runtime_error("ReplaySource: corrupt header: frame too large");
    array_.rx.resize(static_cast<std::size_t>(num_rx));
    for (auto& rx : array_.rx) read_vec3(in_, rx, "array");
    check_header([&] { array_.validate(); });
}

bool ReplaySource::next(Frame& frame) {
    // Only EOF exactly on a frame boundary is a clean end; a partial
    // timestamp means the recording was cut mid-write.
    if (in_.peek() == std::char_traits<char>::eof()) return false;
    double time_s = 0.0;
    read_or_throw(in_, time_s, "frame timestamp");

    std::uint64_t num_sweeps = 0, samples = 0;
    read_or_throw(in_, num_sweeps, "frame header");
    read_or_throw(in_, samples, "frame header");
    // Bound-check against the header's FMCW parameters before sizing the
    // buffer: a corrupt frame header must fail cleanly, not allocate an
    // arbitrary amount of memory.
    if (samples != fmcw_.samples_per_sweep() || num_sweeps == 0 ||
        num_sweeps > fmcw_.sweeps_per_frame)
        throw std::runtime_error("ReplaySource: corrupt frame header");

    std::uint8_t truth_flags = 0;
    read_or_throw(in_, truth_flags, "frame header");

    frame.time_s = time_s;
    frame.truth.reset();
    if (truth_flags & 0x01) {
        GroundTruth truth;
        read_vec3(in_, truth.position, "ground truth");
        if (truth_flags & 0x02) {
            geom::Vec3 second;
            read_vec3(in_, second, "ground truth");
            truth.position2 = second;
        }
        frame.truth = truth;
    }

    if (frame.sweeps.num_rx() != array_.rx.size() ||
        frame.sweeps.num_sweeps() != num_sweeps ||
        frame.sweeps.samples_per_sweep() != samples)
        frame.sweeps.resize(array_.rx.size(), static_cast<std::size_t>(num_sweeps),
                            static_cast<std::size_t>(samples));
    in_.read(reinterpret_cast<char*>(frame.sweeps.data()),
             static_cast<std::streamsize>(frame.sweeps.size() * sizeof(double)));
    if (!in_) throw std::runtime_error("ReplaySource: truncated frame samples");

    ++frames_read_;
    return true;
}

void ReplaySource::save_state(common::StateWriter& writer) const {
    writer.u64(frames_read_);
}

void ReplaySource::load_state(common::StateReader& reader) {
    const auto target = static_cast<std::size_t>(reader.u64());
    if (frames_read_ != 0)
        throw std::runtime_error(
            "ReplaySource: load_state requires a freshly-opened recording");
    // Skip forward through the already-consumed prefix; the scratch frame's
    // buffer is reused across the skipped reads.
    Frame scratch;
    while (frames_read_ < target) {
        if (!next(scratch))
            throw std::runtime_error(
                "ReplaySource: snapshot cursor beyond end of recording");
    }
}

}  // namespace witrack::engine
