// Frame recording and replay. A recording is self-contained -- it carries
// the FMCW parameters and antenna geometry of the capture next to the raw
// rx-major samples -- so a replayed session reproduces the live pipeline
// output bit for bit (doubles are stored verbatim, native endianness).
//
// Layout (version 1, little-endian on all supported platforms):
//   header:  magic u32 "WTRK" | version u32
//            fmcw: start_freq, bandwidth, sweep_duration, sample_rate,
//                  tx_power (f64 x5) | sweeps_per_frame u64
//            array: tx xyz, boresight xyz (f64 x6) | num_rx u64 |
//                   rx positions xyz (f64 x3 each)
//   frames:  time_s f64 | num_sweeps u64 | samples_per_sweep u64 |
//            truth_flags u8 (bit0 person 1, bit1 person 2) |
//            [truth xyz f64 x3 per flagged person] |
//            samples f64 x (num_rx * num_sweeps * samples), rx-major
#pragma once

#include <cstdint>
#include <fstream>
#include <string>

#include "engine/frame_source.hpp"

namespace witrack::engine {

inline constexpr std::uint32_t kReplayMagic = 0x4B525457u;  // "WTRK"
inline constexpr std::uint32_t kReplayVersion = 1;

/// Sink: append every frame of a session to a recording file. Use as a tap
/// inside the streaming loop (record while tracking) or standalone.
class Recorder {
  public:
    Recorder(const std::string& path, const FmcwParams& fmcw,
             const geom::ArrayGeometry& array);

    /// Append one frame; throws std::runtime_error on write failure.
    void write(const Frame& frame);

    std::size_t frames_written() const { return frames_written_; }

    /// Flush, verify the stream, and close; throws std::runtime_error if
    /// buffered data failed to reach disk. Further write() calls throw.
    /// Destruction closes the file without verification -- call close()
    /// explicitly when the recording matters.
    void close();

  private:
    std::ofstream out_;
    std::size_t num_rx_ = 0;
    std::size_t samples_per_sweep_ = 0;
    std::size_t sweeps_per_frame_ = 0;
    std::size_t frames_written_ = 0;
};

/// FrameSource over a recording file: the third leg of the source triad
/// (sim, live, replay) and the debugging workhorse -- any captured session
/// re-runs through the pipeline deterministically.
class ReplaySource : public FrameSource {
  public:
    /// Opens and validates the header; throws std::runtime_error on a
    /// missing file, bad magic, an unsupported version, invalid FMCW fields
    /// or array (FmcwParams/ArrayGeometry::validate), or a frame larger than
    /// common::kMaxChunkBytes.
    explicit ReplaySource(const std::string& path);

    bool next(Frame& frame) override;
    const geom::ArrayGeometry& array() const override { return array_; }
    const FmcwParams& fmcw() const override { return fmcw_; }

    std::size_t frames_read() const { return frames_read_; }

    /// Snapshot cursor: the number of frames already consumed.
    void save_state(common::StateWriter& writer) const override;

    /// Re-position a freshly-opened replay at the snapshot cursor by
    /// skipping forward; throws if the source has already advanced or the
    /// recording is shorter than the cursor.
    void load_state(common::StateReader& reader) override;

  private:
    std::ifstream in_;
    FmcwParams fmcw_;
    geom::ArrayGeometry array_;
    std::size_t frames_read_ = 0;
};

}  // namespace witrack::engine
