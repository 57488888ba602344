// State-serialization contract shared by the replay format and session
// snapshots. Two layers:
//
//  1. Raw little-helpers (write_raw / read_raw / read_or_throw / *_vec3)
//     over std::ostream/std::istream -- doubles stored verbatim, native
//     endianness. The Recorder/ReplaySource wire format is built directly
//     on these, so replay and snapshot framing cannot drift apart.
//
//  2. StateWriter / StateReader: a chunked, versioned, CRC-framed binary
//     layout for component state. Every stateful component implements
//         void save_state(common::StateWriter&) const;
//         void load_state(common::StateReader&);
//     writing fields in one flat, ordered stream inside a chunk owned by
//     the layer above (tracker, engine). The stream layout is:
//
//         header:  magic u32 | version u32
//         chunk:   tag u32 | payload_len u64 | payload bytes |
//                  crc32 u32 over (tag | payload_len | payload)
//         ...
//         end:     the "END " chunk (empty payload) terminates the stream
//
//     StateReader validates the WHOLE stream in its constructor -- magic,
//     version, every chunk's length bound and CRC -- before any component
//     state is touched, so a truncated or corrupt snapshot is rejected
//     atomically and the target object is left exactly as constructed.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace witrack::common {

// ---------------------------------------------------------------------------
// Raw stream helpers (layer 1)
// ---------------------------------------------------------------------------

template <typename T>
void write_raw(std::ostream& out, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
bool read_raw(std::istream& in, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    in.read(reinterpret_cast<char*>(&value), sizeof value);
    return static_cast<bool>(in);
}

/// read_raw or throw "<who>: truncated <what>".
template <typename T>
void read_or_throw(std::istream& in, T& value, const char* who, const char* what) {
    if (!read_raw(in, value))
        throw std::runtime_error(std::string(who) + ": truncated " + what);
}

/// Write/read any xyz triple (geom::Vec3 or compatible) as f64 x3.
template <typename V>
void write_vec3(std::ostream& out, const V& v) {
    write_raw(out, v.x);
    write_raw(out, v.y);
    write_raw(out, v.z);
}

template <typename V>
void read_vec3(std::istream& in, V& v, const char* who, const char* what) {
    read_or_throw(in, v.x, who, what);
    read_or_throw(in, v.y, who, what);
    read_or_throw(in, v.z, who, what);
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected polynomial 0xEDB88320) -- frames every chunk.
// Slicing-by-8: eight 256-entry tables (table[k][b] is the register update
// for byte b followed by k zero bytes) fold eight input bytes per step; the
// bytewise table[0] loop covers the last < 8 bytes, and the whole buffer on
// big-endian targets. Same polynomial, same values, same chaining through
// `crc` as a bytewise CRC.
// ---------------------------------------------------------------------------

namespace detail {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

inline constexpr Crc32Tables kCrc32Tables = [] {
    Crc32Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}();

}  // namespace detail

inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t crc = 0) {
    const auto& t = detail::kCrc32Tables;
    const auto* p = static_cast<const unsigned char*>(data);
    crc = ~crc;
    if constexpr (std::endian::native == std::endian::little) {
        for (; len >= 8; p += 8, len -= 8) {
            std::uint32_t lo = 0;
            std::uint32_t hi = 0;
            std::memcpy(&lo, p, 4);
            std::memcpy(&hi, p + 4, 4);
            lo ^= crc;
            crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
                  t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
                  t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
                  t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
        }
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

/// Four-character chunk tag as a u32 (first character in the low byte, so
/// the tag reads forward in a little-endian hex dump).
constexpr std::uint32_t chunk_tag(const char (&tag)[5]) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
           static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
           static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

inline constexpr std::uint32_t kEndChunkTag = chunk_tag("END ");

/// Upper bound on a single chunk's payload. A corrupt length field must
/// fail cleanly, not drive an arbitrarily large allocation.
inline constexpr std::uint64_t kMaxChunkBytes = 1ull << 30;

// ---------------------------------------------------------------------------
// StateWriter (layer 2)
// ---------------------------------------------------------------------------

class StateWriter {
  public:
    StateWriter(std::ostream& out, std::uint32_t magic, std::uint32_t version)
        : out_(out) {
        write_raw(out_, magic);
        write_raw(out_, version);
    }

    /// Chunks buffer their payload so the length and CRC can be framed in
    /// front of it; fields may only be written between begin/end.
    void begin_chunk(const char (&tag)[5]) {
        if (in_chunk_) throw std::logic_error("StateWriter: chunk already open");
        tag_ = chunk_tag(tag);
        payload_.clear();
        in_chunk_ = true;
    }

    void end_chunk() {
        if (!in_chunk_) throw std::logic_error("StateWriter: no open chunk");
        emit(tag_, payload_);
        in_chunk_ = false;
    }

    /// Terminate the stream with the empty END chunk and verify the sink.
    void finish() {
        if (in_chunk_) throw std::logic_error("StateWriter: unterminated chunk");
        emit(kEndChunkTag, {});
        if (!out_) throw std::runtime_error("StateWriter: stream write failed");
    }

    // -- field writers (only valid inside a chunk) --
    void u8(std::uint8_t v) { append(&v, sizeof v); }
    void u32(std::uint32_t v) { append(&v, sizeof v); }
    void u64(std::uint64_t v) { append(&v, sizeof v); }
    void f64(double v) { append(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void str(std::string_view s) {
        u64(s.size());
        append(s.data(), s.size());
    }

    void f64_span(const double* data, std::size_t count) {
        u64(count);
        append(data, count * sizeof(double));
    }

    void f64_vector(const std::vector<double>& v) { f64_span(v.data(), v.size()); }

    template <typename V>
    void vec3(const V& v) {
        f64(v.x);
        f64(v.y);
        f64(v.z);
    }

  private:
    void append(const void* data, std::size_t len) {
        if (!in_chunk_) throw std::logic_error("StateWriter: field outside chunk");
        if (len == 0) return;
        // resize + memcpy rather than insert(end, p, p + len): GCC's
        // stringop-overflow analysis trips on the inlined insert path.
        const auto base = payload_.size();
        payload_.resize(base + len);
        std::memcpy(payload_.data() + base, data, len);
    }

    void emit(std::uint32_t tag, const std::vector<unsigned char>& payload) {
        const auto len = static_cast<std::uint64_t>(payload.size());
        write_raw(out_, tag);
        write_raw(out_, len);
        if (!payload.empty())
            out_.write(reinterpret_cast<const char*>(payload.data()),
                       static_cast<std::streamsize>(payload.size()));
        std::uint32_t crc = crc32(&tag, sizeof tag);
        crc = crc32(&len, sizeof len, crc);
        crc = crc32(payload.data(), payload.size(), crc);
        write_raw(out_, crc);
    }

    std::ostream& out_;
    std::vector<unsigned char> payload_;
    std::uint32_t tag_ = 0;
    bool in_chunk_ = false;
};

// ---------------------------------------------------------------------------
// StateReader (layer 2)
// ---------------------------------------------------------------------------

class StateReader {
  public:
    /// Reads and validates the ENTIRE stream up front: magic, version, and
    /// every chunk's length bound and CRC. Throws std::runtime_error on any
    /// mismatch, truncation, or corruption -- before the caller has loaded
    /// a single field, which is what makes rejection atomic.
    StateReader(std::istream& in, std::uint32_t magic, std::uint32_t version) {
        std::uint32_t stream_magic = 0, stream_version = 0;
        read_or_throw(in, stream_magic, "StateReader", "magic");
        if (stream_magic != magic)
            throw std::runtime_error("StateReader: bad magic (not a snapshot stream)");
        read_or_throw(in, stream_version, "StateReader", "version");
        if (stream_version != version)
            throw std::runtime_error("StateReader: unsupported snapshot version " +
                                     std::to_string(stream_version));

        for (;;) {
            Chunk chunk;
            std::uint64_t len = 0;
            read_or_throw(in, chunk.tag, "StateReader", "chunk tag");
            read_or_throw(in, len, "StateReader", "chunk length");
            if (len > kMaxChunkBytes)
                throw std::runtime_error("StateReader: corrupt chunk length");
            // Grow incrementally so a corrupt (but in-bound) length on a
            // truncated stream fails at the read, not as a giant allocation.
            while (chunk.payload.size() < len) {
                const auto step = static_cast<std::size_t>(
                    std::min<std::uint64_t>(len - chunk.payload.size(), 1u << 20));
                const auto base = chunk.payload.size();
                chunk.payload.resize(base + step);
                in.read(reinterpret_cast<char*>(chunk.payload.data() + base),
                        static_cast<std::streamsize>(step));
                if (!in)
                    throw std::runtime_error("StateReader: truncated chunk payload");
            }
            std::uint32_t stored_crc = 0;
            read_or_throw(in, stored_crc, "StateReader", "chunk crc");
            std::uint32_t crc = crc32(&chunk.tag, sizeof chunk.tag);
            crc = crc32(&len, sizeof len, crc);
            crc = crc32(chunk.payload.data(), chunk.payload.size(), crc);
            if (crc != stored_crc)
                throw std::runtime_error("StateReader: chunk crc mismatch (corrupt)");
            if (chunk.tag == kEndChunkTag) {
                if (!chunk.payload.empty())
                    throw std::runtime_error("StateReader: corrupt end chunk");
                break;
            }
            chunks_.push_back(std::move(chunk));
        }
    }

    /// Chunks must be consumed in stream order with the expected tags --
    /// the layout is positional, exactly mirroring the writer.
    void open_chunk(const char (&tag)[5]) {
        if (current_) throw std::logic_error("StateReader: chunk already open");
        if (next_ >= chunks_.size())
            throw std::runtime_error(std::string("StateReader: missing chunk ") + tag);
        if (chunks_[next_].tag != chunk_tag(tag))
            throw std::runtime_error(std::string("StateReader: unexpected chunk, wanted ") +
                                     tag);
        current_ = &chunks_[next_++];
        pos_ = 0;
    }

    /// A reader that leaves bytes behind decoded a different layout than
    /// the writer produced; fail loudly instead of silently resyncing.
    void close_chunk() {
        if (!current_) throw std::logic_error("StateReader: no open chunk");
        if (pos_ != current_->payload.size())
            throw std::runtime_error("StateReader: trailing bytes in chunk");
        current_ = nullptr;
    }

    /// Bytes left in the open chunk -- bounds element counts before resize.
    std::size_t remaining() const {
        if (!current_) return 0;
        return current_->payload.size() - pos_;
    }

    // -- field readers (mirror the writer exactly) --
    std::uint8_t u8() { return extract<std::uint8_t>(); }
    std::uint32_t u32() { return extract<std::uint32_t>(); }
    std::uint64_t u64() { return extract<std::uint64_t>(); }
    double f64() { return extract<double>(); }
    bool boolean() { return u8() != 0; }

    std::string str() {
        const auto len = count(1);
        std::string s(len, '\0');
        take(s.data(), len);
        return s;
    }

    std::vector<double> f64_vector() {
        const auto n = count(sizeof(double));
        std::vector<double> v(n);
        take(v.data(), n * sizeof(double));
        return v;
    }

    template <typename V>
    void vec3(V& v) {
        v.x = f64();
        v.y = f64();
        v.z = f64();
    }

    /// Read an element count and bound it against the bytes actually left
    /// in the chunk, so a corrupt count cannot drive a huge allocation.
    std::size_t count(std::size_t bytes_per_element) {
        const auto n = u64();
        if (bytes_per_element != 0 && n > remaining() / bytes_per_element)
            throw std::runtime_error("StateReader: element count exceeds chunk");
        return static_cast<std::size_t>(n);
    }

  private:
    struct Chunk {
        std::uint32_t tag = 0;
        std::vector<unsigned char> payload;
    };

    template <typename T>
    T extract() {
        T value;
        take(&value, sizeof value);
        return value;
    }

    void take(void* dst, std::size_t len) {
        if (!current_) throw std::logic_error("StateReader: field outside chunk");
        if (len > current_->payload.size() - pos_)
            throw std::runtime_error("StateReader: truncated field");
        std::memcpy(dst, current_->payload.data() + pos_, len);
        pos_ += len;
    }

    std::vector<Chunk> chunks_;
    std::size_t next_ = 0;
    Chunk* current_ = nullptr;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// std::mt19937_64 round-trip. The standard guarantees operator<< / >>
// reproduce the exact generator state (space-separated decimal words),
// which keeps the snapshot portable across library versions.
// ---------------------------------------------------------------------------

inline void save_state(StateWriter& w, const std::mt19937_64& engine) {
    std::ostringstream text;
    text << engine;
    w.str(text.str());
}

inline void load_state(StateReader& r, std::mt19937_64& engine) {
    std::istringstream text(r.str());
    text >> engine;
    if (!text) throw std::runtime_error("StateReader: corrupt rng state");
}

}  // namespace witrack::common
