/**
 * @file
 * The one byte codec: util::ByteWriter / util::ByteReader, plus the
 * typed FormatError every parser of file or peer bytes throws.
 *
 * Layout: native-endian POD values, vectors with a u64 element-count
 * prefix, strings with a u32 byte-count prefix. The same classes encode
 * RPC payloads (serve/rpc.cpp), codec parameter blobs (the HIV3
 * CodecParams section) and the HMAT matrix file, so there is one set
 * of bounds checks to get right.
 *
 * Every rejection — a read past the end, a length prefix larger than
 * the bytes actually present, trailing bytes — throws FormatError
 * naming the reader's label. Nothing here terminates the process: a
 * server refuses one bad frame or file and keeps running, and binaries
 * turn the throw into a clean exit at their entry point
 * (core::loadOrFatal).
 *
 * Endianness: values are memcpy'd in host byte order, so broker and
 * shards must share an architecture (all supported targets are
 * little-endian). A big-endian peer would mis-decode despite a matching
 * protocol version; a handshake-level guard, not silent byte-swapping,
 * is the intended extension point if that ever matters.
 */

#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hermes {
namespace util {

/** What exactly a reader rejected about a malformed artifact. */
enum class FormatErrorCode {
    Io,        ///< open / stat / map / write failed
    BadMagic,  ///< wrong magic tag
    BadVersion,///< unsupported format version
    Truncated, ///< input ends before the structure it promises
    Corrupt,   ///< internal inconsistency (bounds, counts, padding)
    Checksum,  ///< stored checksum does not match the bytes
};

/** Human-readable name of a FormatErrorCode. */
const char *formatErrorCodeName(FormatErrorCode code);

/**
 * Typed rejection of malformed file or peer bytes. Thrown (never fatal)
 * by ByteReader and the v3 index parser, so callers can refuse one bad
 * input without taking the process down.
 */
class FormatError : public std::runtime_error
{
  public:
    FormatError(FormatErrorCode code, const std::string &what)
        : std::runtime_error(what), code_(code)
    {
    }

    FormatErrorCode code() const { return code_; }

  private:
    FormatErrorCode code_;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, the zlib crc32) of @p n bytes.
 * Feed the previous return value as @p seed to checksum in chunks.
 */
std::uint32_t crc32(const void *data, std::size_t n,
                    std::uint32_t seed = 0);

/** Append-only byte writer into a std::string. */
class ByteWriter
{
  public:
    void u8(std::uint8_t v) { raw(&v, sizeof(v)); }
    void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
    void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
    void i64(std::int64_t v) { raw(&v, sizeof(v)); }
    void f32(float v) { raw(&v, sizeof(v)); }
    void f64(double v) { raw(&v, sizeof(v)); }

    /** u64 element count, then the trivially-copyable elements. */
    template <typename T>
    void
    vec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        raw(v.data(), v.size() * sizeof(T));
    }

    /** u32 byte count, then the bytes. */
    void
    str(std::string_view s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    /** Unprefixed bytes (magic tags). */
    void
    raw(const void *data, std::size_t n)
    {
        buffer_.append(static_cast<const char *>(data), n);
    }

    const std::string &buffer() const { return buffer_; }
    std::string take() { return std::move(buffer_); }

  private:
    std::string buffer_;
};

/**
 * Bounds-checked reader over a span of untrusted bytes. Length prefixes
 * are checked against the bytes actually present before any allocation
 * is sized from them.
 */
class ByteReader
{
  public:
    /** @p label prefixes every error message (a path or "wire"). */
    explicit ByteReader(std::string_view data, std::string label = "wire")
        : data_(data), label_(std::move(label))
    {
    }

    ByteReader(const void *data, std::size_t size, std::string label)
        : ByteReader(std::string_view(static_cast<const char *>(data), size),
                     std::move(label))
    {
    }

    std::uint8_t u8() { return pod<std::uint8_t>(); }
    std::uint32_t u32() { return pod<std::uint32_t>(); }
    std::uint64_t u64() { return pod<std::uint64_t>(); }
    std::int64_t i64() { return pod<std::int64_t>(); }
    float f32() { return pod<float>(); }
    double f64() { return pod<double>(); }

    /** u64 element count, then that many trivially-copyable elements. */
    template <typename T>
    std::vector<T>
    vec()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t n = u64();
        needCount(n, sizeof(T));
        std::vector<T> out(static_cast<std::size_t>(n));
        if (n)
            std::memcpy(out.data(), raw(n * sizeof(T)).data(),
                        n * sizeof(T));
        return out;
    }

    /** u32 byte count, then the bytes. */
    std::string
    str()
    {
        const std::uint32_t n = u32();
        needCount(n, 1);
        return std::string(raw(n));
    }

    /** The next @p n bytes, unprefixed (magic tags). */
    std::string_view
    raw(std::size_t n)
    {
        if (n > remaining())
            fail(FormatErrorCode::Truncated,
                 "truncated: need " + std::to_string(n) + " bytes, have " +
                     std::to_string(remaining()));
        std::string_view out(data_.data() + pos_, n);
        pos_ += n;
        return out;
    }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return data_.size() - pos_; }

    /**
     * Throws Corrupt unless @p n elements of @p elem_size bytes each
     * could still be present. Divides, never multiplies: @p n is
     * untrusted and n * elem_size can wrap mod 2^64. Callers may size
     * containers from @p n once it passes.
     */
    void
    needCount(std::uint64_t n, std::size_t elem_size) const
    {
        if (n > remaining() / elem_size)
            fail(FormatErrorCode::Corrupt,
                 "element count " + std::to_string(n) + " x " +
                     std::to_string(elem_size) + " bytes exceeds the " +
                     std::to_string(remaining()) + " bytes left");
    }

    bool atEnd() const { return pos_ == data_.size(); }

    /** Throws Corrupt unless every byte was consumed. */
    void
    expectEnd() const
    {
        if (!atEnd())
            fail(FormatErrorCode::Corrupt,
                 std::to_string(remaining()) + " trailing bytes");
    }

    /** Reject the input: throws FormatError("<label>: <msg>"). */
    [[noreturn]] void
    fail(FormatErrorCode code, const std::string &msg) const
    {
        throw FormatError(code, label_ + ": " + msg);
    }

  private:
    template <typename T>
    T
    pod()
    {
        T v;
        std::memcpy(&v, raw(sizeof(T)).data(), sizeof(T));
        return v;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
    std::string label_;
};

} // namespace util
} // namespace hermes
