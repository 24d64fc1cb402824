/**
 * @file
 * The bytesort reversible transformation (paper §4) and the plain
 * byte-unshuffling baseline.
 *
 * For a buffer of N 64-bit addresses, eight blocks of N bytes are
 * emitted, most-significant plane first. Unshuffling alone emits each
 * plane in original sequence order. Bytesort additionally stable-sorts
 * the addresses by the plane just emitted before extracting the next
 * one, progressively grouping addresses by memory region — the
 * regularity a byte-level compressor then exploits. Both transforms
 * are exactly reversible and linear in time and space.
 *
 * Streaming framing: the trace is cut into buffers of at most B
 * addresses; each buffer is emitted as varint(n) followed by its 8
 * planes; a 0 varint (or end of stream) terminates.
 */

#ifndef ATC_ATC_BYTESORT_HPP_
#define ATC_ATC_BYTESORT_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/bytestream.hpp"

namespace atc::core {

/** Reversible per-buffer transform applied before byte compression. */
enum class Transform : uint8_t
{
    /** Raw little-endian bytes, no rearrangement. */
    None = 0,
    /** Byte-unshuffling: planes in sequence order (§4.1 baseline). */
    Unshuffle = 1,
    /** Full bytesort: planes with progressive stable sorting (§4.1). */
    Bytesort = 2,
    /**
     * Mache-style differencing (Samples [23], discussed in §3):
     * successive-address deltas, byte-unshuffled. Exploits spatial
     * locality; provided as a related-work baseline for ablations.
     */
    Delta = 3,
};

/** Buffer-level forward bytesort: 8*n bytes, MSB plane first. */
std::vector<uint8_t> bytesortForward(const uint64_t *addrs, size_t n);

/** Buffer-level inverse bytesort. @p bytes must hold 8*n bytes. */
std::vector<uint64_t> bytesortInverse(const uint8_t *bytes, size_t n);

/** Buffer-level byte-unshuffling (no sorting). */
std::vector<uint8_t> unshuffleForward(const uint64_t *addrs, size_t n);

/** Inverse of unshuffleForward. */
std::vector<uint64_t> unshuffleInverse(const uint8_t *bytes, size_t n);

/**
 * Invert one framed buffer: @p bytes holds the 8*n bytes that follow
 * the buffer's varint(n) under @p transform. The one inverse used by
 * the streaming decoder and the random-access buffer decode, so both
 * count into atc.transform.decode_us / decode_buffers.
 */
std::vector<uint64_t> inverseTransform(Transform transform,
                                       const uint8_t *bytes, size_t n);

/**
 * Streaming encoder: buffers addresses and emits framed, transformed
 * buffers into a byte sink (typically a StreamCompressor).
 */
class TransformEncoder
{
  public:
    /**
     * @param transform    transform applied to each buffer
     * @param buffer_addrs buffer capacity B in addresses (paper: 1M/10M)
     * @param out          destination byte sink
     */
    TransformEncoder(Transform transform, size_t buffer_addrs,
                     util::ByteSink &out);

    /** Append a batch of addresses — the primary (hot-path) entry. */
    void write(const uint64_t *addrs, size_t n);

    /** Append one address. */
    void code(uint64_t addr) { write(&addr, 1); }

    /** Emit the final partial buffer and the terminator. */
    void finish();

    /** @return addresses coded so far. */
    uint64_t count() const { return count_; }

  private:
    void emitBuffer();

    Transform transform_;
    size_t capacity_;
    util::ByteSink &out_;
    std::vector<uint64_t> buffer_;
    uint64_t count_ = 0;
    bool finished_ = false;
};

/** Streaming decoder for TransformEncoder output. */
class TransformDecoder
{
  public:
    /**
     * @param transform transform used when encoding
     * @param in        source byte stream
     * @param max_addrs the encoder's buffer capacity B; a buffer
     *                  header declaring more addresses is corrupt and
     *                  rejected before anything is allocated
     */
    TransformDecoder(Transform transform, util::ByteSource &in,
                     uint64_t max_addrs);

    /**
     * Produce up to @p n addresses — the primary (hot-path) entry.
     * @return addresses produced; 0 means end of trace
     */
    size_t read(uint64_t *out, size_t n);

    /**
     * Produce the next address.
     * @param out receives the address
     * @return false at end of trace
     */
    bool decode(uint64_t *out) { return read(out, 1) == 1; }

  private:
    bool refill();

    Transform transform_;
    util::ByteSource &in_;
    uint64_t max_addrs_;
    std::vector<uint64_t> buffer_;
    size_t pos_ = 0;
    bool done_ = false;
};

} // namespace atc::core

#endif // ATC_ATC_BYTESORT_HPP_
