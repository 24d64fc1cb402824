/**
 * @file
 * Streaming framing on top of block codecs.
 *
 * Two frame formats share one stream grammar:
 *
 * - Legacy (container v1/v2): each frame is `varint(n + 1)` followed by
 *   the codec's representation of an n-byte block. Readers must decode
 *   a frame to find the next one.
 * - Seekable (container v3): each frame header additionally records the
 *   compressed byte length — `varint(n + 1)` `varint(c)` followed by
 *   exactly c codec bytes — so a scanner can walk frame boundaries
 *   without decoding, and workers can decode frames independently. The
 *   stream ends with an optional frame index (one `(raw, compressed)`
 *   varint pair per frame) that readers validate against the frames
 *   actually seen.
 *
 * Both formats terminate with a single 0 varint. The terminator lets
 * compressed streams be embedded in larger files; a clean end-of-source
 * is also accepted.
 */

#ifndef ATC_COMPRESS_STREAM_HPP_
#define ATC_COMPRESS_STREAM_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "compress/codec.hpp"
#include "util/bytestream.hpp"
#include "util/crc32.hpp"

namespace atc::comp {

// kDefaultBlockSize lives in codec.hpp, next to the spec machinery.

/** Stream frame format (see the file comment). */
enum class FrameFormat : uint8_t
{
    Legacy = 0,   ///< v1/v2: decompressed block length only
    Seekable = 1, ///< v3: + compressed length and end-of-stream index
};

/** One frame's sizes, as recorded in a Seekable stream's index. */
struct FrameIndexEntry
{
    uint64_t raw_size = 0;  ///< decompressed block length
    uint64_t comp_size = 0; ///< codec bytes in the stream
};

/**
 * Compress one block into a self-contained frame (header + payload).
 * The single serialization point for frames: the serial compressor and
 * the parallel writer both call it, which is what keeps containers
 * byte-identical across thread counts.
 * @param entry receives the frame's index entry when non-null
 */
std::vector<uint8_t> encodeFrame(const Codec &codec, const uint8_t *data,
                                 size_t n, FrameFormat format,
                                 FrameIndexEntry *entry = nullptr);

/**
 * Emit the end-of-stream terminator and — Seekable only — the frame
 * index for @p index.
 */
void writeStreamEnd(util::ByteSink &sink, FrameFormat format,
                    const std::vector<FrameIndexEntry> &index);

/** Outcome of reading one Seekable frame header. */
enum class FrameScan
{
    Frame,      ///< header parsed; payload follows
    Terminator, ///< 0 varint seen; index comes next
    EndOfData,  ///< clean end of the source before any header byte
};

/**
 * Read the next Seekable frame header from @p src.
 * @param entry receives the frame sizes when the result is Frame
 * @throws util::Error on corrupt or truncated headers
 */
FrameScan readSeekableFrameHeader(util::ByteSource &src,
                                  FrameIndexEntry &entry);

/**
 * Decode one Seekable frame payload, enforcing that the codec consumes
 * exactly @p comp_size bytes and produces exactly @p raw_size bytes.
 * The single validation point for frames: the serial decompressor and
 * the parallel reader's pooled decode tasks both call it, so serial
 * and parallel readers reject identical corruption.
 * @throws util::Error on any disagreement with the declared sizes
 */
void decodeSeekableFrame(const Codec &codec, const uint8_t *comp,
                         size_t comp_size, size_t raw_size,
                         std::vector<uint8_t> &out);

/**
 * Read a Seekable stream's frame index (positioned just after the
 * terminator) and validate it against the frames actually decoded.
 * @throws util::Error on a truncated index or any disagreement with
 *         @p seen — the corruption probe for resync-style damage
 */
void readFrameIndex(util::ByteSource &src,
                    const std::vector<FrameIndexEntry> &seen);

/**
 * The complete layout of one Seekable stream, built by scanning its
 * frame headers without decoding any payload. This is what random
 * access keys off: raw_starts supports a binary search from a
 * decompressed byte offset to the frame containing it, comp_starts
 * gives the in-stream byte position to skip() to.
 */
struct StreamLayout
{
    /** Per-frame sizes, identical to the end-of-stream index. */
    std::vector<FrameIndexEntry> frames;
    /** Cumulative decompressed offsets; frames.size() + 1 entries,
     *  raw_starts[f] = first decompressed byte served by frame f. */
    std::vector<uint64_t> raw_starts;
    /** In-stream byte offset of each frame's *header*;
     *  frames.size() + 1 entries (last = offset of the terminator). */
    std::vector<uint64_t> comp_starts;
    /** True when the terminator + frame index were present (a clean
     *  end-of-data before them leaves this false — a truncated but
     *  tolerated stream; readers report the shortfall downstream). */
    bool indexed = false;
    /** CRC-32 trailer, valid when @ref has_crc. */
    uint32_t crc = 0;
    bool has_crc = false;

    /** @return total decompressed bytes across all frames. */
    uint64_t rawTotal() const { return raw_starts.back(); }

    /**
     * @return the frame whose decompressed extent contains @p raw_off.
     * @p raw_off must be < rawTotal().
     */
    size_t frameContaining(uint64_t raw_off) const;
};

/**
 * Scan a Seekable stream's frame headers from @p src (positioned at
 * the first frame), skipping every payload, and validate the stored
 * end-of-stream index against the headers actually seen. When
 * @p crc_trailer is set the trailing CRC-32 is captured too.
 * @throws util::Error on corrupt headers, a truncated payload or any
 *         header/index disagreement
 */
StreamLayout scanSeekableStream(util::ByteSource &src, bool crc_trailer);

/**
 * One frame's compressed payload, zero-copy when the source can serve
 * it. `data` either borrows the source's backing storage (mmap or
 * memory — `owned` stays empty, `keepalive` pins a mapping) or points
 * into `owned` after a copy through read(). Movable: moving relocates
 * the vector header, not its heap block, so `data` stays valid —
 * pooled decode tasks capture a FramePayload by value.
 */
struct FramePayload
{
    const uint8_t *data = nullptr;
    size_t size = 0;
    std::vector<uint8_t> owned;
    std::shared_ptr<const void> keepalive;
};

/**
 * Fetch frame @p f's compressed payload from @p src — which must be
 * positioned at that frame's header (layout.comp_starts[f]) — after
 * re-validating the header against the scanned @p layout. Borrows the
 * payload span in place when @p src supports view(), else copies it.
 * The one frame-fetch used by every consumer of a StreamLayout (the
 * index's buffer decode and the parallel scanner), so they all reject
 * a stream that changed since the scan identically, and mapped
 * containers decode straight off the page cache.
 * @throws util::Error on truncation or any header/layout disagreement
 */
FramePayload fetchIndexedFramePayload(util::ByteSource &src,
                                      const StreamLayout &layout,
                                      size_t f);

/** Accumulates bytes and emits codec frames into a sink. */
class StreamCompressor : public util::ByteSink
{
  public:
    /**
     * @param codec      block codec (must outlive the compressor)
     * @param sink       destination (must outlive the compressor)
     * @param block_size bytes per block; larger blocks compress better
     * @param format     frame format (Legacy matches container v1/v2)
     */
    StreamCompressor(const Codec &codec, util::ByteSink &sink,
                     size_t block_size = kDefaultBlockSize,
                     FrameFormat format = FrameFormat::Legacy);

    ~StreamCompressor() override;

    /** Buffer input, emitting a frame whenever a block fills. */
    void write(const uint8_t *data, size_t n) override;

    /** Emit the final partial block, the end marker and the index. */
    void finish();

    /** @return raw bytes consumed so far. */
    uint64_t rawBytes() const { return raw_bytes_; }

    /** @return CRC-32 of the raw bytes consumed so far. */
    uint32_t crc() const { return crc_.value(); }

  private:
    void emitBlock();

    const Codec &codec_;
    util::ByteSink &sink_;
    size_t block_size_;
    FrameFormat format_;
    std::vector<uint8_t> buffer_;
    std::vector<FrameIndexEntry> index_;
    uint64_t raw_bytes_ = 0;
    util::Crc32 crc_;
    bool finished_ = false;
};

/** Reads codec frames and serves decompressed bytes. */
class StreamDecompressor : public util::ByteSource
{
  public:
    /**
     * @param codec  block codec used to write the stream
     * @param src    source positioned at the first frame
     * @param format frame format the stream was written with
     */
    StreamDecompressor(const Codec &codec, util::ByteSource &src,
                       FrameFormat format = FrameFormat::Legacy);

    /** Serve decompressed bytes; 0 at end of stream. */
    size_t read(uint8_t *data, size_t n) override;

    /** @return CRC-32 of every decompressed block produced so far. */
    uint32_t crc() const { return crc_.value(); }

  private:
    bool refill();
    bool refillSeekable();

    const Codec &codec_;
    util::ByteSource &src_;
    FrameFormat format_;
    std::vector<uint8_t> block_;
    std::vector<uint8_t> comp_buf_;
    std::vector<FrameIndexEntry> seen_;
    size_t pos_ = 0;
    util::Crc32 crc_;
    bool done_ = false;
};

/** One-shot convenience: compress a whole buffer into a vector. */
std::vector<uint8_t> compressAll(const Codec &codec,
                                 const uint8_t *data, size_t n,
                                 size_t block_size = kDefaultBlockSize,
                                 FrameFormat format = FrameFormat::Legacy);

/** One-shot convenience: decompress a whole stream into a vector. */
std::vector<uint8_t> decompressAll(const Codec &codec,
                                   const uint8_t *data, size_t n,
                                   FrameFormat format = FrameFormat::Legacy);

} // namespace atc::comp

#endif // ATC_COMPRESS_STREAM_HPP_
