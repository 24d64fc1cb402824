#include "compress/stream.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/status.hpp"

namespace atc::comp {

namespace {

// Whole-frame accounting (frames/bytes counters + per-frame latency
// histogram), one set per direction. The per-stage split (BWT vs
// MTF+RLE vs entropy) lives inside BwcCodec itself.
struct FrameMetrics {
    obs::Counter &frames;
    obs::Counter &raw_bytes;
    obs::Counter &comp_bytes;
    obs::Histogram &frame_us;
};

FrameMetrics &
encodeFrameMetrics()
{
    auto &r = obs::Registry::global();
    static FrameMetrics m{
        r.counter("codec.encode.frames"),
        r.counter("codec.encode.raw_bytes"),
        r.counter("codec.encode.comp_bytes"),
        r.histogram("codec.encode.frame_us"),
    };
    return m;
}

FrameMetrics &
decodeFrameMetrics()
{
    auto &r = obs::Registry::global();
    static FrameMetrics m{
        r.counter("codec.decode.frames"),
        r.counter("codec.decode.raw_bytes"),
        r.counter("codec.decode.comp_bytes"),
        r.histogram("codec.decode.frame_us"),
    };
    return m;
}

/**
 * Sanity bound on a frame's declared sizes: generous (codecs may
 * expand incompressible blocks) but tight enough that a corrupt varint
 * cannot drive an absurd allocation — and, with raw_size capped first,
 * the 4x product cannot wrap.
 */
bool
plausibleFrameSizes(uint64_t raw_size, uint64_t comp_size)
{
    return raw_size <= kMaxFrameRawSize &&
           comp_size <= 4 * raw_size + (1u << 20);
}

} // namespace

std::vector<uint8_t>
encodeFrame(const Codec &codec, const uint8_t *data, size_t n,
            FrameFormat format, FrameIndexEntry *entry)
{
    FrameMetrics &m = encodeFrameMetrics();
    obs::LatencyTimer frame_t(m.frame_us);
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    if (format == FrameFormat::Legacy) {
        util::writeVarint(sink, n + 1);
        size_t header = out.size();
        codec.compressBlock(data, n, sink);
        if (entry != nullptr)
            *entry = {n, out.size() - header};
        frame_t.stop();
        m.frames.inc();
        m.raw_bytes.add(static_cast<int64_t>(n));
        m.comp_bytes.add(static_cast<int64_t>(out.size() - header));
        return out;
    }
    // Seekable: the compressed length goes into the header, so the
    // payload is produced first.
    std::vector<uint8_t> payload;
    util::VectorSink payload_sink(payload);
    codec.compressBlock(data, n, payload_sink);
    util::writeVarint(sink, n + 1);
    util::writeVarint(sink, payload.size());
    sink.write(payload.data(), payload.size());
    if (entry != nullptr)
        *entry = {n, payload.size()};
    frame_t.stop();
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(n));
    m.comp_bytes.add(static_cast<int64_t>(payload.size()));
    return out;
}

void
writeStreamEnd(util::ByteSink &sink, FrameFormat format,
               const std::vector<FrameIndexEntry> &index)
{
    util::writeVarint(sink, 0);
    if (format == FrameFormat::Legacy)
        return;
    sink.writeByte(1); // index present
    util::writeVarint(sink, index.size());
    for (const FrameIndexEntry &e : index) {
        util::writeVarint(sink, e.raw_size);
        util::writeVarint(sink, e.comp_size);
    }
}

FrameScan
readSeekableFrameHeader(util::ByteSource &src, FrameIndexEntry &entry)
{
    uint8_t first;
    if (src.read(&first, 1) == 0)
        return FrameScan::EndOfData;
    uint64_t header = first & 0x7F;
    int shift = 7;
    while (first & 0x80) {
        src.readExact(&first, 1);
        header |= static_cast<uint64_t>(first & 0x7F) << shift;
        shift += 7;
        ATC_CHECK(shift <= 63, "corrupt frame header");
    }
    if (header == 0)
        return FrameScan::Terminator;
    entry.raw_size = header - 1;
    entry.comp_size = util::readVarint(src);
    ATC_CHECK(plausibleFrameSizes(entry.raw_size, entry.comp_size),
              "corrupt frame header (implausible frame size)");
    return FrameScan::Frame;
}

void
decodeSeekableFrame(const Codec &codec, const uint8_t *comp,
                    size_t comp_size, size_t raw_size,
                    std::vector<uint8_t> &out)
{
    FrameMetrics &m = decodeFrameMetrics();
    obs::LatencyTimer frame_t(m.frame_us);
    // Decode from the declared extent only: a codec trying to consume
    // past it sees end-of-source, and leftover bytes are a mismatch.
    util::MemorySource frame_src(comp, comp_size);
    try {
        codec.decompressBlock(frame_src, raw_size, out);
    } catch (const util::Error &) {
        if (frame_src.remaining() == 0)
            util::raise("frame overruns its declared compressed length "
                        "(corrupt container)");
        throw;
    }
    ATC_CHECK(out.size() == raw_size, "frame size mismatch");
    ATC_CHECK(frame_src.remaining() == 0,
              "frame compressed-length mismatch (corrupt container)");
    frame_t.stop();
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(raw_size));
    m.comp_bytes.add(static_cast<int64_t>(comp_size));
}

void
readFrameIndex(util::ByteSource &src,
               const std::vector<FrameIndexEntry> &seen)
{
    uint8_t flag;
    uint64_t count = 0;
    std::vector<FrameIndexEntry> stored;
    try {
        src.readExact(&flag, 1);
        ATC_CHECK(flag <= 1, "corrupt frame index marker");
        if (flag == 0)
            return; // index omitted by the writer
        count = util::readVarint(src);
        ATC_CHECK(count == seen.size(),
                  "frame index disagrees with decoded frame count "
                  "(corrupt container)");
        stored.reserve(count);
        for (uint64_t i = 0; i < count; ++i) {
            FrameIndexEntry e;
            e.raw_size = util::readVarint(src);
            e.comp_size = util::readVarint(src);
            stored.push_back(e);
        }
    } catch (const util::Error &e) {
        if (std::string(e.what()).find("truncated") != std::string::npos)
            util::raise("chunk frame index truncated");
        throw;
    }
    for (uint64_t i = 0; i < count; ++i)
        ATC_CHECK(stored[i].raw_size == seen[i].raw_size &&
                      stored[i].comp_size == seen[i].comp_size,
                  "frame index entry disagrees with decoded frame " +
                      std::to_string(i) + " (corrupt container)");
}

size_t
StreamLayout::frameContaining(uint64_t raw_off) const
{
    ATC_ASSERT(raw_off < rawTotal());
    // upper_bound over the cumulative starts: the first start > raw_off
    // is the *next* frame's.
    auto it = std::upper_bound(raw_starts.begin(), raw_starts.end(),
                               raw_off);
    return static_cast<size_t>(it - raw_starts.begin()) - 1;
}

StreamLayout
scanSeekableStream(util::ByteSource &src, bool crc_trailer)
{
    StreamLayout layout;
    layout.raw_starts.push_back(0);
    layout.comp_starts.push_back(0);
    uint64_t raw = 0, pos = 0;
    for (;;) {
        FrameIndexEntry entry;
        FrameScan scan = readSeekableFrameHeader(src, entry);
        if (scan == FrameScan::Terminator) {
            readFrameIndex(src, layout.frames);
            layout.indexed = true;
            if (crc_trailer) {
                layout.crc = util::readLE<uint32_t>(src);
                layout.has_crc = true;
            }
            break;
        }
        if (scan == FrameScan::EndOfData)
            break; // tolerated, like the decoders; shortfall reported
                   // against the INFO count downstream
        src.skip(entry.comp_size); // payload untouched — this is a scan
        pos += util::varintLen(entry.raw_size + 1) +
               util::varintLen(entry.comp_size) + entry.comp_size;
        raw += entry.raw_size;
        layout.frames.push_back(entry);
        layout.raw_starts.push_back(raw);
        layout.comp_starts.push_back(pos);
    }
    return layout;
}

namespace {

/**
 * Read frame @p f's header and validate it against the scanned layout
 * — the shared front half of the indexed-frame fetches.
 */
void
checkIndexedFrameHeader(util::ByteSource &src, const StreamLayout &layout,
                        size_t f, FrameIndexEntry &entry)
{
    ATC_ASSERT(f < layout.frames.size());
    FrameScan scan = readSeekableFrameHeader(src, entry);
    ATC_CHECK(scan == FrameScan::Frame &&
                  entry.raw_size == layout.frames[f].raw_size &&
                  entry.comp_size == layout.frames[f].comp_size,
              "frame header disagrees with the scanned index "
              "(container modified while indexed?)");
}

} // namespace

FramePayload
fetchIndexedFramePayload(util::ByteSource &src, const StreamLayout &layout,
                         size_t f)
{
    FrameIndexEntry entry;
    checkIndexedFrameHeader(src, layout, f, entry);
    FramePayload p;
    p.size = static_cast<size_t>(entry.comp_size);
    if (const uint8_t *span = src.view(p.size)) {
        p.data = span;
        p.keepalive = src.viewKeepalive();
    } else {
        p.owned.resize(p.size);
        src.readExact(p.owned.data(), p.size);
        p.data = p.owned.data();
    }
    return p;
}

StreamCompressor::StreamCompressor(const Codec &codec, util::ByteSink &sink,
                                   size_t block_size, FrameFormat format)
    : codec_(codec), sink_(sink), block_size_(block_size), format_(format)
{
    ATC_ASSERT(block_size_ > 0);
    buffer_.reserve(block_size_);
}

StreamCompressor::~StreamCompressor()
{
    // finish() is the caller's job (it can throw); destructor tolerates
    // abandoned streams.
}

void
StreamCompressor::write(const uint8_t *data, size_t n)
{
    ATC_ASSERT(!finished_);
    raw_bytes_ += n;
    crc_.update(data, n);
    while (n > 0) {
        size_t room = block_size_ - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), data, data + take);
        data += take;
        n -= take;
        if (buffer_.size() == block_size_)
            emitBlock();
    }
}

void
StreamCompressor::emitBlock()
{
    FrameMetrics &m = encodeFrameMetrics();
    obs::LatencyTimer frame_t(m.frame_us);
    if (format_ == FrameFormat::Legacy) {
        // Direct write — no frame-sized staging buffer on the hot
        // path. (comp_bytes is not tracked here: the codec writes
        // straight into the sink, which need not be seekable.)
        util::writeVarint(sink_, buffer_.size() + 1);
        codec_.compressBlock(buffer_.data(), buffer_.size(), sink_);
    } else {
        // Stage only the payload (its length goes in the header), then
        // write header + payload straight to the sink — same bytes as
        // encodeFrame without the second frame-sized copy. The parallel
        // writer uses encodeFrame because its pooled tasks must return
        // self-contained frames.
        std::vector<uint8_t> payload;
        util::VectorSink payload_sink(payload);
        codec_.compressBlock(buffer_.data(), buffer_.size(),
                             payload_sink);
        util::writeVarint(sink_, buffer_.size() + 1);
        util::writeVarint(sink_, payload.size());
        sink_.write(payload.data(), payload.size());
        index_.push_back({buffer_.size(), payload.size()});
        m.comp_bytes.add(static_cast<int64_t>(payload.size()));
    }
    frame_t.stop();
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(buffer_.size()));
    buffer_.clear();
}

void
StreamCompressor::finish()
{
    if (finished_)
        return;
    if (!buffer_.empty())
        emitBlock();
    writeStreamEnd(sink_, format_, index_);
    finished_ = true;
}

StreamDecompressor::StreamDecompressor(const Codec &codec,
                                       util::ByteSource &src,
                                       FrameFormat format)
    : codec_(codec), src_(src), format_(format)
{
}

bool
StreamDecompressor::refillSeekable()
{
    FrameIndexEntry entry;
    switch (readSeekableFrameHeader(src_, entry)) {
    case FrameScan::EndOfData:
        // Clean end-of-source without terminator: accepted, like the
        // legacy format (no index to validate in that case).
        done_ = true;
        return false;
    case FrameScan::Terminator:
        readFrameIndex(src_, seen_);
        done_ = true;
        return false;
    case FrameScan::Frame:
        break;
    }

    size_t comp_size = static_cast<size_t>(entry.comp_size);
    if (const uint8_t *span = src_.view(comp_size)) {
        // Zero-copy: decode straight from the source's storage (mmap
        // page cache or a memory chunk); the source outlives this call.
        decodeSeekableFrame(codec_, span, comp_size,
                            static_cast<size_t>(entry.raw_size), block_);
    } else {
        comp_buf_.resize(comp_size);
        src_.readExact(comp_buf_.data(), comp_buf_.size());
        decodeSeekableFrame(codec_, comp_buf_.data(), comp_buf_.size(),
                            static_cast<size_t>(entry.raw_size), block_);
    }
    seen_.push_back(entry);
    crc_.update(block_.data(), block_.size());
    pos_ = 0;
    return true;
}

bool
StreamDecompressor::refill()
{
    if (done_)
        return false;
    if (format_ == FrameFormat::Seekable)
        return refillSeekable();

    // Read the frame header; a clean EOF also terminates the stream.
    uint8_t first;
    if (src_.read(&first, 1) == 0) {
        done_ = true;
        return false;
    }
    uint64_t header = first & 0x7F;
    int shift = 7;
    while (first & 0x80) {
        src_.readExact(&first, 1);
        header |= static_cast<uint64_t>(first & 0x7F) << shift;
        shift += 7;
        ATC_CHECK(shift <= 63, "corrupt frame header");
    }
    if (header == 0) {
        done_ = true;
        return false;
    }

    ATC_CHECK(header - 1 <= kMaxFrameRawSize,
              "corrupt frame header (implausible frame size)");
    size_t raw_size = static_cast<size_t>(header - 1);
    FrameMetrics &m = decodeFrameMetrics();
    {
        // Legacy frames carry no compressed length, so only frames,
        // raw bytes, and latency are tracked on this path.
        obs::LatencyTimer frame_t(m.frame_us);
        codec_.decompressBlock(src_, raw_size, block_);
    }
    m.frames.inc();
    m.raw_bytes.add(static_cast<int64_t>(raw_size));
    ATC_CHECK(block_.size() == raw_size, "frame size mismatch");
    crc_.update(block_.data(), block_.size());
    pos_ = 0;
    return true;
}

size_t
StreamDecompressor::read(uint8_t *data, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (pos_ == block_.size()) {
            if (!refill())
                break;
            if (block_.empty())
                continue;
        }
        size_t avail = block_.size() - pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::memcpy(data + got, block_.data() + pos_, take);
        got += take;
        pos_ += take;
    }
    return got;
}

std::vector<uint8_t>
compressAll(const Codec &codec, const uint8_t *data, size_t n,
            size_t block_size, FrameFormat format)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    StreamCompressor sc(codec, sink, block_size, format);
    sc.write(data, n);
    sc.finish();
    return out;
}

std::vector<uint8_t>
decompressAll(const Codec &codec, const uint8_t *data, size_t n,
              FrameFormat format)
{
    util::MemorySource src(data, n);
    StreamDecompressor sd(codec, src, format);
    std::vector<uint8_t> out;
    uint8_t buf[64 * 1024];
    for (;;) {
        size_t got = sd.read(buf, sizeof(buf));
        if (got == 0)
            break;
        out.insert(out.end(), buf, buf + got);
    }
    return out;
}

} // namespace atc::comp
