#include "atc/bytesort.hpp"

#include <cstring>
#include <string>

#include "obs/metrics.hpp"
#include "util/byte_counts.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

/** Extract the current top byte of each (shifted) address. */
void
topBytes(const uint64_t *a, size_t n, uint8_t *plane)
{
    for (size_t i = 0; i < n; ++i)
        plane[i] = static_cast<uint8_t>(a[i] >> 56);
}

/**
 * Stable counting sort of addresses by their top byte, shifting each
 * address left by 8 on the way (paper Figure 2's sort_bytes): the next
 * plane to emit is always the top byte.
 */
void
sortByTopByte(const uint64_t *src, size_t n, const uint8_t *plane,
              uint64_t *dst)
{
    size_t cnt[256];
    util::byteCounts(plane, n, cnt);
    size_t start[256];
    size_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        start[c] = sum;
        sum += cnt[c];
    }
    for (size_t i = 0; i < n; ++i)
        dst[start[plane[i]]++] = src[i] << 8;
}

/**
 * Undo one stable sort by @p plane: rank s of the order the plane was
 * emitted in went to rank cursor[plane[s]]++ of @p src's order, so
 * dst[s] gathers that carried value and adds the plane's byte at
 * @p shift. The byte value's cursor stays in a register across runs.
 */
template <typename Src>
void
unsortPlane(const uint8_t *plane, size_t n, const size_t *cnt,
            const Src *src, uint64_t *dst, int shift, uint64_t or_bits)
{
    size_t cursor[256];
    size_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        cursor[c] = sum;
        sum += cnt[c];
    }
    uint8_t c = plane[0];
    size_t cur = cursor[c];
    for (size_t s = 0; s < n; ++s) {
        uint8_t b = plane[s];
        if (b != c) {
            cursor[c] = cur;
            c = b;
            cur = cursor[c];
        }
        dst[s] = static_cast<uint64_t>(c) << shift | src[cur++] | or_bits;
    }
}

} // namespace

std::vector<uint8_t>
bytesortForward(const uint64_t *addrs, size_t n)
{
    std::vector<uint8_t> out(8 * n);
    if (n == 0)
        return out;

    std::vector<uint64_t> work[2];
    work[0].assign(addrs, addrs + n);
    work[1].resize(n);

    int x = 0;
    for (int j = 0; j < 8; ++j) {
        uint8_t *plane = out.data() + static_cast<size_t>(j) * n;
        topBytes(work[x].data(), n, plane);
        if (j < 7) {
            sortByTopByte(work[x].data(), n, plane, work[x ^ 1].data());
            x ^= 1;
        }
    }
    return out;
}

std::vector<uint64_t>
bytesortInverse(const uint8_t *bytes, size_t n)
{
    std::vector<uint64_t> addrs(n);
    if (n == 0)
        return addrs;

    // Undo the encoder's seven stable sorts last-first, carrying each
    // partial address instead of an index. V_j[s] = planes j..7 of the
    // address at rank s of plane j's order: V_7 is plane 7 itself and
    // V_j[s] = plane_j[s] << 8(7-j) | V_{j+1}[sort_j(s)], so V_0 is the
    // trace. A constant plane sorts as the identity and costs no pass:
    // its bits are ORed in on the first one.
    size_t cnt[7][256];
    int sorted[7];
    int passes = 0;
    uint64_t const_bits = 0;
    for (int j = 6; j >= 0; --j) {
        const uint8_t *plane = bytes + static_cast<size_t>(j) * n;
        util::byteCounts(plane, n, cnt[j]);
        if (cnt[j][plane[0]] == n)
            const_bits |= static_cast<uint64_t>(plane[0]) << (8 * (7 - j));
        else
            sorted[passes++] = j;
    }

    const uint8_t *plane7 = bytes + 7 * n;
    if (passes == 0) {
        for (size_t s = 0; s < n; ++s)
            addrs[s] = plane7[s] | const_bits;
        return addrs;
    }
    // Ping-pong so the last pass lands in addrs: one n-word scratch at
    // most, no index array.
    std::vector<uint64_t> scratch(passes > 1 ? n : 0);
    uint64_t *buf[2] = {addrs.data(), scratch.data()};
    const uint64_t *src = nullptr;
    for (int p = 0; p < passes; ++p) {
        int j = sorted[p];
        const uint8_t *plane = bytes + static_cast<size_t>(j) * n;
        uint64_t *dst = buf[(passes - 1 - p) & 1];
        if (p == 0)
            unsortPlane(plane, n, cnt[j], plane7, dst, 8 * (7 - j),
                        const_bits);
        else
            unsortPlane(plane, n, cnt[j], src, dst, 8 * (7 - j), 0);
        src = dst;
    }
    return addrs;
}

std::vector<uint8_t>
unshuffleForward(const uint64_t *addrs, size_t n)
{
    std::vector<uint8_t> out(8 * n);
    for (int j = 0; j < 8; ++j) {
        uint8_t *plane = out.data() + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t i = 0; i < n; ++i)
            plane[i] = static_cast<uint8_t>(addrs[i] >> shift);
    }
    return out;
}

std::vector<uint64_t>
unshuffleInverse(const uint8_t *bytes, size_t n)
{
    std::vector<uint64_t> addrs(n, 0);
    for (int j = 0; j < 8; ++j) {
        const uint8_t *plane = bytes + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t i = 0; i < n; ++i)
            addrs[i] |= static_cast<uint64_t>(plane[i]) << shift;
    }
    return addrs;
}

TransformEncoder::TransformEncoder(Transform transform, size_t buffer_addrs,
                                   util::ByteSink &out)
    : transform_(transform), capacity_(buffer_addrs), out_(out)
{
    ATC_CHECK(capacity_ > 0, "bytesort buffer must be nonempty");
    buffer_.reserve(capacity_);
}

void
TransformEncoder::write(const uint64_t *addrs, size_t n)
{
    ATC_ASSERT(!finished_);
    count_ += n;
    while (n > 0) {
        size_t room = capacity_ - buffer_.size();
        size_t take = n < room ? n : room;
        buffer_.insert(buffer_.end(), addrs, addrs + take);
        addrs += take;
        n -= take;
        if (buffer_.size() == capacity_)
            emitBuffer();
    }
}

namespace {

// Pure transform compute time, excluding the nested sink writes /
// source reads (those land in codec and io metrics — timing the whole
// body here would double-count them).
struct TransformMetrics {
    obs::Counter &encode_us;
    obs::Counter &decode_us;
    obs::Counter &encode_buffers;
    obs::Counter &decode_buffers;
};

TransformMetrics &
transformMetrics()
{
    auto &r = obs::Registry::global();
    static TransformMetrics m{
        r.counter("atc.transform.encode_us"),
        r.counter("atc.transform.decode_us"),
        r.counter("atc.transform.encode_buffers"),
        r.counter("atc.transform.decode_buffers"),
    };
    return m;
}

}  // namespace

void
TransformEncoder::emitBuffer()
{
    TransformMetrics &m = transformMetrics();
    m.encode_buffers.inc();
    size_t n = buffer_.size();
    util::writeVarint(out_, n);
    switch (transform_) {
      case Transform::None:
        // No transform: the LE serialization loop is I/O, not compute.
        for (uint64_t a : buffer_)
            util::writeLE<uint64_t>(out_, a);
        break;
      case Transform::Unshuffle: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint8_t> planes = unshuffleForward(buffer_.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
      case Transform::Bytesort: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint8_t> planes = bytesortForward(buffer_.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
      case Transform::Delta: {
          obs::StageTimer t(m.encode_us);
          std::vector<uint64_t> deltas(n);
          uint64_t prev = 0;
          for (size_t i = 0; i < n; ++i) {
              deltas[i] = buffer_[i] - prev;
              prev = buffer_[i];
          }
          std::vector<uint8_t> planes = unshuffleForward(deltas.data(), n);
          t.stop();
          out_.write(planes.data(), planes.size());
          break;
      }
    }
    buffer_.clear();
}

void
TransformEncoder::finish()
{
    if (finished_)
        return;
    if (!buffer_.empty())
        emitBuffer();
    util::writeVarint(out_, 0);
    finished_ = true;
}

std::vector<uint64_t>
inverseTransform(Transform transform, const uint8_t *bytes, size_t n)
{
    TransformMetrics &m = transformMetrics();
    m.decode_buffers.inc();
    if (transform == Transform::None) {
        // No transform: the LE deserialization is I/O, not compute.
        std::vector<uint64_t> addrs(n, 0);
        for (size_t i = 0; i < n; ++i)
            for (int k = 0; k < 8; ++k)
                addrs[i] |= static_cast<uint64_t>(bytes[8 * i + k])
                            << (8 * k);
        return addrs;
    }
    obs::StageTimer t(m.decode_us);
    switch (transform) {
      case Transform::Unshuffle:
        return unshuffleInverse(bytes, n);
      case Transform::Bytesort:
        return bytesortInverse(bytes, n);
      case Transform::Delta: {
          std::vector<uint64_t> addrs = unshuffleInverse(bytes, n);
          uint64_t prev = 0;
          for (uint64_t &a : addrs) {
              a += prev;
              prev = a;
          }
          return addrs;
      }
      default:
        util::raise("corrupt ATC transform id");
    }
}

TransformDecoder::TransformDecoder(Transform transform, util::ByteSource &in,
                                   uint64_t max_addrs)
    : transform_(transform), in_(in), max_addrs_(max_addrs)
{
}

bool
TransformDecoder::refill()
{
    if (done_)
        return false;

    uint8_t first;
    if (in_.read(&first, 1) == 0) {
        done_ = true;
        return false;
    }
    uint64_t n = first & 0x7F;
    int shift = 7;
    while (first & 0x80) {
        in_.readExact(&first, 1);
        n |= static_cast<uint64_t>(first & 0x7F) << shift;
        shift += 7;
        ATC_CHECK(shift <= 63, "corrupt bytesort frame header");
    }
    if (n == 0) {
        done_ = true;
        return false;
    }
    // Bound before allocating: an unchecked varint would turn a flipped
    // header byte into a multi-exabyte allocation.
    ATC_CHECK(n <= max_addrs_,
              "corrupt bytesort frame header: buffer of " +
                  std::to_string(n) + " addresses exceeds the stream's " +
                  std::to_string(max_addrs_));
    std::vector<uint8_t> bytes(8 * n);
    in_.readExact(bytes.data(), bytes.size());
    buffer_ = inverseTransform(transform_, bytes.data(), n);
    pos_ = 0;
    return true;
}

size_t
TransformDecoder::read(uint64_t *out, size_t n)
{
    size_t got = 0;
    while (got < n) {
        if (pos_ == buffer_.size()) {
            if (!refill())
                break;
        }
        size_t avail = buffer_.size() - pos_;
        size_t take = (n - got) < avail ? (n - got) : avail;
        std::memcpy(out + got, buffer_.data() + pos_,
                    take * sizeof(uint64_t));
        got += take;
        pos_ += take;
    }
    return got;
}

} // namespace atc::core
