#include "atc/bytesort.hpp"

#include <cstring>
#include <string>

#include "obs/metrics.hpp"
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
    uint32_t cnt[256] = {};
    for (size_t i = 0; i < n; ++i)
        cnt[plane[i]]++;
    uint32_t start[256];
    uint32_t sum = 0;
    for (int c = 0; c < 256; ++c) {
        start[c] = sum;
        sum += cnt[c];
    }
    for (size_t i = 0; i < n; ++i)
        dst[start[plane[i]]++] = src[i] << 8;
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
    std::vector<uint64_t> addrs(n, 0);
    if (n == 0)
        return addrs;

    // idx[s] = original position of the address at rank s of the
    // current sorted order; plane j is stored in that order.
    std::vector<uint32_t> idx(n), next(n);
    for (size_t i = 0; i < n; ++i)
        idx[i] = static_cast<uint32_t>(i);

    for (int j = 0; j < 8; ++j) {
        const uint8_t *plane = bytes + static_cast<size_t>(j) * n;
        int shift = 8 * (7 - j);
        for (size_t s = 0; s < n; ++s)
            addrs[idx[s]] |= static_cast<uint64_t>(plane[s]) << shift;
        if (j < 7) {
            // Replay the encoder's stable sort on the index array.
            uint32_t cnt[256] = {};
            for (size_t s = 0; s < n; ++s)
                cnt[plane[s]]++;
            uint32_t start[256];
            uint32_t sum = 0;
            for (int c = 0; c < 256; ++c) {
                start[c] = sum;
                sum += cnt[c];
            }
            for (size_t s = 0; s < n; ++s)
                next[start[plane[s]]++] = idx[s];
            idx.swap(next);
        }
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
