#include "atc/info.hpp"

#include <bit>
#include <cstring>
#include <filesystem>

#include "compress/stream.hpp"
#include "util/status.hpp"

namespace atc::core {

namespace {

constexpr char kMagic[4] = {'A', 'T', 'C', 'T'};

void
writeString(util::ByteSink &sink, const std::string &s)
{
    ATC_CHECK(s.size() < 256, "codec spec too long for INFO preamble");
    sink.writeByte(static_cast<uint8_t>(s.size()));
    sink.write(reinterpret_cast<const uint8_t *>(s.data()), s.size());
}

std::string
readString(util::ByteSource &src)
{
    uint8_t len;
    src.readExact(&len, 1);
    std::string s(len, '\0');
    src.readExact(reinterpret_cast<uint8_t *>(s.data()), len);
    return s;
}

void
writeRecord(util::ByteSink &sink, const IntervalRecord &rec)
{
    sink.writeByte(static_cast<uint8_t>(rec.kind));
    util::writeVarint(sink, rec.chunk_id);
    util::writeVarint(sink, rec.length);
    if (rec.kind == IntervalRecord::Kind::Imitate) {
        sink.writeByte(rec.trans.plane_mask);
        for (int j = 0; j < 8; ++j) {
            if (rec.trans.plane_mask & (1u << j))
                sink.write(rec.trans.t[j].data(), 256);
        }
    }
}

IntervalRecord
readRecord(util::ByteSource &src)
{
    IntervalRecord rec;
    uint8_t kind;
    src.readExact(&kind, 1);
    ATC_CHECK(kind <= 1, "corrupt interval record");
    rec.kind = static_cast<IntervalRecord::Kind>(kind);
    rec.chunk_id = static_cast<uint32_t>(util::readVarint(src));
    rec.length = util::readVarint(src);
    if (rec.kind == IntervalRecord::Kind::Imitate) {
        src.readExact(&rec.trans.plane_mask, 1);
        for (int j = 0; j < 8; ++j) {
            if (rec.trans.plane_mask & (1u << j))
                src.readExact(rec.trans.t[j].data(), 256);
        }
    }
    return rec;
}

} // namespace

comp::ConfiguredCodec
writerCodec(const LosslessParams &pipeline)
{
    comp::ConfiguredCodec codec = comp::makeCodec(pipeline.codec);
    // writeContainerInfo's limit, enforced up front so a bad spec fails
    // at construction rather than after everything has been compressed.
    ATC_CHECK(codec.spec.size() < 256,
              "codec spec too long for INFO preamble");
    const uint64_t block = codec.blockOr(pipeline.codec_block);
    ATC_CHECK(block <= comp::kMaxFrameRawSize,
              "codec block of " + std::to_string(block) +
                  " bytes exceeds the frame limit of " +
                  std::to_string(comp::kMaxFrameRawSize) + " bytes");
    return codec;
}

void
applyContainerVersion(uint8_t version, LosslessParams &pipeline)
{
    ATC_CHECK(version >= kMinContainerVersion &&
                  version <= kContainerVersion,
              "unsupported ATC container version " +
                  std::to_string(version));
    pipeline.frame_format = version >= 3 ? comp::FrameFormat::Seekable
                                         : comp::FrameFormat::Legacy;
    pipeline.crc_trailer = version >= 2;
}

void
writeContainerInfo(ChunkStore &store, const comp::ConfiguredCodec &codec,
                   uint8_t version, Mode mode,
                   const LosslessParams &pipeline, uint64_t count,
                   const LossyParams *lossy, uint64_t chunks_created,
                   const std::vector<IntervalRecord> *records)
{
    ATC_CHECK(version >= kMinContainerVersion &&
                  version <= kContainerVersion,
              "unsupported ATC container version " +
                  std::to_string(version));
    auto info = store.createInfo();

    // Uncompressed preamble. The canonical codec spec is persisted so a
    // reader reconstructs the exact codec configuration on open.
    info->write(reinterpret_cast<const uint8_t *>(kMagic), 4);
    info->writeByte(version);
    info->writeByte(static_cast<uint8_t>(mode));
    writeString(*info, codec.spec);

    // Compressed payload — always legacy-framed, whatever the chunk
    // streams use: it is tiny and read serially on open.
    comp::StreamCompressor payload(*codec.codec, *info,
                                   codec.blockOr(pipeline.codec_block),
                                   comp::FrameFormat::Legacy);
    // The mode is echoed inside the CRC-protected payload so that a
    // corrupted preamble cannot silently reinterpret the container.
    payload.writeByte(static_cast<uint8_t>(mode));
    payload.writeByte(static_cast<uint8_t>(pipeline.transform));
    util::writeVarint(payload, pipeline.buffer_addrs);
    util::writeVarint(payload, count);
    if (mode == Mode::Lossy) {
        ATC_ASSERT(lossy != nullptr && records != nullptr);
        util::writeVarint(payload, lossy->interval_len);
        util::writeLE<uint64_t>(
            payload, std::bit_cast<uint64_t>(lossy->epsilon));
        util::writeVarint(payload, chunks_created);
        util::writeVarint(payload, records->size());
        for (const IntervalRecord &rec : *records)
            writeRecord(payload, rec);
    }
    payload.finish();
    info->flush();
}

ContainerInfo
readContainerInfo(ChunkStore &store)
{
    auto info = store.openInfo();
    ContainerInfo out;

    char magic[4];
    info->readExact(reinterpret_cast<uint8_t *>(magic), 4);
    ATC_CHECK(std::memcmp(magic, kMagic, 4) == 0, "not an ATC container");
    uint8_t version;
    info->readExact(&version, 1);
    ATC_CHECK(version >= kMinContainerVersion &&
                  version <= kContainerVersion,
              "unsupported ATC container version " +
                  std::to_string(version));
    out.version = version;
    uint8_t mode;
    info->readExact(&mode, 1);
    ATC_CHECK(mode <= 1, "corrupt ATC container mode");
    out.mode = static_cast<Mode>(mode);
    out.codec_spec = readString(*info);

    auto cc = comp::CodecRegistry::instance().create(out.codec_spec);
    if (!cc.ok())
        util::raise("cannot reconstruct container codec: " +
                    cc.status().message());
    comp::ConfiguredCodec codec = cc.take();

    comp::StreamDecompressor payload(*codec.codec, *info,
                                     comp::FrameFormat::Legacy);
    uint8_t mode_echo;
    payload.readExact(&mode_echo, 1);
    ATC_CHECK(mode_echo == mode,
              "ATC container mode mismatch (corrupt preamble)");
    uint8_t transform;
    payload.readExact(&transform, 1);
    ATC_CHECK(transform <= 3, "corrupt ATC transform id");

    out.pipeline.transform = static_cast<Transform>(transform);
    out.pipeline.buffer_addrs =
        static_cast<size_t>(util::readVarint(payload));
    // Zero would divide the seek geometry by zero, and bytesort ranks
    // a buffer's records with 32-bit indices, so no valid container
    // holds a larger buffer; the bound also keeps 8 * B from wrapping.
    ATC_CHECK(out.pipeline.buffer_addrs != 0 &&
                  out.pipeline.buffer_addrs <= (uint64_t(1) << 32),
              "corrupt ATC transform buffer size");
    out.pipeline.codec = codec.spec;
    // The version decides how the chunk streams are framed, so every
    // consumer of this pipeline (serial, parallel, per-chunk lossy)
    // sees the right layout.
    applyContainerVersion(version, out.pipeline);
    out.count = util::readVarint(payload);

    if (out.mode == Mode::Lossless)
        return out;

    out.interval_len = util::readVarint(payload);
    out.epsilon = std::bit_cast<double>(util::readLE<uint64_t>(payload));
    out.chunk_count = util::readVarint(payload);
    uint64_t record_count = util::readVarint(payload);
    out.records.reserve(record_count);
    for (uint64_t i = 0; i < record_count; ++i) {
        out.records.push_back(readRecord(payload));
        ATC_CHECK(out.records.back().chunk_id < out.chunk_count,
                  "interval record references unknown chunk");
    }
    return out;
}

std::string
containerSuffix(const std::string &spec)
{
    auto parsed = comp::CodecSpec::parse(spec);
    if (!parsed.ok())
        util::raise(parsed.status().message());
    // Full registry construction, not just grammar: an unknown codec
    // or bad parameter must fail before the caller touches the disk.
    auto cc = comp::CodecRegistry::instance().create(parsed.value());
    if (!cc.ok())
        util::raise(cc.status().message());
    return parsed.value().name;
}

std::string
detectContainerSuffix(const std::string &dir)
{
    namespace fs = std::filesystem;

    // Every filesystem call goes through the error_code overloads so a
    // racing delete or permission change surfaces as util::Error, not
    // as an fs::filesystem_error escaping the Status boundary.
    std::vector<std::string> suffixes;
    std::error_code ec;
    fs::directory_iterator it(dir, ec), end;
    ATC_CHECK(!ec, "cannot read trace directory " + dir);
    for (; it != end; it.increment(ec)) {
        std::error_code entry_ec;
        if (!it->is_regular_file(entry_ec) || entry_ec)
            continue;
        std::string fn = it->path().filename().string();
        if (fn.rfind("INFO.", 0) == 0 && fn.size() > 5)
            suffixes.push_back(fn.substr(5));
    }
    // An increment error ends the loop with ec set (it becomes end()).
    ATC_CHECK(!ec, "cannot read trace directory " + dir);
    ATC_CHECK(!suffixes.empty(),
              "no INFO.<suffix> file in " + dir +
                  " (not an ATC container?)");
    if (suffixes.size() == 1)
        return suffixes.front();

    std::vector<std::string> matching;
    for (const std::string &suffix : suffixes) {
        try {
            util::FileSource info(dir + "/INFO." + suffix);
            char magic[4];
            info.readExact(reinterpret_cast<uint8_t *>(magic), 4);
            if (std::memcmp(magic, kMagic, 4) != 0)
                continue;
            uint8_t skip[2]; // version, mode
            info.readExact(skip, 2);
            auto parsed = comp::CodecSpec::parse(readString(info));
            if (parsed.ok() && parsed.value().name == suffix)
                matching.push_back(suffix);
        } catch (const util::Error &) {
            // Unreadable candidate; keep looking.
        }
    }
    ATC_CHECK(!matching.empty(),
              "no readable ATC container among the INFO.* files in " +
                  dir);
    ATC_CHECK(matching.size() == 1,
              "ambiguous container: several INFO.* files in " + dir +
                  "; pass an explicit suffix");
    return matching.front();
}

} // namespace atc::core
