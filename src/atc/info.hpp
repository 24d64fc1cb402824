/**
 * @file
 * The container INFO wire format, factored out of the serial driver so
 * every pipeline driver (AtcWriter and the parallel writer/reader in
 * src/parallel/) produces and parses byte-identical metadata.
 *
 * Layout: an uncompressed preamble (magic, version, mode, codec spec)
 * followed by a codec-compressed payload holding the pipeline
 * parameters, the address count and — in lossy mode — the interval
 * trace (chunk/imitate records with byte translations).
 *
 * Version history:
 *  - v1: PR 1 layout.
 *  - v2: chunk streams carry a CRC-32 trailer of the decompressed
 *        payload (see LosslessWriter); INFO itself is unchanged, but
 *        the version byte is bumped so v1 readers do not misparse.
 *  - v3: chunk streams use seekable framing — every frame header also
 *        records the compressed byte length, and each stream ends with
 *        a frame index before the CRC trailer — so readers can locate
 *        frame boundaries without decoding and decode blocks in
 *        parallel. The INFO payload itself stays legacy-framed in all
 *        versions (it is tiny and always read serially).
 *
 * Readers accept every version in [kMinContainerVersion,
 * kContainerVersion]; writers pick one via AtcOptions.container_version
 * (default kContainerVersion).
 */

#ifndef ATC_ATC_INFO_HPP_
#define ATC_ATC_INFO_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "atc/container.hpp"
#include "atc/lossless.hpp"
#include "atc/lossy.hpp"
#include "compress/codec.hpp"

namespace atc::core {

/** Compression mode ('c' vs 'k' in the original tool). */
enum class Mode : uint8_t
{
    Lossless = 0,
    Lossy = 1,
};

/** Oldest container version readers still accept. */
constexpr uint8_t kMinContainerVersion = 1;

/** Newest container version; the default for writers. */
constexpr uint8_t kContainerVersion = 3;

/**
 * Build a writer's codec from @p pipeline and check it before anything
 * is created: the canonical spec must fit INFO's preamble (under 256
 * bytes), and the codec block (the spec's `block=`, else
 * pipeline.codec_block) must be at most comp::kMaxFrameRawSize, the
 * largest frame a reader accepts.
 * @throws util::Error naming the limit exceeded
 */
comp::ConfiguredCodec writerCodec(const LosslessParams &pipeline);

/**
 * Map @p version onto the chunk-stream layout knobs of @p pipeline
 * (frame format, CRC trailer presence).
 * @throws util::Error on a version outside the supported range
 */
void applyContainerVersion(uint8_t version, LosslessParams &pipeline);

/** Everything a reader learns from a container's INFO stream. */
struct ContainerInfo
{
    /** Container format version (1..kContainerVersion). */
    uint8_t version = kContainerVersion;
    Mode mode = Mode::Lossless;
    /** Canonical codec spec recorded in the preamble. */
    std::string codec_spec;
    /** Transform + codec pipeline (codec holds the canonical spec). */
    LosslessParams pipeline;
    /** Total values in the trace. */
    uint64_t count = 0;

    // Lossy mode only.
    uint64_t interval_len = 0;
    double epsilon = 0.0;
    uint64_t chunk_count = 0;
    std::vector<IntervalRecord> records;
};

/**
 * Serialize and store the INFO stream.
 * @param store   destination container
 * @param codec   configured codec compressing the payload
 * @param version container format version to record (1..kContainerVersion)
 * @param mode    container mode
 * @param pipeline transform + codec parameters to persist
 * @param count   total values written
 * @param lossy   lossy parameters; required in lossy mode, else null
 * @param chunks_created number of chunks emitted (lossy mode)
 * @param records interval trace; required in lossy mode, else null
 * @throws util::Error on I/O failure, a bad version, or an over-long
 *         codec spec
 */
void writeContainerInfo(ChunkStore &store,
                        const comp::ConfiguredCodec &codec,
                        uint8_t version, Mode mode,
                        const LosslessParams &pipeline, uint64_t count,
                        const LossyParams *lossy, uint64_t chunks_created,
                        const std::vector<IntervalRecord> *records);

/**
 * Parse the INFO stream of @p store.
 * @throws util::Error on missing/corrupt/mismatched INFO data
 */
ContainerInfo readContainerInfo(ChunkStore &store);

/**
 * @return the codec *name* of @p spec, used as the chunk-file suffix
 * of directory containers. The spec is validated against the codec
 * registry first, so an unknown codec fails before any directory is
 * created on disk.
 * @throws util::Error on malformed specs or unknown codecs
 */
std::string containerSuffix(const std::string &spec);

/**
 * Auto-detect the chunk-file suffix of a directory container by
 * globbing for `INFO.<suffix>`. With several candidates (containers
 * sharing a directory), the one whose INFO-recorded codec name matches
 * its own suffix wins.
 * @throws util::Error when no unambiguous container is found
 */
std::string detectContainerSuffix(const std::string &dir);

} // namespace atc::core

#endif // ATC_ATC_INFO_HPP_
