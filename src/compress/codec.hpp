/**
 * @file
 * Block codec interface, parameterized codec specs, and the codec
 * registry.
 *
 * The original ATC tool delegated byte-level compression to an external
 * command ("bzip2 -c"); this library replaces that seam with a Codec
 * interface and a factory registry, so chunk compression stays pluggable
 * without forking processes and without touching core code to add a
 * back end.
 *
 * Codecs are addressed by *specs*: `name[:key=value[,key=value]...]`,
 * e.g. "bwc", "lzh", "store", "bwc:block=900k". The spec is serialized
 * into the container's INFO preamble, so a reader reconstructs the
 * exact codec configuration the writer used. Size-valued parameters
 * accept k/m/g suffixes (binary: KiB/MiB/GiB).
 */

#ifndef ATC_COMPRESS_CODEC_HPP_
#define ATC_COMPRESS_CODEC_HPP_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/bytestream.hpp"
#include "util/status.hpp"

namespace atc::comp {

/** Default framing block size: 1 MiB, the scale of a bzip2 -9 block. */
constexpr size_t kDefaultBlockSize = 1u << 20;

/** Largest credible decompressed frame (far above any block size). */
constexpr uint64_t kMaxFrameRawSize = uint64_t(1) << 30;

/**
 * A whole-block byte compressor.
 *
 * compressBlock writes a self-contained representation of one block;
 * decompressBlock reads exactly one such representation back. Framing
 * (block sizes, end of stream) is the caller's job — see stream.hpp.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** @return registry name of this codec ("bwc", "lzh", "store"). */
    virtual std::string name() const = 0;

    /**
     * Compress one block.
     * @param data block contents
     * @param n    block size in bytes
     * @param out  sink receiving the compressed representation
     */
    virtual void compressBlock(const uint8_t *data, size_t n,
                               util::ByteSink &out) const = 0;

    /**
     * Decompress one block previously written by compressBlock.
     * @param in       source positioned at the block representation
     * @param raw_size original block size (from the stream framing)
     * @param out      receives exactly raw_size bytes
     */
    virtual void decompressBlock(util::ByteSource &in, size_t raw_size,
                                 std::vector<uint8_t> &out) const = 0;
};

/**
 * A parsed codec spec: a registry name plus key=value parameters.
 *
 * Grammar: `name[:key=value[,key=value]...]` with nonempty name, keys
 * and values; duplicate keys are rejected. toString() produces the
 * canonical form (parameters in parse order), which is what containers
 * persist.
 */
struct CodecSpec
{
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    /** Parse @p spec; returns an error status on malformed input. */
    static util::StatusOr<CodecSpec> parse(const std::string &spec);

    /** @return the canonical spec string. */
    std::string toString() const;

    /** @return the value of @p key, or nullptr if absent. */
    const std::string *find(const std::string &key) const;

    /**
     * Parse parameter @p key as a byte size (optional k/m/g suffix,
     * binary multipliers). @return @p fallback when the key is absent,
     * an error status when present but malformed or zero.
     */
    util::StatusOr<size_t> sizeParam(const std::string &key,
                                     size_t fallback) const;
};

/** A codec instance constructed from a spec, plus framing knobs. */
struct ConfiguredCodec
{
    /** The codec; shared so stateless codecs can be cached. */
    std::shared_ptr<const Codec> codec;
    /** Framing block size from a `block=` parameter; 0 = unspecified. */
    size_t block_size = 0;
    /** Canonical spec string (what the INFO preamble records). */
    std::string spec;

    /** @return block_size, or @p fallback if the spec set none. */
    size_t
    blockOr(size_t fallback) const
    {
        return block_size != 0 ? block_size : fallback;
    }
};

/**
 * Factory registry mapping codec names to constructors.
 *
 * The built-in codecs ("bwc", "lzh", "store") are pre-registered;
 * add() extends the registry at runtime without touching core code.
 */
class CodecRegistry
{
  public:
    /**
     * Build a codec from the (name-stripped) parameters of a spec.
     * The common `block=` parameter is consumed by the registry before
     * the factory runs; factories must reject parameters they do not
     * understand.
     */
    using Factory = std::function<
        util::StatusOr<std::shared_ptr<const Codec>>(const CodecSpec &)>;

    /** @return the process-wide registry. */
    static CodecRegistry &instance();

    /** Register @p factory under @p name (replaces an existing entry). */
    void add(const std::string &name, Factory factory);

    /** @return true if @p name is registered. */
    bool has(const std::string &name) const;

    /** @return all registered names, sorted. */
    std::vector<std::string> names() const;

    /** Parse @p spec and construct the configured codec. */
    util::StatusOr<ConfiguredCodec> create(const std::string &spec) const;

    /** Construct the configured codec for an already-parsed spec. */
    util::StatusOr<ConfiguredCodec> create(const CodecSpec &spec) const;

  private:
    CodecRegistry();

    /** Guards factories_: add() may race with create()/has()/names(). */
    mutable std::mutex mutex_;
    std::map<std::string, Factory> factories_;
};

/**
 * Convenience: build a codec from @p spec via the registry.
 * @throws util::Error on malformed specs or unknown codecs.
 */
ConfiguredCodec makeCodec(const std::string &spec);

/**
 * Look up a shared default-configured codec by plain name.
 * Kept for call sites that only need an unparameterized instance
 * (benches, one-shot helpers); new code should prefer makeCodec().
 * @throws util::Error for unknown names.
 */
const Codec &codecByName(const std::string &name);

/** "store": the identity codec (useful for tests and calibration). */
class StoreCodec : public Codec
{
  public:
    std::string name() const override { return "store"; }
    void compressBlock(const uint8_t *data, size_t n,
                       util::ByteSink &out) const override;
    void decompressBlock(util::ByteSource &in, size_t raw_size,
                         std::vector<uint8_t> &out) const override;
};

} // namespace atc::comp

#endif // ATC_COMPRESS_CODEC_HPP_
