#include "atc/atc.hpp"

#include "atc/info.hpp"
#include "util/status.hpp"

namespace atc::core {

AtcWriter::AtcWriter(ChunkStore &store, const AtcOptions &options)
    : codec_(writerCodec(options.pipeline)), store_(&store),
      options_(options)
{
    applyContainerVersion(options_.container_version, options_.pipeline);
    options_.lossy.chunk_params = options_.pipeline;
    if (options_.mode == Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        lossless_ = std::make_unique<LosslessWriter>(options_.pipeline,
                                                     *chunk_sink_);
    } else {
        lossy_ = std::make_unique<LossyEncoder>(options_.lossy, *store_);
    }
}

AtcWriter::AtcWriter(const std::string &dir, const AtcOptions &options)
    : codec_(writerCodec(options.pipeline)),
      owned_store_(std::make_unique<DirectoryStore>(
          dir, containerSuffix(options.pipeline.codec))),
      store_(owned_store_.get()), options_(options)
{
    applyContainerVersion(options_.container_version, options_.pipeline);
    options_.lossy.chunk_params = options_.pipeline;
    if (options_.mode == Mode::Lossless) {
        chunk_sink_ = store_->createChunk(0);
        lossless_ = std::make_unique<LosslessWriter>(options_.pipeline,
                                                     *chunk_sink_);
    } else {
        lossy_ = std::make_unique<LossyEncoder>(options_.lossy, *store_);
    }
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(ChunkStore &store, const AtcOptions &options)
{
    try {
        return std::make_unique<AtcWriter>(store, options);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::unique_ptr<AtcWriter>>
AtcWriter::open(const std::string &dir, const AtcOptions &options)
{
    try {
        return std::make_unique<AtcWriter>(dir, options);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

AtcWriter::~AtcWriter() = default;

void
AtcWriter::write(const uint64_t *vals, size_t n)
{
    ATC_ASSERT(!closed_);
    if (lossless_)
        lossless_->write(vals, n);
    else
        lossy_->write(vals, n);
    count_ += n;
}

const LossyStats &
AtcWriter::lossyStats() const
{
    ATC_CHECK(lossy_ != nullptr, "lossyStats requires lossy mode");
    return lossy_->stats();
}

void
AtcWriter::writeInfo()
{
    if (options_.mode == Mode::Lossless) {
        writeContainerInfo(*store_, codec_, options_.container_version,
                           options_.mode, options_.pipeline, count_,
                           nullptr, 0, nullptr);
    } else {
        writeContainerInfo(*store_, codec_, options_.container_version,
                           options_.mode, options_.pipeline, count_,
                           &options_.lossy,
                           lossy_->stats().chunks_created,
                           &lossy_->records());
    }
}

void
AtcWriter::close()
{
    if (closed_)
        return;
    if (lossless_) {
        lossless_->finish();
        chunk_sink_->flush();
    } else {
        lossy_->finish();
    }
    writeInfo();
    closed_ = true;
}

util::Status
AtcWriter::tryClose()
{
    try {
        close();
        return util::Status();
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

namespace {

IndexOptions
indexOptions(size_t cache_bytes)
{
    IndexOptions iopt;
    iopt.cache_bytes = cache_bytes;
    return iopt;
}

} // namespace

AtcReader::AtcReader(ChunkStore &store, size_t cache_bytes)
    : index_(AtcIndex::openOrThrow(store, indexOptions(cache_bytes))),
      cursor_(index_->cursor())
{
}

AtcReader::AtcReader(const std::string &dir, size_t cache_bytes)
    : index_(AtcIndex::openOrThrow(
          std::make_unique<DirectoryStore>(dir,
                                           detectContainerSuffix(dir)),
          indexOptions(cache_bytes))),
      cursor_(index_->cursor())
{
}

AtcReader::AtcReader(const std::string &dir, const std::string &suffix,
                     size_t cache_bytes)
    : index_(AtcIndex::openOrThrow(
          std::make_unique<DirectoryStore>(dir, suffix),
          indexOptions(cache_bytes))),
      cursor_(index_->cursor())
{
}

util::StatusOr<std::unique_ptr<AtcReader>>
AtcReader::open(ChunkStore &store, size_t cache_bytes)
{
    try {
        return std::make_unique<AtcReader>(store, cache_bytes);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

util::StatusOr<std::unique_ptr<AtcReader>>
AtcReader::open(const std::string &dir, size_t cache_bytes)
{
    try {
        return std::make_unique<AtcReader>(dir, cache_bytes);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

AtcReader::~AtcReader() = default;

size_t
AtcReader::read(uint64_t *out, size_t n)
{
    // Sequential decode is a cursor that starts at record 0 and never
    // seeks; the cursor also enforces the truncation check (a clean
    // end before the INFO-recorded count fails loudly).
    return cursor_->read(out, n);
}

util::StatusOr<size_t>
AtcReader::tryRead(uint64_t *out, size_t n)
{
    try {
        return read(out, n);
    } catch (const util::Error &e) {
        return util::Status::error(e.what());
    }
}

} // namespace atc::core
