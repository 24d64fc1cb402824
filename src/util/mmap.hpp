/**
 * @file
 * Memory-mapped file access: the zero-copy fast path under the
 * ByteSource seam.
 *
 * MappedFile is an RAII read-only mapping of a regular file; MmapSource
 * adapts one to the ByteSource interface, serving borrowed spans
 * through view() so frame decodes run straight off the page cache
 * instead of copying through stdio. openFileSource() is the policy
 * point: it tries to map and falls back to FileSource for anything
 * unmappable (pipes, stdin, special files, exotic filesystems), so
 * every consumer keeps working on every input.
 *
 * Borrowed spans stay valid for the mapping's lifetime, not the
 * source's position — pooled decoders that outlive the read loop pin
 * the mapping via viewKeepalive().
 */

#ifndef ATC_UTIL_MMAP_HPP_
#define ATC_UTIL_MMAP_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "util/bytestream.hpp"

namespace atc::util {

/** File-source selection policy (the CLI `--io` knob). */
enum class IoMode : uint8_t
{
    kMmap = 0, ///< map regular files, fall back to stdio (default)
    kStdio,    ///< always read through buffered stdio
};

/** Process-wide default consulted by DirectoryStore and the factory. */
IoMode defaultIoMode();

/** Set the process-wide default (CLI `--io` plumbing). */
void setDefaultIoMode(IoMode mode);

/** @return "mmap" or "stdio". */
const char *ioModeName(IoMode mode);

/** Parse "mmap"/"stdio" into @p out; false on anything else. */
bool parseIoMode(const std::string &text, IoMode &out);

/** Read-only memory mapping of one regular file. */
class MappedFile
{
  public:
    /**
     * Map @p path read-only. Returns nullptr when the file is not a
     * mappable regular file (missing, empty, a pipe/device, or the
     * platform lacks mmap) — callers fall back to FileSource.
     */
    static std::shared_ptr<const MappedFile> map(const std::string &path);

    ~MappedFile();

    MappedFile(const MappedFile &) = delete;
    MappedFile &operator=(const MappedFile &) = delete;

    /** @return start of the mapping. */
    const uint8_t *data() const { return data_; }

    /** @return mapped length in bytes. */
    size_t size() const { return size_; }

    /**
     * Borrow [off, off+len) of the mapping.
     * @return span start, or nullptr when the range is out of bounds
     */
    const uint8_t *
    view(uint64_t off, size_t len) const
    {
        if (off > size_ || len > size_ - off)
            return nullptr;
        return data_ + off;
    }

  private:
    MappedFile(const uint8_t *data, size_t size)
        : data_(data), size_(size)
    {}

    const uint8_t *data_;
    size_t size_;
};

/** ByteSource over a shared MappedFile; view() serves borrowed spans. */
class MmapSource : public ByteSource
{
  public:
    explicit MmapSource(std::shared_ptr<const MappedFile> file)
        : file_(std::move(file))
    {}

    size_t read(uint8_t *data, size_t n) override;

    /** O(1); throws Error when @p n runs past the end (like FileSource). */
    void skip(uint64_t n) override;

    const uint8_t *view(size_t n) override;

    const uint8_t *
    peek(size_t &n) override
    {
        n = remaining();
        return file_->data() + pos_;
    }

    std::shared_ptr<const void>
    viewKeepalive() const override
    {
        return file_;
    }

    /** @return bytes not yet consumed. */
    size_t remaining() const { return file_->size() - pos_; }

  private:
    std::shared_ptr<const MappedFile> file_;
    size_t pos_ = 0;
};

/**
 * Open @p path for reading under @p mode: kMmap maps the file and
 * falls back to stdio when mapping fails (counted in
 * io.mmap_fallbacks); kStdio always returns a FileSource. Throws
 * Error when the file cannot be opened at all.
 */
std::unique_ptr<ByteSource> openFileSource(const std::string &path,
                                           IoMode mode);

/** As above, under the process-wide default mode. */
std::unique_ptr<ByteSource> openFileSource(const std::string &path);

} // namespace atc::util

#endif // ATC_UTIL_MMAP_HPP_
