/**
 * @file
 * Zero-copy mmap view over a serialised trace file.
 *
 * A TraceView maps a v3 trace file (see trace_format.h) read-only into
 * the address space and serves its batch records as one span pointing
 * straight into the mapping -- warm-starting a paper-scale sweep costs
 * one mmap plus header validation instead of regenerating (or even
 * rereading) gigabytes of IDs. The header is fully validated at open()
 * time, including an exact file-size check, so the records span can
 * never run off the mapping. This is the one reader of
 * the trace format: the trace cache, replay and every saved-trace
 * consumer go through it.
 */

#ifndef SP_DATA_TRACE_VIEW_H
#define SP_DATA_TRACE_VIEW_H

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/status.h"
#include "data/trace.h"

namespace sp::data
{

/** Read-only mmap over one trace file; immutable once opened. */
class TraceView
{
  public:
    /**
     * Map `path` and validate its header. Throws StatusError
     * classifying the failure: NotFound (missing file), Corrupt /
     * Truncated / VersionMismatch (validation), IoError (stat/mmap).
     */
    static std::shared_ptr<TraceView> open(const std::string &path);

    /** open() with the failure as a Result instead of an exception. */
    static sp::Result<std::shared_ptr<TraceView>>
    tryOpen(const std::string &path);

    ~TraceView();
    TraceView(const TraceView &) = delete;
    TraceView &operator=(const TraceView &) = delete;

    const std::string &path() const { return path_; }
    const TraceConfig &config() const { return config_; }
    uint64_t numBatches() const { return num_batches_; }

    /** The numBatches() batch records, back to back: a span into the
     *  mapping (8-aligned by the format's construction). */
    std::span<const uint64_t> records() const { return records_; }

  private:
    TraceView() = default;

    std::string path_;
    TraceConfig config_;
    uint64_t num_batches_ = 0;
    std::span<const uint64_t> records_;
    const unsigned char *data_ = nullptr;
    uint64_t size_ = 0;
};

} // namespace sp::data

#endif // SP_DATA_TRACE_VIEW_H
