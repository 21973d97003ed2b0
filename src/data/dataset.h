/**
 * @file
 * Materialised training dataset with look-ahead.
 *
 * TraceDataset holds a trace recorded ahead of time and exposes the
 * capability the paper builds on: any consumer may inspect not only
 * the current mini-batch's sparse IDs but those of *future* batches.
 * The ScratchPipe [Plan] stage uses lookAhead() to build its future
 * window; the baseline systems simply iterate.
 *
 * The trace lives in one layout, the batch records of the on-disk
 * format (trace_format.h): a generated dataset fills an image of them
 * in memory, a mapped() one serves the records of an mmap'd TraceView
 * zero-copy. Either way every MiniBatch is a view into that image, and
 * save() writes the image out as it is.
 */

#ifndef SP_DATA_DATASET_H
#define SP_DATA_DATASET_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/trace.h"
#include "data/trace_view.h"

namespace sp::data
{

/** A fixed-length, fully materialised trace of mini-batches. */
class TraceDataset
{
  public:
    /** Generate `num_batches` mini-batches from `config`. */
    TraceDataset(const TraceConfig &config, uint64_t num_batches);

    /**
     * Serve batches zero-copy from an opened view. With `max_batches`
     * != 0 only the first min(max_batches, view batches) batches are
     * exposed (a longer cached trace serves any prefix).
     */
    explicit TraceDataset(std::shared_ptr<TraceView> view,
                          uint64_t max_batches = 0);

    const TraceConfig &config() const { return config_; }
    uint64_t numBatches() const { return batches_.size(); }

    /** The mini-batch at position `index` (0-based). */
    const MiniBatch &batch(uint64_t index) const;

    /**
     * Look-ahead access: the mini-batch `distance` iterations after
     * `index`, or nullptr when that runs past the end of the trace.
     * distance 0 is the batch itself.
     */
    const MiniBatch *lookAhead(uint64_t index, uint64_t distance) const;

    /** Dense features for batch `index` (functional runs). */
    tensor::Matrix denseFeatures(uint64_t index) const;

    /** Labels for batch `index` (functional runs). */
    tensor::Matrix labels(uint64_t index) const;

    /**
     * Serialise to a binary file. Environmental failures -- including
     * short writes only detected at the final flush/close, which must
     * never publish a silently truncated file -- come back as a
     * classified Status (NoSpace when the disk filled, IoError
     * otherwise). Never throws for I/O trouble.
     */
    sp::Status saveTo(const std::string &path) const;

    /** saveTo(), but throwing StatusError on failure (legacy callers). */
    void save(const std::string &path) const;

    /**
     * Load a dataset previously written by save(): batches are served
     * straight from the file mapping (see TraceView). With
     * `max_batches` != 0 only that prefix is exposed. Throws
     * StatusError classifying the failure (NotFound/Truncated/
     * Corrupt/VersionMismatch/IoError).
     */
    static TraceDataset mapped(const std::string &path,
                               uint64_t max_batches = 0);

    /** mapped() with the failure as a Result instead of an exception. */
    static sp::Result<TraceDataset> tryMapped(const std::string &path,
                                              uint64_t max_batches = 0);

    /**
     * Replay adapter: ingest an externally recorded trace file whose
     * embedded config drives the run. Throws StatusError classifying
     * the failure exactly like mapped().
     */
    static TraceDataset replay(const std::string &path,
                               uint64_t max_batches = 0);

    /** replay() with the failure as a Result instead of an exception. */
    static sp::Result<TraceDataset> tryReplay(const std::string &path,
                                              uint64_t max_batches = 0);

    /** True when batches are served from an mmap'd view. */
    bool isMapped() const { return mapped_; }

  private:
    /** Point one MiniBatch at each of the first `num_batches` records
     *  of image_; a record whose index word is not its position is
     *  Corrupt (`source` names the trace in the diagnostic). */
    void viewRecords(uint64_t num_batches, const std::string &source);

    TraceConfig config_;
    TraceGenerator generator_;
    // The batch records: owned when generated, the file mapping's when
    // mapped. Shared so copies and moves keep every batch's view valid.
    std::shared_ptr<const uint64_t[]> image_;
    std::vector<MiniBatch> batches_;
    bool mapped_ = false;
};

} // namespace sp::data

#endif // SP_DATA_DATASET_H
