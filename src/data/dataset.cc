#include "data/dataset.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <fstream>
#include <memory>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/trace_format.h"

namespace sp::data
{

TraceDataset::TraceDataset(const TraceConfig &config, uint64_t num_batches)
    : config_(config), generator_(config)
{
    fatalIf(num_batches == 0, "dataset needs at least one batch");
    const uint64_t words = 1 + config_.idsPerBatch(); // index + IDs
    fatalIf(num_batches > SIZE_MAX / sizeof(uint64_t) / words,
            "a trace of ", num_batches, " batches does not fit in memory");
    // Each batch is an independent seeded stream (deterministic per
    // index, see trace.h), so generation parallelises with
    // bit-identical results: worker i only writes record i. The image
    // is not zero-filled first, so each page is first touched by the
    // worker that generates into it.
    std::shared_ptr<uint64_t[]> image =
        std::make_unique_for_overwrite<uint64_t[]>(num_batches * words);
    common::parallelFor(num_batches, [&](size_t i) {
        uint64_t *record = image.get() + i * words;
        record[0] = i;
        generator_.makeBatch(i, {record + 1, words - 1});
    });
    image_ = std::move(image);
    viewRecords(num_batches, "generated trace");
}

TraceDataset::TraceDataset(std::shared_ptr<TraceView> view,
                           uint64_t max_batches)
    : config_(view->config()), generator_(view->config()),
      image_(view, view->records().data()), mapped_(true)
{
    // Warm start: no ID bytes move; image_ shares ownership of the
    // mapping and points at its records.
    viewRecords(max_batches == 0
                    ? view->numBatches()
                    : std::min<uint64_t>(max_batches, view->numBatches()),
                view->path());
}

void
TraceDataset::viewRecords(uint64_t num_batches, const std::string &source)
{
    const uint64_t words = 1 + config_.idsPerBatch(); // index + IDs
    // Reading the index word faults in one page per mapped batch; that
    // is deliberate: an entry with scribbled interior indices must be
    // detected here, where TraceStore can still classify it as a miss
    // and regenerate, not as a panic in the middle of a simulation.
    batches_.resize(num_batches);
    for (uint64_t b = 0; b < num_batches; ++b) {
        const uint64_t *record = image_.get() + b * words;
        failIf(record[0] != b, ErrorCode::Corrupt, "'", source,
               "' stores batch index ", record[0], " at position ", b,
               "; the file is corrupt");
        batches_[b] = {b, config_.batch_size, config_.lookups_per_table,
                       {record + 1, words - 1}};
    }
}

const MiniBatch &
TraceDataset::batch(uint64_t index) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(index >= batches_.size(), "batch index ", index,
            " out of range (", batches_.size(), " batches)");
    return batches_[index];
}

const MiniBatch *
TraceDataset::lookAhead(uint64_t index, uint64_t distance) const
{
    // distance is caller-controlled (future-window sweeps); index +
    // distance could wrap and alias a stale in-range batch, so bound
    // the distance against the remaining trace instead of summing.
    if (index >= batches_.size())
        return nullptr;
    if (distance >= batches_.size() - index)
        return nullptr;
    return &batches_[index + distance];
}

tensor::Matrix
TraceDataset::denseFeatures(uint64_t index) const
{
    return generator_.makeDenseFeatures(index);
}

tensor::Matrix
TraceDataset::labels(uint64_t index) const
{
    return generator_.makeLabels(index);
}

namespace
{

/** Classify a failed write by errno: a full disk is the one cause
 *  callers degrade differently for (it clears on its own; retrying a
 *  corrupt path never will). */
sp::Status
writeFailure(const std::string &path, const char *stage)
{
    const ErrorCode code =
        errno == ENOSPC ? ErrorCode::NoSpace : ErrorCode::IoError;
    return Status::error(code, std::string("I/O error while ") + stage +
                                   " '" + path + "'");
}

} // namespace

sp::Status
TraceDataset::saveTo(const std::string &path) const
{
    errno = 0;
    std::ofstream os(path, std::ios::binary);
    if (!os)
        return writeFailure(path, "opening");

    try {
        format::writeHeader(os, config_, numBatches());
        SP_FAULT_POINT("dataset.save.write");
        os.write(reinterpret_cast<const char *>(image_.get()),
                 static_cast<std::streamsize>(
                     numBatches() * format::batchRecordBytes(config_)));
    } catch (const StatusError &e) {
        return e.status();
    }
    // Durability: a full disk or short write may only surface at
    // flush/close time; check both so a truncated file is reported
    // here rather than as a corruption error at some later mapped().
    os.flush();
    if (!os)
        return writeFailure(path, "writing");
    os.close();
    if (os.fail())
        return writeFailure(path, "closing");
    return sp::Status();
}

void
TraceDataset::save(const std::string &path) const
{
    const sp::Status status = saveTo(path);
    if (!status.ok())
        throw StatusError(status);
}

TraceDataset
TraceDataset::mapped(const std::string &path, uint64_t max_batches)
{
    return TraceDataset(TraceView::open(path), max_batches);
}

TraceDataset
TraceDataset::replay(const std::string &path, uint64_t max_batches)
{
    // Replay adapter: the file's embedded config drives the run, so a
    // recorded trace flows through every system and harness exactly
    // like a generated one.
    SP_FAULT_POINT("dataset.replay.open");
    return mapped(path, max_batches);
}

sp::Result<TraceDataset>
TraceDataset::tryReplay(const std::string &path, uint64_t max_batches)
{
    try {
        return TraceDataset::replay(path, max_batches);
    } catch (const StatusError &e) {
        return e.status();
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::IoError, e.what());
    }
}

sp::Result<TraceDataset>
TraceDataset::tryMapped(const std::string &path, uint64_t max_batches)
{
    try {
        return TraceDataset::mapped(path, max_batches);
    } catch (const StatusError &e) {
        return e.status();
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::IoError, e.what());
    }
}

} // namespace sp::data
