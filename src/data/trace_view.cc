#include "data/trace_view.h"

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/logging.h"
#include "common/status.h"
#include "data/trace_format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace sp::data
{

std::shared_ptr<TraceView>
TraceView::open(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    failIf(fd < 0,
           errno == ENOENT ? ErrorCode::NotFound : ErrorCode::IoError,
           "cannot open '", path, "' for mapping");

    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        failWith(ErrorCode::IoError, "cannot stat '", path, "'");
    }
    const uint64_t size = static_cast<uint64_t>(st.st_size);
    void *mapping = MAP_FAILED;
    try {
        SP_FAULT_POINT("trace_view.mmap");
        mapping = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    } catch (...) {
        // An injected mmap fault must not leak the descriptor.
        ::close(fd);
        throw;
    }
    // The mapping outlives the descriptor.
    ::close(fd);
    failIf(mapping == MAP_FAILED, ErrorCode::IoError, "mmap of '",
           path, "' (", size, " bytes) failed");

    // From here the mapping must be released on any validation
    // failure; shared_ptr + ~TraceView handles both paths.
    std::shared_ptr<TraceView> view(new TraceView());
    view->path_ = path;
    view->data_ = static_cast<const unsigned char *>(mapping);
    view->size_ = size;

    const format::TraceFileHeader header =
        format::parseHeader(view->data_, size, path);
    format::validateHeader(header, size, path);
    view->config_ = header.config;
    view->num_batches_ = header.num_batches;
    // validateHeader proved the batch count against the file size;
    // re-derive the size from the offset arithmetic ids() will use,
    // so the validator and the accessors can never drift apart (every
    // span served below is inside the mapping iff this holds).
    SP_ASSERT(format::headerBytes(view->config_) +
                      header.num_batches *
                          format::batchRecordBytes(view->config_) ==
                  size,
              "trace '", path, "': accessor arithmetic disagrees with "
              "the validated file size ", size);
    return view;
}

sp::Result<std::shared_ptr<TraceView>>
TraceView::tryOpen(const std::string &path)
{
    try {
        return TraceView::open(path);
    } catch (const StatusError &e) {
        return e.status();
    } catch (const FatalError &e) {
        return Status::error(ErrorCode::IoError, e.what());
    }
}

TraceView::~TraceView()
{
    if (data_ != nullptr)
        ::munmap(const_cast<unsigned char *>(data_), size_);
}

uint64_t
TraceView::batchIndex(uint64_t b) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(b >= num_batches_, "batch index ", b, " out of range (",
            num_batches_, " batches in '", path_, "')");
    uint64_t index = 0;
    std::memcpy(&index,
                data_ + format::headerBytes(config_) +
                    b * format::batchRecordBytes(config_),
                sizeof(index));
    return index;
}

std::span<const uint64_t>
TraceView::ids(uint64_t b, uint64_t t) const
{
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(b >= num_batches_, "batch index ", b, " out of range (",
            num_batches_, " batches in '", path_, "')");
    // splint:allow(io-status): caller-bug bounds check, not I/O
    panicIf(t >= config_.num_tables, "table index ", t,
            " out of range (", config_.num_tables, " tables in '",
            path_, "')");
    // The ID payload is 8-aligned by the format's construction (see
    // trace_format.h), so the reinterpret_cast is well-defined here.
    SP_ASSERT(format::idsOffset(config_, b, t) +
                      config_.idsPerTable() * sizeof(uint64_t) <=
                  size_,
              "ids span of batch ", b, " table ", t, " overruns '",
              path_, "' (", size_, " bytes)");
    const unsigned char *base = data_ + format::idsOffset(config_, b, t);
    return {reinterpret_cast<const uint64_t *>(base),
            config_.idsPerTable()};
}

} // namespace sp::data
