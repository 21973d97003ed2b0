#include "data/trace_view.h"

#include <cerrno>

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
    // re-derive the size from the record arithmetic records() uses,
    // so the validator and the accessor can never drift apart (the
    // span served below is inside the mapping iff this holds).
    const uint64_t header_bytes = format::headerBytes(view->config_);
    const uint64_t record_bytes = format::batchRecordBytes(view->config_);
    SP_ASSERT(header_bytes + header.num_batches * record_bytes == size,
              "trace '", path, "': record arithmetic disagrees with "
              "the validated file size ", size);
    // The header is a multiple of 8 bytes, so the records are 8-aligned
    // in the page-aligned mapping and the reinterpret_cast is sound.
    view->records_ = {
        reinterpret_cast<const uint64_t *>(view->data_ + header_bytes),
        header.num_batches * record_bytes / sizeof(uint64_t)};
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

} // namespace sp::data
