#include "trace/inst_source.hh"

#include <algorithm>

namespace sharch {

StreamingTraceSource::StreamingTraceSource(const TraceGenerator &gen,
                                           std::uint64_t limit,
                                           unsigned thread_id)
    : cursor_(gen, thread_id), limit_(limit)
{
    buffer_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(limit, kBufferInsts)));
}

StreamingTraceSource::StreamingTraceSource(
    std::shared_ptr<const TraceGenerator> gen, std::uint64_t limit,
    unsigned thread_id)
    : owned_(std::move(gen)), cursor_(*owned_, thread_id),
      limit_(limit)
{
    SHARCH_ASSERT(owned_ != nullptr,
                  "streaming source needs a generator");
    buffer_.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(limit, kBufferInsts)));
}

bool
StreamingTraceSource::refill()
{
    if (produced_ >= limit_)
        return false;
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        limit_ - produced_, kBufferInsts));
    buffer_.resize(n);
    cursor_.emit(buffer_.data(), n);
    produced_ += n;
    setWindow(buffer_.data(), buffer_.data() + n);
    return true;
}

std::vector<std::unique_ptr<InstSource>>
streamSources(std::shared_ptr<const TraceGenerator> gen,
              std::uint64_t instructions_per_thread)
{
    SHARCH_ASSERT(gen != nullptr, "streamSources needs a generator");
    const unsigned threads =
        gen->profile().multithreaded ? gen->profile().numThreads : 1;
    std::vector<std::unique_ptr<InstSource>> sources;
    sources.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        sources.push_back(std::make_unique<StreamingTraceSource>(
            gen, instructions_per_thread, t));
    return sources;
}

} // namespace sharch
