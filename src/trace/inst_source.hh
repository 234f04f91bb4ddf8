/**
 * @file
 * Pull-based instruction sources: the streaming trace pipeline.
 *
 * Historically the simulator materialized every thread's full trace
 * into a std::vector<TraceInst> (32 B per instruction) before the
 * timing walk consumed it.  For single-pass consumers -- which is
 * every study sweep -- that costs a full write + read of the trace
 * through memory and makes resident trace storage scale with the
 * instruction budget.  InstSource inverts the flow: the consumer
 * *pulls* instructions, and the producer materializes at most a small
 * refill buffer.
 *
 * The API is deliberately streambuf-shaped: the hot path reads a
 * contiguous window() of instructions and consume()s them with zero
 * virtual calls per instruction; the single virtual, refill(), runs
 * once per buffer (every kBufferInsts instructions for the streaming
 * source).
 *
 * Determinism contract: for a given (profile, seed, thread id) and
 * instruction budget, StreamingTraceSource emits byte-for-byte the
 * sequence TraceGenerator::generate() materializes (see the Cursor
 * prefix-identity argument in trace/generator.hh).  generate() is the
 * reference the differential tests hold the stream to.
 */

#ifndef SHARCH_TRACE_INST_SOURCE_HH
#define SHARCH_TRACE_INST_SOURCE_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "trace/generator.hh"
#include "trace/instruction.hh"

namespace sharch {

/**
 * A bounded, single-pass instruction stream for one thread.
 *
 * Usage (hot loop):
 * @code
 *   std::size_t avail;
 *   while (const TraceInst *w = src.window(avail)) {
 *       for (std::size_t i = 0; i < avail; ++i)
 *           process(w[i]);
 *       src.consume(avail);
 *   }
 * @endcode
 *
 * next()/peek() are conveniences for callers that step one
 * instruction at a time; they sit on the same window machinery.
 */
class InstSource
{
  public:
    virtual ~InstSource() = default;

    InstSource(const InstSource &) = delete;
    InstSource &operator=(const InstSource &) = delete;

    /** True when the stream has no further instructions. */
    bool
    exhausted()
    {
        return cur_ != end_ ? false : !refillWindow();
    }

    /**
     * The current contiguous run of instructions, or nullptr at end
     * of stream.  @p avail receives the run length (0 at end).  The
     * pointer stays valid until the next consume() past the window,
     * skip(), or destruction.
     */
    const TraceInst *
    window(std::size_t &avail)
    {
        if (cur_ == end_ && !refillWindow()) {
            avail = 0;
            return nullptr;
        }
        avail = static_cast<std::size_t>(end_ - cur_);
        return cur_;
    }

    /** Advance past @p n instructions of the current window. */
    void
    consume(std::size_t n)
    {
        SHARCH_DCHECK(n <= static_cast<std::size_t>(end_ - cur_),
                      "consume past the current window");
        cur_ += n;
        consumed_ += n;
    }

    /** Next instruction without consuming it.  Requires !exhausted(). */
    const TraceInst &
    peek()
    {
        SHARCH_DCHECK(cur_ != end_ || !exhausted(),
                      "peek on an exhausted source");
        if (cur_ == end_)
            refillWindow();
        return *cur_;
    }

    /** Consume and return the next instruction.  Requires !exhausted(). */
    const TraceInst &
    next()
    {
        const TraceInst &inst = peek();
        ++cur_;
        ++consumed_;
        return inst;
    }

    /** Instructions consumed (or skipped) so far. */
    std::uint64_t consumed() const { return consumed_; }

    /**
     * Fast-forward past up to @p n instructions without timing them;
     * @return the number actually skipped (< n only at end of
     * stream).  This is the seam for sampled simulation: a functional
     * fast-forward consumes the skipped region here, keeping the RNG
     * stream aligned, then resumes detailed timing.
     */
    std::uint64_t
    skip(std::uint64_t n)
    {
        std::uint64_t skipped = 0;
        while (skipped < n) {
            if (cur_ == end_ && !refillWindow())
                break;
            const auto run = std::min<std::uint64_t>(
                n - skipped, static_cast<std::uint64_t>(end_ - cur_));
            cur_ += run;
            skipped += run;
        }
        consumed_ += skipped;
        return skipped;
    }

  protected:
    InstSource() = default;

    /**
     * Produce the next window.  Implementations call setWindow() with
     * a non-empty range and return true, or return false at end of
     * stream.  Called only when the previous window is fully consumed.
     */
    virtual bool refill() = 0;

    /** Publish @p begin .. @p end as the current window. */
    void
    setWindow(const TraceInst *begin, const TraceInst *end)
    {
        cur_ = begin;
        end_ = end;
    }

  private:
    bool
    refillWindow()
    {
        if (finished_)
            return false;
        if (!refill() || cur_ == end_) {
            finished_ = true;
            return false;
        }
        return true;
    }

    const TraceInst *cur_ = nullptr;
    const TraceInst *end_ = nullptr;
    std::uint64_t consumed_ = 0;
    bool finished_ = false;
};

/**
 * Streams a bounded prefix of one thread's random walk, generating
 * instructions on demand into a small refill buffer.  Resident state
 * is O(kBufferInsts) regardless of the instruction budget -- this is
 * what makes billion-instruction runs independent of trace memory.
 */
class StreamingTraceSource final : public InstSource
{
  public:
    /** Refill-buffer capacity in instructions (32 KB of TraceInst). */
    static constexpr std::size_t kBufferInsts = 1024;

    /**
     * Stream @p limit instructions of @p gen's walk for @p thread_id.
     * Borrows @p gen, which must outlive the source.
     */
    StreamingTraceSource(const TraceGenerator &gen, std::uint64_t limit,
                         unsigned thread_id = 0);

    /** As above but shares ownership of the generator. */
    StreamingTraceSource(std::shared_ptr<const TraceGenerator> gen,
                         std::uint64_t limit, unsigned thread_id = 0);

    /** Total instructions this source will emit. */
    std::uint64_t limit() const { return limit_; }

    /**
     * Resident buffer capacity in instructions.  Exposed so tests can
     * assert streaming storage stays O(buffer), not O(instructions).
     */
    std::size_t bufferCapacity() const { return buffer_.capacity(); }

  protected:
    bool refill() override;

  private:
    std::shared_ptr<const TraceGenerator> owned_; //!< may be null
    TraceGenerator::Cursor cursor_;
    std::uint64_t limit_;
    std::uint64_t produced_ = 0;
    std::vector<TraceInst> buffer_;
};

/**
 * One streaming source per thread of @p gen's profile, each bounded
 * to @p instructions_per_thread.  The generator is shared by all
 * sources (the skeleton is immutable; each cursor owns its RNG).
 */
std::vector<std::unique_ptr<InstSource>> streamSources(
    std::shared_ptr<const TraceGenerator> gen,
    std::uint64_t instructions_per_thread);

} // namespace sharch

#endif // SHARCH_TRACE_INST_SOURCE_HH
