/**
 * @file
 * Shared pieces of the perfbench binary: options, the result every
 * workload fills in, timing helpers, and the in-memory span recorder
 * the traced runs use.
 *
 * perfbench measures sharch from outside: every timing here wraps a
 * call into one module's public API, never code inside the program.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** What one invocation was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** CLOCK_MONOTONIC ns at which the process was spawned. */
    std::int64_t spawnNs = 0;
    /** Directory for spans, journals and snapshots (created). */
    std::string outDir = ".bench_out";
    /** The sharch-serve binary the serve workload drives. */
    std::string serveBin;
};

/** The result of one workload run: checks, counts and metrics. */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::string> errors; //!< failed output checks

    void check(bool ok, const std::string &what);
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** The one-line JSON result (the last line of stdout). */
    std::string json() const;
};

/**
 * Whether repetition @p rep of a run's @p reps identical repetitions
 * starts: the first always does, a later one only while less than
 * @p seconds have passed since @p t0.  On a slow host a run makes
 * fewer repetitions instead of running past its time.
 */
inline bool
startRepetition(std::size_t rep, std::size_t reps, Clock::time_point t0,
                double seconds)
{
    return rep < reps && (rep == 0 || secondsSince(t0) < seconds);
}

/** Quantile @p q (0..1) of @p v by linear interpolation; 0 if empty. */
double quantile(std::vector<double> v, double q);

/**
 * Element-wise minimum of equally long series: the time of each
 * operation over identical repetitions of the same work.  Empty when
 * the lengths differ (the repetitions were not identical).
 */
std::vector<double> leastOf(const std::vector<std::vector<double>> &reps);

/** Sum of @p v. */
double total(const std::vector<double> &v);

/** Peak resident set of this process in MB (getrusage). */
double selfPeakRssMb();

/** Peak resident set of process @p pid in MB (VmHWM), 0 if gone. */
double pidPeakRssMb(int pid);

/**
 * In-memory spans: name, start, end, parent and a shared group id per
 * request or grid point.  Off (and free) unless enable() was called.
 */
class Spans
{
  public:
    struct Span
    {
        std::uint32_t name = 0;
        std::int64_t start = 0;
        std::int64_t end = 0;
        std::int64_t parent = -1;
        std::uint64_t group = 0;
    };

    void enable() { on_ = true; }
    bool on() const { return on_; }

    /** Open a span; returns its index (or -1 when off). */
    std::int64_t begin(const char *name, std::uint64_t group);
    void end(std::int64_t idx);

    /** Record an already-timed span. */
    void add(const char *name, std::uint64_t group, std::int64_t start,
             std::int64_t end, std::int64_t parent = -1);

    /** Self time (span minus covered child time) summed per name, ms. */
    std::map<std::string, double> selfMs() const;

    /** Write every span plus the self-time table to @p path (JSON). */
    bool write(const std::string &path) const;

    std::size_t size() const { return spans_.size(); }

  private:
    bool on_ = false;
    std::vector<Span> spans_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t, std::less<>> ids_;
    std::int64_t open_ = -1; //!< innermost open span

    std::uint32_t intern(const char *name);
};

/** RAII span around one call. */
class SpanScope
{
  public:
    SpanScope(Spans &s, const char *name, std::uint64_t group)
        : spans_(s), idx_(s.begin(name, group))
    {
    }
    ~SpanScope() { spans_.end(idx_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Spans &spans_;
    std::int64_t idx_;
};

/** The workloads; each fills @p out.  @p spans is live when tracing. */
void runPaperSurface(const Options &opt, Spans &spans, Outcome &out);
void runFleetChurn(const Options &opt, Spans &spans, Outcome &out);
void runServeSession(const Options &opt, Spans &spans, Outcome &out);

/** Every per-layer metric (the traced run's probe suite). */
void runLayerProbes(const Options &opt, Outcome &out);

/**
 * Self-tests: run the workload tiny, show its checks pass on the real
 * outputs and that each check rejects a deliberately wrong output.
 * @return the number of checks that did not behave.
 */
int selfTestPaperSurface(const Options &opt);
int selfTestFleetChurn(const Options &opt);
int selfTestServeSession(const Options &opt);

/** One self-test verdict line; @return 1 when @p ok is false. */
int selfTestLine(const std::string &workload, const std::string &check,
                 bool ok);

/** Seconds from process spawn (Options::spawnNs) to now. */
double setupSeconds(const Options &opt);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
