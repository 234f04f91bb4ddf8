/**
 * @file
 * paper_surface: the simulated P(c, s) surface every result of the
 * paper's evaluation reads.
 *
 * Each timed pass runs a few points in SampleMode::Sampled at 1.6M
 * instructions, where the sampler's 2% bound holds, then a cold
 * detailed sweep of a prefix of study::fullPaperGrid() through
 * PerfModel::performanceBatch with one worker, at the studies' default
 * 40k instructions per thread.  The grid is taken in a fixed shuffled
 * order, so the prefix mixes benchmarks, L2 sizes and Slice counts
 * alike.  The seed changes the simulation seed (and so every trace),
 * not the grid.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>

#include "bench.hh"
#include "core/perf_model.hh"
#include "study/surface.hh"

using namespace sharch;

namespace perfbench {

namespace {

constexpr std::size_t kSweepInstructions = 40000;
/** Where the sampler's 2% bound holds on every seed tried (README). */
constexpr std::size_t kSampledInstructions = 1600000;
constexpr double kSampledTolerance = 0.02;
/**
 * A pass is the sampled points plus the first kGridPoints points of the
 * shuffled grid; a run makes kPassesPerSecond x --seconds identical
 * passes, under --seconds on the reference host (README).  Every run,
 * on any seed, simulates the same points.  A short pass gives each
 * point more repetitions to take its least time over.
 */
constexpr std::size_t kGridPoints = 72;
constexpr double kPassesPerSecond = 0.32;
/** 85th percentile: about 11 of the 72 points lie beyond it. */
constexpr double kTailQuantile = 0.85;

unsigned
threadsOf(const BenchmarkProfile &p)
{
    return p.multithreaded ? p.numThreads : 1;
}

/** The full grid in a fixed (seed-independent) shuffled order. */
std::vector<exec::SweepPoint>
shuffledGrid()
{
    std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    std::mt19937_64 rng(0x5eed5eedULL);
    for (std::size_t i = grid.size(); i > 1; --i)
        std::swap(grid[i - 1], grid[rng() % i]);
    return grid;
}

/** The sampled points: four benchmarks of differing cache
 *  sensitivity on a (8 banks, 2 Slices) VCore. */
std::vector<exec::SweepPoint>
sampledPoints(bool tiny)
{
    if (tiny)
        return {exec::sweepPoint("gcc", 8, 2)};
    std::vector<exec::SweepPoint> pts;
    for (const char *b : {"gcc", "mcf", "hmmer", "omnetpp"})
        pts.push_back(exec::sweepPoint(b, 8, 2));
    return pts;
}

/** One swept point rerun through PerfModel::detailedRun. */
struct RerunPoint
{
    exec::SweepPoint point;
    double batchIpc = 0.0;
    VmResult detail;
};

struct SampledPoint
{
    exec::SweepPoint point;
    double fullIpc = 0.0;
    double sampledIpc = 0.0;
};

/** Everything the output checks look at. */
struct SurfaceData
{
    std::size_t instructions = kSweepInstructions;
    std::vector<RerunPoint> rerun;
    std::vector<SampledPoint> sampled;
    /** Best IPC over the L2 grid / IPC without L2, at two Slices. */
    std::map<std::string, double> l2Gain;
};

/** Each named check with its verdict. */
std::vector<std::pair<std::string, bool>>
surfaceChecks(const SurfaceData &d)
{
    bool committed = !d.rerun.empty(), l2Sum = committed,
         bounded = committed, ipc = committed;
    for (const RerunPoint &r : d.rerun) {
        const SimStats &s = r.detail.aggregate;
        committed &= s.instructionsCommitted ==
                     d.instructions * threadsOf(r.point.profile);
        l2Sum &= s.l2Accesses == s.l1iMisses + s.l1dMisses;
        bounded &= s.l1dMisses <= s.l1dAccesses &&
                   s.l1iMisses <= s.l1iAccesses &&
                   s.l2Misses <= s.l2Accesses &&
                   s.branchMispredicts <= s.branches;
        const double vcores = threadsOf(r.point.profile);
        ipc &= r.batchIpc == r.detail.throughput() / vcores &&
               std::fabs(r.batchIpc -
                         static_cast<double>(s.instructionsCommitted) /
                             static_cast<double>(r.detail.cycles) /
                             vcores) <= 1e-12 * r.batchIpc;
    }
    bool sampled = !d.sampled.empty();
    for (const SampledPoint &p : d.sampled)
        sampled &= std::fabs(p.sampledIpc / p.fullIpc - 1.0) <=
                   kSampledTolerance;
    bool order = d.l2Gain.size() == 4;
    if (order) {
        for (const char *sensitive : {"omnetpp", "mcf"})
            for (const char *flat : {"astar", "libquantum"})
                order &= d.l2Gain.at(sensitive) > d.l2Gain.at(flat);
    }
    return {
        {"committed == instructions x threads", committed},
        {"l2Accesses == l1iMisses + l1dMisses", l2Sum},
        {"no miss count exceeds its access count", bounded},
        {"batch IPC == committed / cycles", ipc},
        {"sampled IPC within 2% of full detail", sampled},
        {"omnetpp, mcf gain more from L2 than astar, libquantum", order},
    };
}

/** Rerun every @p stride-th swept point through detailedRun. */
void
collectRerun(const std::vector<std::pair<exec::SweepPoint, double>> &swept,
             std::size_t stride, std::size_t instructions,
             std::uint64_t seed, SurfaceData &d)
{
    PerfModel pm(instructions, seed);
    d.instructions = instructions;
    for (std::size_t i = 0; i < swept.size(); i += stride) {
        RerunPoint r;
        r.point = swept[i].first;
        r.batchIpc = swept[i].second;
        r.detail = pm.detailedRun(r.point.profile, r.point.banks,
                                  r.point.slices);
        d.rerun.push_back(std::move(r));
    }
}

/**
 * The L2 sensitivity facts of DESIGN.md's calibration targets, as
 * Figure 13 measures them (2 Slices).  gobmk is left out: in this
 * model it gains 1.7-2.1x at 8 MB and more at 512 KB, so the
 * "gobmk is flat" target does not hold (EXPERIMENTS.md, Figure 13).
 */
void
collectL2Gain(std::uint64_t seed, SurfaceData &d)
{
    PerfModel pm(kSweepInstructions, seed);
    for (const char *b : {"omnetpp", "mcf", "astar", "libquantum"}) {
        std::vector<exec::SweepPoint> pts;
        for (unsigned banks : l2BankGrid())
            pts.push_back(exec::sweepPoint(b, banks, 2));
        const std::vector<exec::SweepResult> r = pm.performanceBatch(pts, 1);
        double best = 0.0;
        for (const exec::SweepResult &x : r)
            best = std::max(best, x.ipc);
        d.l2Gain[b] = best / r.front().ipc;
    }
}

/** Full-detail IPCs of the sampled phase's points (the references). */
std::vector<double>
fullReferences(const std::vector<exec::SweepPoint> &pts, std::uint64_t seed)
{
    PerfModel pm(kSampledInstructions, seed);
    std::vector<double> ipc;
    for (const exec::SweepResult &r : pm.performanceBatch(pts, 1))
        ipc.push_back(r.ipc);
    return ipc;
}

} // namespace

void
runPaperSurface(const Options &opt, Spans &spans, Outcome &out)
{
    const std::vector<exec::SweepPoint> sPoints = sampledPoints(false);
    const std::vector<double> reference = fullReferences(sPoints, opt.seed);
    const double setup = setupSeconds(opt);

    const std::vector<exec::SweepPoint> all = shuffledGrid();
    const std::vector<exec::SweepPoint> grid(all.begin(),
                                             all.begin() + kGridPoints);
    const std::size_t passes = std::max<std::size_t>(
        1, static_cast<std::size_t>(opt.seconds * kPassesPerSecond + 0.5));
    double instructions = 0.0;
    for (const exec::SweepPoint &pt : sPoints)
        instructions +=
            static_cast<double>(kSampledInstructions) * threadsOf(pt.profile);
    for (const exec::SweepPoint &pt : grid)
        instructions +=
            static_cast<double>(kSweepInstructions) * threadsOf(pt.profile);

    // Identical passes, each on cold models: the sampled
    // points, then the detailed sweep (a point's time includes its
    // PerfModel's construction for the first point of a pass).
    std::vector<std::vector<double>> sampledUs, pointUs;
    std::vector<double> sampledIpc;
    std::vector<std::pair<exec::SweepPoint, double>> swept;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t pass = 0; startRepetition(pass, passes, t0, opt.seconds);
         ++pass) {
        sampledUs.emplace_back();
        pointUs.emplace_back();
        std::int64_t a = nowNs();
        PerfModel spm(kSampledInstructions, opt.seed);
        spm.setSampleMode(SampleMode::Sampled);
        for (std::size_t i = 0; i < sPoints.size(); ++i) {
            const double ipc = spm.performanceBatch({sPoints[i]}, 1).front().ipc;
            const std::int64_t b = nowNs();
            spans.add("core.performanceBatch.sampled", pass << 32 | i, a, b);
            sampledUs[pass].push_back(static_cast<double>(b - a) * 1e-3);
            if (pass == 0)
                sampledIpc.push_back(ipc);
            a = b;
        }
        PerfModel pm(kSweepInstructions, opt.seed);
        for (std::size_t k = 0; k < grid.size(); ++k) {
            const double ipc = pm.performanceBatch({grid[k]}, 1).front().ipc;
            const std::int64_t b = nowNs();
            spans.add("core.performanceBatch", pass << 32 | k, a, b);
            pointUs[pass].push_back(static_cast<double>(b - a) * 1e-3);
            if (pass == 0)
                swept.emplace_back(grid[k], ipc);
            a = b;
        }
    }
    const double seconds = secondsSince(t0);
    out.attempted = pointUs.size() * (sPoints.size() + grid.size());

    // Checks (untimed).
    SurfaceData d;
    collectRerun(swept, std::max<std::size_t>(1, swept.size() / 12),
                 kSweepInstructions, opt.seed, d);
    for (std::size_t i = 0; i < sPoints.size(); ++i)
        d.sampled.push_back({sPoints[i], reference[i], sampledIpc[i]});
    collectL2Gain(opt.seed, d);
    for (const auto &[name, ok] : surfaceChecks(d))
        out.check(ok, "paper_surface: " + name);

    // Each point's time is its least over the passes (README: isolation).
    const std::vector<double> leastSampled = leastOf(sampledUs);
    const std::vector<double> leastPoint = leastOf(pointUs);
    std::fprintf(stderr,
                 "paper_surface: %zu passes of %zu sampled + %zu grid points "
                 "in %.2f s; least pass time %.2f s (sampled %.2f s)\n",
                 pointUs.size(), sPoints.size(), grid.size(), seconds,
                 (total(leastSampled) + total(leastPoint)) * 1e-6,
                 total(leastSampled) * 1e-6);
    out.metric("setup_s", setup, "s");
    out.metric("throughput",
               instructions /
                   ((total(leastSampled) + total(leastPoint)) * 1e-6),
               "1/s");
    out.metric("p50_us", quantile(leastPoint, 0.5), "us");
    out.metric("tail_us", quantile(leastPoint, kTailQuantile), "us");
    out.metric("peak_rss_mb", selfPeakRssMb(), "MB");
}

int
selfTestPaperSurface(const Options &opt)
{
    // Tiny: a handful of grid points at a short length, one sampled
    // point at the accuracy-bound length.
    const std::vector<exec::SweepPoint> grid = shuffledGrid();
    std::vector<std::pair<exec::SweepPoint, double>> swept;
    PerfModel pm(4000, opt.seed);
    for (std::size_t i = 0; i < 6; ++i)
        swept.emplace_back(grid[i],
                           pm.performanceBatch({grid[i]}, 1).front().ipc);
    SurfaceData d;
    collectRerun(swept, 1, 4000, opt.seed, d);
    const std::vector<exec::SweepPoint> sp = sampledPoints(true);
    const std::vector<double> ref = fullReferences(sp, opt.seed);
    PerfModel spm(kSampledInstructions, opt.seed);
    spm.setSampleMode(SampleMode::Sampled);
    d.sampled.push_back(
        {sp[0], ref[0], spm.performanceBatch(sp, 1).front().ipc});
    collectL2Gain(opt.seed, d);

    int bad = 0;
    for (const auto &[name, ok] : surfaceChecks(d))
        bad += selfTestLine("paper_surface", "passes: " + name, ok);

    struct Mutation
    {
        const char *what;
        std::size_t check; //!< index into surfaceChecks()
        void (*apply)(SurfaceData &);
    };
    const Mutation mutations[] = {
        {"one committed instruction dropped", 0,
         [](SurfaceData &x) {
             x.rerun[2].detail.aggregate.instructionsCommitted -= 1;
         }},
        {"one L2 access added", 1,
         [](SurfaceData &x) { x.rerun[1].detail.aggregate.l2Accesses += 1; }},
        {"L1D misses above accesses", 2,
         [](SurfaceData &x) {
             auto &s = x.rerun[0].detail.aggregate;
             s.l1dMisses = s.l1dAccesses + 1;
         }},
        {"one batch IPC perturbed by 1e-9", 3,
         [](SurfaceData &x) { x.rerun[3].batchIpc *= 1.0 + 1e-9; }},
        {"sampled IPC off by 2.5%", 4,
         [](SurfaceData &x) { x.sampled[0].sampledIpc *= 1.025; }},
        {"mcf and astar L2 gains swapped", 5,
         [](SurfaceData &x) { std::swap(x.l2Gain["mcf"], x.l2Gain["astar"]); }},
    };
    for (const Mutation &m : mutations) {
        SurfaceData wrong = d;
        m.apply(wrong);
        const auto verdicts = surfaceChecks(wrong);
        bad += selfTestLine("paper_surface",
                            std::string("rejects: ") + m.what,
                            !verdicts[m.check].second);
    }
    return bad;
}

} // namespace perfbench
