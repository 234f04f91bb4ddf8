/**
 * @file
 * perfbench -- the sharch benchmark binary.
 *
 *   perfbench --workload paper_surface|fleet_churn|serve_session
 *             --seed N --seconds S --trace 0|1
 *             [--spawn-ns T] [--out DIR] [--serve-bin PATH]
 *   perfbench --self-test
 *
 * Prints progress on stderr and, as the last line of stdout, one JSON
 * object {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics untraced, the per-layer metrics with --trace 1.  Exit 0 when
 * every output check passed.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload paper_surface|fleet_churn|"
                 "serve_session --seed N --seconds S --trace 0|1\n"
                 "       [--spawn-ns T] [--out DIR] [--serve-bin PATH]\n"
                 "       %s --self-test\n",
                 argv0, argv0);
    return 2;
}

void
runWorkload(const Options &opt, Spans &spans, Outcome &out)
{
    if (opt.workload == "paper_surface")
        runPaperSurface(opt, spans, out);
    else if (opt.workload == "fleet_churn")
        runFleetChurn(opt, spans, out);
    else
        runServeSession(opt, spans, out);
}

double
metricOf(const Outcome &o, const std::string &metric)
{
    for (const auto &[name, v] : o.metrics)
        if (name == metric)
            return v.first;
    return 0.0;
}

/**
 * The workload's tail latency, taken out of its end-to-end metrics.
 * It is reported by the traced run, as a per-layer metric: across
 * seeds it moves with which long operations the seed draws (README:
 * end-to-end metrics), more than an end-to-end bound allows.
 */
double
takeTail(Outcome &o)
{
    const double tail = metricOf(o, "tail_us");
    std::erase_if(o.metrics,
                  [](const auto &m) { return m.first == "tail_us"; });
    return tail;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.spawnNs = nowNs();
    bool selfTest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool more = i + 1 < argc;
        if (a == "--self-test") {
            selfTest = true;
        } else if (a == "--workload" && more) {
            opt.workload = argv[++i];
        } else if (a == "--seed" && more) {
            opt.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && more) {
            opt.seconds = std::strtod(argv[++i], nullptr);
        } else if (a == "--trace" && more) {
            opt.trace = std::string(argv[++i]) == "1";
        } else if (a == "--spawn-ns" && more) {
            opt.spawnNs = std::strtoll(argv[++i], nullptr, 10);
        } else if (a == "--out" && more) {
            opt.outDir = argv[++i];
        } else if (a == "--serve-bin" && more) {
            opt.serveBin = argv[++i];
        } else {
            return usage(argv[0]);
        }
    }
    if (opt.serveBin.empty())
        opt.serveBin = (std::filesystem::read_symlink("/proc/self/exe")
                            .parent_path() /
                        "sharch-serve")
                           .string();
    std::filesystem::create_directories(opt.outDir);

    if (selfTest) {
        const int bad = selfTestPaperSurface(opt) + selfTestFleetChurn(opt) +
                        selfTestServeSession(opt);
        std::fprintf(stderr, "self-test: %d check%s misbehaved\n", bad,
                     bad == 1 ? "" : "s");
        return bad == 0 ? 0 : 1;
    }
    if (opt.workload != "paper_surface" && opt.workload != "fleet_churn" &&
        opt.workload != "serve_session")
        return usage(argv[0]);
    if (!(opt.seconds > 0.0))
        return usage(argv[0]);

    Outcome out;
    if (!opt.trace) {
        Spans off;
        runWorkload(opt, off, out);
        std::fprintf(stderr, "%s: tail_us %.3f (per-layer)\n",
                     opt.workload.c_str(), takeTail(out));
    } else {
        // The traced run: the workload once untraced and once with
        // spans (their throughput ratio is the tracing overhead), then
        // the per-layer probes.
        Outcome plain;
        Spans off;
        runWorkload(opt, off, plain);
        Spans spans;
        spans.enable();
        Options again = opt;
        again.spawnNs = nowNs();
        runWorkload(again, spans, out);
        const std::string path = opt.outDir + "/" + opt.workload + "-seed" +
                                 std::to_string(opt.seed) + ".spans.json";
        if (!spans.write(path))
            out.check(false, "cannot write " + path);
        std::fprintf(stderr, "spans: %zu written to %s; self time (ms):\n",
                     spans.size(), path.c_str());
        for (const auto &[name, ms] : spans.selfMs())
            std::fprintf(stderr, "  %-36s %12.3f\n", name.c_str(), ms);
        const double traced = metricOf(out, "throughput");
        out.metrics.clear();
        out.correct &= plain.correct;
        out.errors.insert(out.errors.end(), plain.errors.begin(),
                          plain.errors.end());
        out.metric("trace.overhead_pct",
                   traced > 0.0
                       ? (metricOf(plain, "throughput") / traced - 1.0) * 100.0
                       : 0.0,
                   "%");
        out.metric("tail_us", takeTail(plain), "us");
        runLayerProbes(opt, out);
    }
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    std::printf("%s\n", out.json().c_str());
    return out.correct ? 0 : 1;
}
