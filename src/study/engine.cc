#include "study/engine.hh"

#include <chrono>

#include "common/logging.hh"
#include "core/perf_model.hh"
#include "study/surface.hh"

namespace sharch::study {

std::vector<exec::SweepPoint>
unionGrid(const std::vector<Study *> &studies)
{
    std::vector<exec::SweepPoint> grid;
    for (const Study *s : studies) {
        std::vector<exec::SweepPoint> part = s->grid();
        grid.insert(grid.end(),
                    std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    }
    return grid;
}

Report
runStudy(Study &s, PerfModel &pm, const EngineOptions &opts)
{
    SHARCH_ASSERT(pm.instructionsPerThread() == opts.instructions &&
                      pm.seed() == opts.seed,
                  "study '", s.name(), "': surface is (",
                  pm.instructionsPerThread(), ", ", pm.seed(),
                  ") but options say (", opts.instructions, ", ",
                  opts.seed, ")");

    const auto start = std::chrono::steady_clock::now();
    prefillSurface(pm, s.grid(), opts.threads);

    ReportContext ctx{pm, opts.instructions, opts.seed,
                      exec::resolveThreadCount(opts.threads), {}};
    ctx.report.id = s.name();
    ctx.report.title = s.description();
    ctx.report.addMeta("instructions", opts.instructions);
    ctx.report.addMeta("seed", opts.seed);
    // Sampled numbers are estimates: the schedule is part of the
    // result.
    if (opts.sampleSet)
        ctx.report.addMeta("sample", sampleScheduleName(opts.sample));
    s.run(ctx);

    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    ctx.report.addRunInfo("threads", ctx.threads);
    ctx.report.addRunInfo("elapsed_s", elapsed);
    return std::move(ctx.report);
}

} // namespace sharch::study
