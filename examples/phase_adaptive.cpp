/**
 * @file
 * Phase-adaptive VCore reconfiguration (sections 3.8 and 5.10).
 *
 * Runs the ten gcc phases back to back twice: once on the best static
 * shape, and once reshaping at each phase boundary to that phase's
 * perf^2/area optimum -- paying the 10,000-cycle L2-flush (or
 * 500-cycle Slice-only) penalty at each transition.
 *
 * Usage: phase_adaptive [instructions_per_phase]
 */

#include <cstdio>
#include <memory>
#include <string>

#include "area/area_model.hh"
#include "core/perf_model.hh"
#include "core/reconfig.hh"
#include "core/vm_sim.hh"
#include "econ/optimizer.hh"
#include "econ/phases.hh"
#include "trace/generator.hh"

using namespace sharch;

namespace {

/** Cycles to run one phase on one shape, on a fresh VM. */
Cycles
runPhase(const BenchmarkProfile &phase, const VCoreShape &shape,
         std::size_t instructions)
{
    SimConfig cfg;
    cfg.numSlices = shape.slices;
    cfg.numL2Banks = shape.banks;
    VmSim vm(cfg, 1);
    vm.prewarm(phase);
    return vm.run(streamSources(
                      std::make_shared<const TraceGenerator>(phase, 1),
                      instructions))
        .cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::size_t per_phase =
        argc > 1 ? std::stoul(argv[1]) : 20000;

    PerfModel pm(per_phase);
    AreaModel am;
    UtilityOptimizer opt(pm, am);
    const ReconfigManager reconfig;
    const auto phases = gccPhaseProfiles();

    // Choose shapes: per-phase optima and the best static compromise
    // for the perf^2/area metric.
    const PhaseStudyResult study = phaseStudy(opt, phases);
    const PhaseStudyRow &row = study.rows[1]; // perf^2/area

    std::printf("=== Phase-adaptive reconfiguration on gcc ===\n");
    std::printf("static shape: (%u KB, %u Slices)\n\n",
                row.staticOptimal.banks * 64, row.staticOptimal.slices);
    std::printf("%-8s %16s %12s %16s %12s %9s\n", "phase", "dyn shape",
                "dyn cycles", "static shape", "stat cycles",
                "reconfig");

    Cycles dynamic_total = 0, static_total = 0;
    VCoreShape prev = row.perPhase.front();
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const VCoreShape shape = row.perPhase[i];
        const Cycles penalty =
            i == 0 ? 0 : reconfig.transitionCost(prev, shape);
        const Cycles dyn = runPhase(phases[i], shape, per_phase);
        const Cycles sta =
            runPhase(phases[i], row.staticOptimal, per_phase);
        dynamic_total += dyn + penalty;
        static_total += sta;
        std::printf("%-8zu   (%5uK, %u)   %10llu    (%5uK, %u)   "
                    "%10llu %8llu\n",
                    i + 1, shape.banks * 64, shape.slices,
                    static_cast<unsigned long long>(dyn),
                    row.staticOptimal.banks * 64,
                    row.staticOptimal.slices,
                    static_cast<unsigned long long>(sta),
                    static_cast<unsigned long long>(penalty));
        prev = shape;
    }

    std::printf("\ntotal: dynamic %llu cycles (incl. reconfiguration) "
                "vs static %llu cycles\n",
                static_cast<unsigned long long>(dynamic_total),
                static_cast<unsigned long long>(static_total));
    std::printf("speedup from reshaping the VCore between phases: "
                "%.1f%%\n",
                100.0 * (static_cast<double>(static_total) /
                             dynamic_total -
                         1.0));
    std::printf("\n(The static shape was already chosen as gcc's own "
                "best compromise; the\npaper's Table 7 reports "
                "9-19%% for this experiment at full SPEC scale.)\n");
    return 0;
}
