/**
 * @file
 * Ablation from section 5.1: operand-network bandwidth sensitivity.
 *
 * The paper dedicates one Scalar Operand Network to both operand
 * requests and replies, and reports that adding a second operand
 * network improves performance by only ~1% across their applications.
 * This study runs every benchmark at the 4-Slice/256 KB design point
 * with one and with two operand networks and reports the deltas.
 */

#include <memory>
#include <vector>

#include "common/math_util.hh"
#include "config/sim_config.hh"
#include "core/vm_sim.hh"
#include "study/registry.hh"
#include "study/study.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

double
runWith(const BenchmarkProfile &profile, unsigned operand_networks,
        std::size_t instructions, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.numSlices = 4;
    cfg.numL2Banks = 4;
    cfg.network.operandNetworks = operand_networks;
    const unsigned vcores =
        profile.multithreaded ? profile.numThreads : 1;
    VmSim vm(cfg, vcores);
    vm.prewarm(profile);
    const VmResult res = vm.run(streamSources(
        std::make_shared<const TraceGenerator>(profile, seed),
        instructions));
    return res.throughput();
}

class AblateSonStudy final : public study::Study
{
  public:
    std::string
    name() const override
    {
        return "ablate_son";
    }

    std::string
    description() const override
    {
        return "Second operand network sensitivity (4 Slices, "
               "256 KB)";
    }

    void
    run(study::ReportContext &ctx) override
    {
        study::Table &t = ctx.report.addTable(
            "ablate_son",
            "IPC with one vs. two scalar operand networks");
        t.col("benchmark", study::Value::Kind::Text)
            .col("ipc_1son", study::Value::Kind::Real, 3)
            .col("ipc_2son", study::Value::Kind::Real, 3)
            .col("delta_pct", study::Value::Kind::Real, 2);
        std::vector<double> ratios;
        for (const std::string &bench : benchmarkNames()) {
            const BenchmarkProfile &p = profileFor(bench);
            const double one =
                runWith(p, 1, ctx.instructions, ctx.seed);
            const double two =
                runWith(p, 2, ctx.instructions, ctx.seed);
            t.addRow({bench, one, two, 100.0 * (two / one - 1.0)});
            ratios.push_back(two / one);
        }
        study::Table &g = ctx.report.addTable(
            "summary", "Geometric-mean improvement");
        g.col("geomean_delta_pct", study::Value::Kind::Real, 2);
        g.addRow({100.0 * (geometricMean(ratios) - 1.0)});
        ctx.report.addNote(
            "paper: ~1% -- one operand network provides sufficient "
            "bandwidth.");
    }
};

} // namespace

SHARCH_REGISTER_STUDY(AblateSonStudy)
