#include "core/vm_sim.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "trace/address_map.hh"

namespace sharch {

double
VmResult::throughput()
const
{
    return safeDiv(static_cast<double>(aggregate.instructionsCommitted),
                   static_cast<double>(cycles));
}

VmSim::VmSim(const SimConfig &cfg, unsigned num_vcores) : cfg_(cfg)
{
    SHARCH_ASSERT(num_vcores >= 1, "a VM needs at least one VCore");
    SHARCH_ASSERT(num_vcores <= 32, "directory bitmask limit");

    // The VM's shared L2 aggregates every VCore's bank allotment.
    SimConfig vm_cfg = cfg_;
    vm_cfg.numL2Banks = cfg_.numL2Banks * num_vcores;

    // Each VCore occupies its own column range of the fabric; banks
    // are modelled at each VCore's local distances (see DESIGN.md).
    const int stride =
        static_cast<int>(std::max<unsigned>(cfg_.numSlices,
                                            FabricPlacement::kBanksPerRow))
        + 1;
    placements_.reserve(num_vcores);
    for (unsigned v = 0; v < num_vcores; ++v) {
        placements_.emplace_back(cfg_.numSlices, vm_cfg.numL2Banks,
                                 Coord{static_cast<int>(v) * stride, 0});
    }

    l2_ = std::make_unique<L2System>(vm_cfg, placements_);
    for (unsigned v = 0; v < num_vcores; ++v) {
        vcores_.push_back(std::make_unique<VCoreSim>(
            cfg_, static_cast<VCoreId>(v), placements_[v], *l2_));
        l2_->registerL1s(static_cast<VCoreId>(v),
                         vcores_.back()->l1dPointers());
    }
}

void
VmSim::prewarm(const BenchmarkProfile &profile)
{
    using namespace addrmap;
    const std::uint64_t l2_lines =
        std::uint64_t(cfg_.numL2Banks) * vcores_.size() *
        cfg_.l2Bank.sizeBytes / kLine;
    const std::uint64_t l1_lines =
        std::uint64_t(cfg_.numSlices) * cfg_.l1d.sizeBytes / kLine;

    auto warm_region = [&](VCoreSim &vc, Addr base,
                           std::uint64_t region_lines) {
        // Worst rank first so LRU retains the most popular lines.
        const std::uint64_t n = std::min<std::uint64_t>(
            region_lines, 2 * l2_lines + 4 * l1_lines);
        for (std::uint64_t r = n; r-- > 0;)
            vc.prefillLine(base + r * kLine);
    };

    for (std::size_t v = 0; v < vcores_.size(); ++v) {
        const auto tid = static_cast<unsigned>(v);
        warm_region(*vcores_[v], threadBase(kHeapBase, tid),
                    profile.workingSetBytes / kLine);
        if (profile.multithreaded && profile.sharedFrac > 0.0) {
            warm_region(*vcores_[v], kSharedBase,
                        profile.sharedBytes / kLine);
        }
        warm_region(*vcores_[v], threadBase(kHotBase, tid),
                    std::max<std::uint64_t>(1,
                        profile.hotBytes / kLine));
    }
}

VmResult
VmSim::run(const std::vector<std::unique_ptr<InstSource>> &sources,
           std::size_t chunk)
{
    SHARCH_ASSERT(sources.size() == vcores_.size(),
                  "one instruction source per VCore required");
    SHARCH_ASSERT(chunk > 0, "chunk must be positive");

    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t v = 0; v < vcores_.size(); ++v) {
            if (vcores_[v]->step(*sources[v], chunk) > 0)
                progress = true;
        }
    }

    VmResult res;
    for (std::size_t v = 0; v < vcores_.size(); ++v) {
        const SimStats &st = vcores_[v]->stats();
        res.perVCore.push_back(st);
        res.aggregate.merge(st);
        res.cycles = std::max(res.cycles, st.cycles);
    }
    res.aggregate.cycles = res.cycles;
    return res;
}

} // namespace sharch
