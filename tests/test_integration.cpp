/**
 * @file
 * Cross-module integration tests: the qualitative facts the paper's
 * evaluation rests on, verified end-to-end (generator -> SSim ->
 * area/econ) with short traces.
 */

#include <gtest/gtest.h>

#include "area/area_model.hh"
#include "core/perf_model.hh"
#include "econ/market.hh"
#include "econ/optimizer.hh"
#include "trace/profile.hh"

using namespace sharch;

namespace {

PerfModel &
perf()
{
    static PerfModel pm(6000);
    return pm;
}

/** Cache sensitivity: perf(8 MB) / perf(no L2) at two Slices. */
double
cacheSensitivity(const std::string &bench)
{
    double best = 0.0;
    for (unsigned banks : l2BankGrid())
        best = std::max(best, perf().performance(bench, banks, 2));
    return best / perf().performance(bench, 0, 2);
}

/** Slice scalability: best perf over s / perf at one Slice. */
double
sliceScalability(const std::string &bench)
{
    double best = 0.0;
    for (unsigned s = 1; s <= SimConfig::kMaxSlices; ++s)
        best = std::max(best, perf().performance(bench, 2, s));
    return best / perf().performance(bench, 2, 1);
}

} // namespace

TEST(Integration, OmnetppIsMoreCacheSensitiveThanAstar)
{
    // Section 5.4: omnetpp extremely sensitive, astar insensitive.
    EXPECT_GT(cacheSensitivity("omnetpp"),
              1.5 * cacheSensitivity("astar"));
    EXPECT_LT(cacheSensitivity("astar"), 1.35);
}

TEST(Integration, LibquantumIgnoresTheL2)
{
    // Streaming workload: no reuse for the L2 to capture.
    EXPECT_LT(cacheSensitivity("libquantum"), 1.25);
}

TEST(Integration, HmmerSaturatesAtSixtyFourKb)
{
    // Table 4: hmmer's optimum is 64 KB; adding far more cache must
    // not help much beyond it.
    const double at64k = perf().performance("hmmer", 1, 2);
    const double at4m = perf().performance("hmmer", 64, 2);
    EXPECT_LT(at4m / at64k, 1.10);
}

TEST(Integration, CacheCanHurtThroughDistance)
{
    // Section 5.4: an 8 MB L2 sits farther away (+2 cycles per
    // 256 KB), so insensitive workloads lose performance.
    const double small = perf().performance("libquantum", 2, 2);
    const double huge = perf().performance("libquantum", 128, 2);
    EXPECT_LT(huge, small);
}

TEST(Integration, IlpRichWorkloadsScaleSerialOnesDoNot)
{
    EXPECT_GT(sliceScalability("h264ref"), 1.5);
    EXPECT_GT(sliceScalability("gcc"), 1.3);
    EXPECT_LT(sliceScalability("astar"), 1.6);
    // Section 5.3: PARSEC speedup bounded by ~2 per VCore.
    EXPECT_LT(sliceScalability("swaptions"), 2.6);
}

TEST(Integration, ParsecBenefitsFromVCoreParallelism)
{
    // Four VCores commit 4x the instructions of a single thread; the
    // VM throughput (not per-VCore) reflects that.
    const BenchmarkProfile &p = profileFor("swaptions");
    const VmResult r = perf().detailedRun(p, 2, 2);
    EXPECT_EQ(r.perVCore.size(), 4u);
    EXPECT_GT(r.throughput(), perf().performance("swaptions", 2, 2));
}

TEST(Integration, OptimaDifferAcrossBenchmarks)
{
    // The heart of the paper: one size does not fit all.
    AreaModel am;
    UtilityOptimizer opt(perf(), am);
    const OptResult hmmer = opt.peakPerfPerArea("hmmer", 2);
    const OptResult gcc = opt.peakPerfPerArea("gcc", 2);
    EXPECT_TRUE(hmmer.banks != gcc.banks || hmmer.slices != gcc.slices);
}

TEST(Integration, OptimaGrowWithPerformanceExponent)
{
    AreaModel am;
    UtilityOptimizer opt(perf(), am);
    const OptResult k1 = opt.peakPerfPerArea("gcc", 1);
    const OptResult k3 = opt.peakPerfPerArea("gcc", 3);
    EXPECT_GE(k3.banks + k3.slices, k1.banks + k1.slices);
}

TEST(Integration, MarketPricesReshapeDemand)
{
    AreaModel am;
    UtilityOptimizer opt(perf(), am);
    const double budget = defaultBudget();
    // With Slices 4x overpriced, no customer buys more Slices than at
    // parity for the same utility function.
    const OptResult parity = opt.peakUtility(
        "gobmk", UtilityKind::Balanced, market2(), budget);
    const OptResult pricey = opt.peakUtility(
        "gobmk", UtilityKind::Balanced, market1(), budget);
    EXPECT_LE(pricey.slices, parity.slices);
}

TEST(Integration, AreaModelFeedsTheEconomy)
{
    // The Market2 anchor must match the area model within tolerance,
    // or every efficiency number silently drifts.
    AreaModel am;
    const double bank_cost_ratio =
        market2().bankPrice / market2().slicePrice;
    const double bank_area_ratio =
        am.l2BankAreaUm2() / am.sliceAreaUm2();
    EXPECT_NEAR(bank_cost_ratio, bank_area_ratio, 0.10);
}

TEST(Integration, SecondOperandNetworkBarelyMatters)
{
    // Section 5.1's sensitivity study: ~1% from a second SON.
    const BenchmarkProfile &p = profileFor("gcc");
    SimConfig cfg;
    cfg.numSlices = 4;
    cfg.numL2Banks = 4;
    const auto gen = std::make_shared<const TraceGenerator>(p, 1);

    VmSim one(cfg, 1);
    one.prewarm(p);
    const Cycles c1 = one.run(streamSources(gen, 6000)).cycles;

    cfg.network.operandNetworks = 2;
    VmSim two(cfg, 1);
    two.prewarm(p);
    const Cycles c2 = two.run(streamSources(gen, 6000)).cycles;

    EXPECT_LE(c2, c1);
    EXPECT_LT(static_cast<double>(c1 - c2) / c1, 0.05);
}
