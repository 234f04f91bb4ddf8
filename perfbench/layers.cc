/**
 * @file
 * The per-layer probes of a traced run.  Each probe times calls into
 * one module's public functions on small seeded inputs, or sums the
 * counters a module reports; which end-to-end metric each should move,
 * and on which workload, is tabulated in README.md.
 *
 * Every traced run reports every per-layer metric, whichever workload
 * it traced, so the probes are the same suite in every traced run.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include <unistd.h>

#include "area/area_model.hh"
#include "bench.hh"
#include "common/json.hh"
#include "core/perf_model.hh"
#include "core/vm_sim.hh"
#include "econ/market.hh"
#include "econ/optimizer.hh"
#include "engine/allocation_engine.hh"
#include "engine/event.hh"
#include "engine/journal.hh"
#include "engine/serve_session.hh"
#include "exec/sweep.hh"
#include "fault/fault_model.hh"
#include "fleet/fleet_engine.hh"
#include "serve_child.hh"
#include "serve_script.hh"
#include "study/surface.hh"
#include "trace/generator.hh"
#include "trace/inst_source.hh"

using namespace sharch;
namespace fs = std::filesystem;

namespace perfbench {

namespace {

/** Per-thread length of the probe grid's runs. */
constexpr std::size_t kProbeInstructions = 4000;
/** Instructions drained per benchmark by the generation and
 *  fast-forward probes. */
constexpr std::size_t kDrainInstructions = 100000;
constexpr std::size_t kSampledInstructions = 1600000;
/** Surface behind the econ, fleet and serve probes: sharch-serve's
 *  default length, and the fixed seed the serve workload's server runs
 *  with. */
constexpr std::size_t kSurfaceInstructions = 2000;
constexpr std::uint64_t kSurfaceSeed = 1;
constexpr std::uint64_t kServeRequests = 6000;
constexpr std::uint64_t kFsyncRequests = 300;

double
ns(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a);
}

std::shared_ptr<const TraceGenerator>
generator(const BenchmarkProfile &p, std::uint64_t seed)
{
    return std::make_shared<const TraceGenerator>(p, seed);
}

unsigned
threadsOf(const BenchmarkProfile &p)
{
    return p.multithreaded ? p.numThreads : 1;
}

SimConfig
pointConfig(const exec::SweepPoint &pt, std::uint64_t seed)
{
    SimConfig cfg;
    cfg.numSlices = pt.slices;
    cfg.numL2Banks = pt.banks;
    cfg.seed = exec::deriveJobSeed(seed, pt.profile.name, pt.banks,
                                   pt.slices);
    return cfg;
}

/** trace, core, cache, noc, uarch. */
void
simulatorProbes(std::uint64_t seed, Outcome &out)
{
    // Generation alone: drain every benchmark's streams.
    double genNs = 0.0, genInstr = 0.0;
    for (const std::string &b : benchmarkNames()) {
        const BenchmarkProfile &p = profileFor(b);
        const auto gen = generator(p, seed);
        const std::int64_t a = nowNs();
        for (auto &src : streamSources(gen, kDrainInstructions)) {
            std::size_t avail = 0;
            while (!src->exhausted()) {
                src->window(avail);
                src->consume(avail);
                genInstr += static_cast<double>(avail);
            }
        }
        genNs += ns(a, nowNs());
    }
    const double genPerInstr = genNs / genInstr;

    // The grid: prewarm and the detailed walk timed apart, counters
    // summed.
    double prewarmNs = 0.0, runNs = 0.0, runInstr = 0.0;
    SimStats sum;
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    for (const exec::SweepPoint &pt : grid) {
        const auto gen = generator(pt.profile, seed);
        VmSim vm(pointConfig(pt, seed), threadsOf(pt.profile));
        const std::int64_t a = nowNs();
        vm.prewarm(pt.profile);
        const std::int64_t b = nowNs();
        const VmResult r = vm.run(streamSources(gen, kProbeInstructions));
        const std::int64_t c = nowNs();
        prewarmNs += ns(a, b);
        runNs += ns(b, c);
        const SimStats &s = r.aggregate;
        runInstr += static_cast<double>(s.instructionsCommitted);
        sum.l1dAccesses += s.l1dAccesses;
        sum.l2Accesses += s.l2Accesses;
        sum.l2Misses += s.l2Misses;
        sum.coherenceInvalidations += s.coherenceInvalidations;
        sum.operandRequests += s.operandRequests;
        sum.operandNetworkHops += s.operandNetworkHops;
        sum.branchMispredicts += s.branchMispredicts;
        sum.lsqViolations += s.lsqViolations;
    }

    // Functional fast-forward: one VCore per benchmark.
    double ffNs = 0.0, ffInstr = 0.0;
    for (const std::string &b : benchmarkNames()) {
        const exec::SweepPoint pt = exec::sweepPoint(b, 8, 2);
        VmSim vm(pointConfig(pt, seed), 1);
        vm.prewarm(pt.profile);
        StreamingTraceSource src(generator(pt.profile, seed),
                                 kDrainInstructions);
        const std::int64_t a = nowNs();
        ffInstr += static_cast<double>(
            vm.vcore(0).fastForward(src, kDrainInstructions));
        ffNs += ns(a, nowNs());
    }

    // A sampled run of one point on a cold model.
    PerfModel spm(kSampledInstructions, seed);
    spm.setSampleMode(SampleMode::Sampled);
    const exec::SweepPoint sp = exec::sweepPoint("gcc", 8, 2);
    const std::int64_t a = nowNs();
    spm.performanceBatch({sp}, 1);
    const double sampledS = ns(a, nowNs()) * 1e-9;

    out.metric("trace.gen_ns_per_instr", genPerInstr, "ns");
    out.metric("core.prewarm_ms_per_point",
               prewarmNs * 1e-6 / static_cast<double>(grid.size()), "ms");
    out.metric("core.detailed_ns_per_instr",
               runNs / runInstr - genPerInstr, "ns");
    out.metric("core.fastforward_ns_per_instr",
               ffNs / ffInstr - genPerInstr, "ns");
    out.metric("core.sampled_minstr_per_s",
               static_cast<double>(kSampledInstructions) * 1e-6 / sampledS,
               "Minstr/s");
    out.metric("cache.l1d_accesses", static_cast<double>(sum.l1dAccesses),
               "count");
    out.metric("cache.l2_accesses", static_cast<double>(sum.l2Accesses),
               "count");
    out.metric("cache.l2_misses", static_cast<double>(sum.l2Misses),
               "count");
    out.metric("cache.coherence_invalidations",
               static_cast<double>(sum.coherenceInvalidations), "count");
    out.metric("noc.operand_requests",
               static_cast<double>(sum.operandRequests), "count");
    out.metric("noc.operand_hops",
               static_cast<double>(sum.operandNetworkHops), "count");
    out.metric("uarch.branch_mispredicts",
               static_cast<double>(sum.branchMispredicts), "count");
    out.metric("uarch.lsq_violations",
               static_cast<double>(sum.lsqViolations), "count");
}

/** core lookups, econ. @p pm holds a fully simulated surface. */
void
lookupProbes(PerfModel &pm, UtilityOptimizer &opt, Outcome &out)
{
    const std::vector<exec::SweepPoint> grid = study::fullPaperGrid();
    double sink = 0.0;
    constexpr int kPasses = 50;
    std::int64_t a = nowNs();
    for (int i = 0; i < kPasses; ++i)
        for (const exec::SweepPoint &pt : grid)
            sink += pm.performance(pt.profile.name, pt.banks, pt.slices);
    out.metric("core.perf_lookup_ns",
               ns(a, nowNs()) / (kPasses * static_cast<double>(grid.size())),
               "ns");

    constexpr int kRepeats = 20;
    const Market market = market2();
    std::size_t calls = 0;
    a = nowNs();
    for (int i = 0; i < kRepeats; ++i)
        for (const std::string &b : benchmarkNames())
            for (UtilityKind u : kAllUtilities) {
                sink += opt.peakUtility(b, u, market, 16.0).objective;
                ++calls;
            }
    out.metric("econ.peak_utility_us",
               ns(a, nowNs()) * 1e-3 / static_cast<double>(calls), "us");
    out.check(sink > 0.0, "layer probe: lookups returned no performance");
}

/** fleet, hyper, engine state. */
void
fleetProbes(UtilityOptimizer &opt, std::uint64_t seed, Outcome &out)
{
    fleet::FleetEngineConfig cfg;
    cfg.fleet.chips = 64;
    cfg.epochPeriod = 20000;
    fleet::WorkloadConfig w;
    w.seed = seed;
    w.meanGap = 200.0;
    w.meanLifetime = 1.0e5;
    w.dayLength = Cycles{1} << 17;
    const fleet::WorkloadStream stream(w);
    constexpr std::uint64_t kTenants = 3000;

    fleet::FleetEngine eng(opt, cfg);
    eng.startStream(stream, kTenants);
    for (fleet::ChipId chip = 10; chip < cfg.fleet.chips; chip += 21) {
        fault::FaultSpec spec;
        spec.seed = seed * 8191 + chip;
        spec.mtbf = 5.0e4;
        spec.count = 6;
        spec.mttr = 2.5e4;
        fault::FaultModel model(spec, cfg.fleet.chipWidth,
                                cfg.fleet.chipHeight);
        eng.postFaultSchedule(chip, model.schedule());
    }
    eng.post(engine::checkpoint(
        static_cast<Cycles>(kTenants * w.meanGap / 2), "mid-horizon"));

    std::map<engine::EventKind, std::pair<double, double>> perKind;
    engine::EventKind kind = engine::EventKind::AuctionEpoch;
    std::int64_t start = 0;
    auto closeEvent = [&](std::int64_t t) {
        if (start != 0) {
            perKind[kind].first += ns(start, t);
            perKind[kind].second += 1.0;
        }
    };
    eng.onDispatch([&](const engine::Event &e, std::uint64_t) {
        const std::int64_t t = nowNs();
        closeEvent(t);
        kind = e.kind;
        start = t;
    });
    eng.run();
    closeEvent(nowNs());
    auto meanNs = [&](engine::EventKind k) {
        const auto &[total, n] = perKind[k];
        return n > 0.0 ? total / n : 0.0;
    };
    out.metric("fleet.arrive_us",
               meanNs(engine::EventKind::FleetArrive) * 1e-3, "us");
    out.metric("fleet.depart_us",
               meanNs(engine::EventKind::FleetDepart) * 1e-3, "us");
    out.metric("fleet.epoch_auction_ms",
               meanNs(engine::EventKind::EpochAuction) * 1e-6, "ms");
    out.metric("fleet.fault_us",
               meanNs(engine::EventKind::FaultStrike) * 1e-3, "us");
    const auto &idx = eng.fleet().index();
    out.metric("fleet.probes_per_lookup",
               static_cast<double>(idx.tierProbes()) /
                   static_cast<double>(std::max<std::uint64_t>(1, idx.lookups())),
               "ratio");
    out.metric("fleet.materialized_chips",
               static_cast<double>(eng.fleet().materializedChips()), "count");
    out.metric("hyper.auction_rounds",
               static_cast<double>(eng.stats().auctionRounds), "count");
    out.metric("fleet.checkpoint_bytes",
               static_cast<double>(eng.lastCheckpoint().size()), "bytes");

    // saveState / restoreState of the finished engine.
    std::vector<double> save, restore;
    std::string state;
    for (int i = 0; i < 5; ++i) {
        std::int64_t a = nowNs();
        state = eng.saveState();
        save.push_back(ns(a, nowNs()) * 1e-6);
        fleet::FleetEngine fresh(opt, cfg);
        std::string err;
        a = nowNs();
        if (!fresh.restoreState(state, &err))
            out.check(false, "layer probe: fleet restoreState: " + err);
        restore.push_back(ns(a, nowNs()) * 1e-6);
    }
    out.metric("engine.save_state_ms", quantile(save, 0.5), "ms");
    out.metric("engine.restore_state_ms", quantile(restore, 0.5), "ms");
}

/** One in-process serve session through ServeSession::handle. */
struct InProcess
{
    std::map<std::string, std::vector<double>> opUs; //!< per script op
    std::vector<double> priceUs;                     //!< in order
    std::vector<std::string> lines;                  //!< requests+replies
    double totalUs = 0.0;
    std::uint64_t appended = 0; //!< journal records
};

InProcess
serveInProcess(UtilityOptimizer &opt, std::uint64_t seed,
               const std::string &dir, std::uint64_t requests,
               const engine::JournalConfig *jcfg)
{
    InProcess r;
    engine::EngineConfig ecfg;
    ecfg.fabricWidth = 16;
    ecfg.fabricHeight = 16;
    engine::AllocationEngine eng(opt, ecfg);
    std::unique_ptr<engine::Journal> journal;
    if (jcfg) {
        journal = std::make_unique<engine::Journal>(*jcfg);
        engine::JournalRecovery rec;
        std::string err;
        if (!journal->open(eng, &rec, &err))
            throw std::runtime_error("journal: " + err);
    }
    engine::ServeSession session(eng);
    session.setJournal(journal.get());
    auto send = [&](const std::string &line) { return session.handle(line); };
    const WarmCapacity cap = warmUp(send);
    ScriptClient client(seed, dir, cap.slices, cap.banks);
    while (client.requests() < requests) {
        const std::string line = client.next();
        const std::int64_t a = nowNs();
        const std::string reply = session.handle(line);
        const double us = ns(a, nowNs()) * 1e-3;
        r.totalUs += us;
        r.opUs[ScriptClient::opName(client.lastOp())].push_back(us);
        if (client.lastOp() == ScriptClient::Op::Price)
            r.priceUs.push_back(us);
        client.observe(reply);
        r.lines.push_back(line);
        r.lines.push_back(reply);
    }
    if (journal) {
        journal->flush();
        r.appended = journal->appended();
    }
    return r;
}

std::uint64_t
walBytes(const std::string &dir)
{
    std::uint64_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().rfind("wal-", 0) == 0)
            n += e.file_size();
    return n;
}

/** serve, journal, json, and the child-process pipe. */
void
serveProbes(const Options &opt, UtilityOptimizer &uopt, Outcome &out)
{
    const std::string dir =
        fs::absolute(opt.outDir + "/layers-" + std::to_string(getpid()))
            .string();
    fs::remove_all(dir);
    fs::create_directories(dir);

    // The first session only warms the process (allocator, caches).
    serveInProcess(uopt, opt.seed, dir, kServeRequests, nullptr);
    const InProcess plain =
        serveInProcess(uopt, opt.seed, dir, kServeRequests, nullptr);
    auto median = [&](const char *op) {
        auto it = plain.opUs.find(op);
        return it == plain.opUs.end() ? 0.0 : quantile(it->second, 0.5);
    };
    out.metric("serve.allocate_us", median("allocate"), "us");
    out.metric("serve.release_us", median("release"), "us");
    out.metric("serve.price_us", median("price"), "us");
    out.metric("serve.stats_us", median("stats"), "us");
    out.metric("serve.snapshot_ms", median("snapshot") * 1e-3, "ms");
    const std::size_t tenth = std::max<std::size_t>(1, plain.priceUs.size() / 10);
    const std::vector<double> first(plain.priceUs.begin(),
                                    plain.priceUs.begin() + tenth);
    const std::vector<double> last(plain.priceUs.end() - tenth,
                                   plain.priceUs.end());
    out.metric("serve.price_growth",
               quantile(last, 0.5) / quantile(first, 0.5), "ratio");

    // The journal: appends without rotation, then explicit rotations.
    engine::JournalConfig jcfg;
    jcfg.dir = dir + "/journal";
    jcfg.fsyncEvery = 0;
    jcfg.rotateEvery = UINT64_MAX;
    const InProcess journaled =
        serveInProcess(uopt, opt.seed, dir, kServeRequests, &jcfg);
    // Requests that post an event, with the journal minus without.
    auto journaledOps = [](const InProcess &r) {
        std::vector<double> v;
        for (const char *op : {"allocate", "release", "bid", "unbid"}) {
            auto it = r.opUs.find(op);
            if (it != r.opUs.end())
                v.insert(v.end(), it->second.begin(), it->second.end());
        }
        return quantile(v, 0.5);
    };
    out.metric("journal.append_us",
               journaledOps(journaled) - journaledOps(plain), "us");
    out.metric("journal.bytes_per_event",
               static_cast<double>(walBytes(jcfg.dir)) /
                   static_cast<double>(std::max<std::uint64_t>(1, journaled.appended)),
               "bytes");
    {
        // Replay: recover a copy of that journal into a fresh engine.
        const std::string copy = dir + "/journal-replay";
        fs::copy(jcfg.dir, copy, fs::copy_options::recursive);
        engine::EngineConfig ecfg;
        ecfg.fabricWidth = 16;
        ecfg.fabricHeight = 16;
        engine::AllocationEngine eng(uopt, ecfg);
        engine::JournalConfig rc = jcfg;
        rc.dir = copy;
        engine::Journal j(rc);
        engine::JournalRecovery rec;
        std::string err;
        const std::int64_t a = nowNs();
        if (!j.open(eng, &rec, &err))
            out.check(false, "layer probe: journal replay: " + err);
        const double s = ns(a, nowNs()) * 1e-9;
        out.metric("engine.replay_events_per_s",
                   static_cast<double>(rec.replayed) / s, "1/s");
        std::vector<double> rotate;
        for (int i = 0; i < 5; ++i) {
            const std::int64_t b = nowNs();
            if (!j.rotate(&err))
                out.check(false, "layer probe: journal rotate: " + err);
            rotate.push_back(ns(b, nowNs()) * 1e-6);
        }
        out.metric("journal.rotate_ms", quantile(rotate, 0.5), "ms");
        j.close();
    }
    {
        // fsync cadence 1 against 0 over the same short script.
        engine::JournalConfig f1 = jcfg;
        f1.dir = dir + "/journal-fsync1";
        f1.fsyncEvery = 1;
        engine::JournalConfig f0 = jcfg;
        f0.dir = dir + "/journal-fsync0";
        const InProcess synced =
            serveInProcess(uopt, opt.seed, dir, kFsyncRequests, &f1);
        const InProcess unsynced =
            serveInProcess(uopt, opt.seed, dir, kFsyncRequests, &f0);
        out.metric("journal.fsync_us",
                   (synced.totalUs - unsynced.totalUs) /
                       static_cast<double>(kFsyncRequests),
                   "us");
    }

    // JSON over the session's request and reply lines.
    {
        std::vector<json::Value> parsed(plain.lines.size());
        std::string err;
        std::int64_t a = nowNs();
        for (std::size_t i = 0; i < plain.lines.size(); ++i)
            json::parse(plain.lines[i], &parsed[i], &err);
        out.metric("json.parse_us",
                   ns(a, nowNs()) * 1e-3 / static_cast<double>(parsed.size()),
                   "us");
        std::size_t bytes = 0;
        a = nowNs();
        for (const json::Value &v : parsed)
            bytes += v.dump().size();
        out.metric("json.dump_us",
                   ns(a, nowNs()) * 1e-3 / static_cast<double>(parsed.size()),
                   "us");
        if (bytes == 0)
            out.check(false, "layer probe: json dump produced nothing");
    }

    // The same script through a sharch-serve child with the workload's
    // flags: client latency minus in-process time is the pipe's share.
    {
        const std::string log = dir + "/server.log";
        const std::string journal = dir + "/child-journal";
        ServeChild server(opt.serveBin, serveArgs(journal), log);
        auto send = [&](const std::string &line) {
            std::string reply;
            if (!server.request(line, &reply))
                throw std::runtime_error("sharch-serve died (see " + log + ")");
            return reply;
        };
        const WarmCapacity cap = warmUp(send);
        ScriptClient client(opt.seed, dir, cap.slices, cap.banks);
        double totalUs = 0.0;
        while (client.requests() < kServeRequests) {
            const std::string line = client.next();
            const std::int64_t a = nowNs();
            const std::string reply = send(line);
            totalUs += ns(a, nowNs()) * 1e-3;
            client.observe(reply);
        }
        out.metric("serve.pipe_us",
                   (totalUs - journaled.totalUs) /
                       static_cast<double>(kServeRequests),
                   "us");
        const std::string live = send("{\"op\":\"report\"}");
        server.kill9();
        const std::int64_t a = nowNs();
        ServeChild again(opt.serveBin, serveArgs(journal), log);
        std::string recovered;
        again.request("{\"op\":\"report\"}", &recovered);
        out.metric("serve.recovery_s", ns(a, nowNs()) * 1e-9, "s");
        again.kill9();
        out.check(recovered == live,
                  "layer probe: recovered report differs from the live one");
        std::uintmax_t snapBytes = 0;
        if (!client.lastSnapshot().empty())
            snapBytes = fs::file_size(client.lastSnapshot());
        out.metric("serve.snapshot_bytes", static_cast<double>(snapBytes),
                   "bytes");
    }
    fs::remove_all(dir);
}

} // namespace

void
runLayerProbes(const Options &opt, Outcome &out)
{
    const Clock::time_point t0 = Clock::now();
    simulatorProbes(opt.seed, out);
    PerfModel pm(kSurfaceInstructions, kSurfaceSeed);
    pm.performanceBatch(study::fullPaperGrid(), 1);
    AreaModel am;
    UtilityOptimizer uopt(pm, am);
    lookupProbes(pm, uopt, out);
    fleetProbes(uopt, opt.seed, out);
    serveProbes(opt, uopt, out);
    std::fprintf(stderr, "layer probes: %.2f s\n", secondsSince(t0));
}

} // namespace perfbench
