/**
 * @file
 * serve_session: one closed-loop client against a sharch-serve child
 * (`--journal DIR --journal-fsync 0`), the allocation service's request
 * path end to end: JSON parse/dump, ServeSession, engine dispatch,
 * journal append and rotation, snapshots, and crash recovery.
 *
 * Set-up starts the server and warms it: one budgeted bid per
 * benchmark the script bids on, then an auction, so every P(c, s)
 * surface the markets read is simulated before timing starts.  The
 * timed phase is identical sessions of kSessionRequests scripted
 * requests, closed loop, each on a fresh server and journal.  The last
 * server is SIGKILLed after
 * its `report` reply and restarted on copies of its journal.
 *
 * Fsync is off (cadence 0) because per-record fsync makes the rate
 * follow the disk instead of the program.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "bench.hh"
#include "serve_child.hh"
#include "serve_script.hh"

namespace fs = std::filesystem;

namespace perfbench {

namespace {

/**
 * A run makes kSessionsPerSecond x --seconds identical sessions of
 * kSessionRequests requests, under --seconds on the reference host
 * (README); a request's time is its least over them.
 */
constexpr std::uint64_t kSessionRequests = 30000;
constexpr double kSessionsPerSecond = 0.65;
constexpr std::uint64_t kTinyRequests = 600;
/** Restarts on journal copies whose median is the recovery time. */
constexpr int kRecoveries = 3;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/** Everything the output checks look at. */
struct ServeData
{
    std::uint64_t unparsed = 0;
    std::vector<ScriptClient::TallyPoint> tally;
    std::string liveReport;
    std::vector<std::string> recoveredReports;
    std::string snapshot;   //!< a snapshot the session wrote
    std::string resnapshot; //!< the same, restored and snapshotted back
};

std::vector<std::pair<std::string, bool>>
serveChecks(const ServeData &d)
{
    bool tally = !d.tally.empty();
    for (const ScriptClient::TallyPoint &t : d.tally)
        tally &= t.matches();
    bool recovered = !d.liveReport.empty() && !d.recoveredReports.empty();
    for (const std::string &r : d.recoveredReports)
        recovered &= r == d.liveReport;
    return {
        {"every reply parses", d.unparsed == 0},
        {"client lease tally matches stats", tally},
        {"recovered report == live report before the kill", recovered},
        {"--restore snapshot re-snapshots byte-identically",
         !d.snapshot.empty() && d.snapshot == d.resnapshot},
    };
}

struct SessionResult
{
    ServeData data;
    /** Each request's least latency over the identical sessions. */
    std::vector<double> latencyUs;
    std::uint64_t requests = 0;    //!< over all sessions
    std::uint64_t failed = 0;
    double seconds = 0.0;          //!< all sessions' timed phases
    double setup = 0.0;
    double peakRssMb = 0.0;
    double recoveryS = 0.0;
};

/**
 * @p sessions identical sessions of @p requests each, every one on a
 * fresh server and journal; the last is killed and recovered.
 */
SessionResult
runSessions(const Options &opt, Spans &spans, std::uint64_t requests,
            std::size_t sessions)
{
    SessionResult r;
    const std::string dir =
        fs::absolute(opt.outDir + "/serve-" + std::to_string(getpid()))
            .string();
    fs::remove_all(dir);
    const std::string log = dir + "/server.log";
    const std::string journal = dir + "/journal";
    std::vector<std::vector<double>> perSession;

    // The session after which no other starts is the one killed and
    // recovered, so the loop ends there.
    const Clock::time_point start = Clock::now();
    for (std::size_t round = 0;; ++round) {
        fs::remove_all(journal);
        fs::create_directories(dir);
        ServeChild server(opt.serveBin, serveArgs(journal), log);
        auto send = [&](const std::string &line) {
            std::string reply;
            if (!server.request(line, &reply))
                throw std::runtime_error("sharch-serve died (see " + log +
                                         ")");
            return reply;
        };
        const WarmCapacity cap = warmUp(send);
        if (round == 0)
            r.setup = setupSeconds(opt);

        ScriptClient client(opt.seed, dir, cap.slices, cap.banks);
        std::vector<double> latencyUs;
        latencyUs.reserve(requests);
        const Clock::time_point t0 = Clock::now();
        while (client.requests() < requests) {
            const std::string line = client.next();
            const std::int64_t a = nowNs();
            const std::string reply = send(line);
            const std::int64_t b = nowNs();
            latencyUs.push_back(static_cast<double>(b - a) * 1e-3);
            spans.add(ScriptClient::opName(client.lastOp()),
                      round << 32 | client.requests(), a, b);
            client.observe(reply);
        }
        const double seconds = secondsSince(t0);
        std::fprintf(stderr,
                     "serve_session: session %zu: %llu requests in %.3f s\n",
                     round, static_cast<unsigned long long>(requests),
                     seconds);
        r.seconds += seconds;
        perSession.push_back(std::move(latencyUs));
        r.requests += client.requests();
        r.failed += client.okFalse();
        r.data.unparsed += client.unparsed();
        r.data.tally.insert(r.data.tally.end(), client.tally().begin(),
                            client.tally().end());
        r.peakRssMb = std::max(r.peakRssMb, pidPeakRssMb(server.pid()));
        if (startRepetition(round + 1, sessions, start, opt.seconds))
            continue;

        // The kill at a fixed request: right after the report reply.
        r.data.liveReport = send("{\"op\":\"report\"}");
        server.kill9();

        std::vector<double> recovery;
        for (int i = 0; i < kRecoveries; ++i) {
            const std::string copy = dir + "/journal-copy" + std::to_string(i);
            fs::copy(journal, copy, fs::copy_options::recursive);
            const std::int64_t a = nowNs();
            ServeChild again(opt.serveBin, serveArgs(copy), log);
            std::string rep;
            if (!again.request("{\"op\":\"report\"}", &rep))
                rep.clear();
            const std::int64_t b = nowNs();
            spans.add("engine.recovery", i, a, b);
            recovery.push_back(static_cast<double>(b - a) * 1e-9);
            r.data.recoveredReports.push_back(rep);
            again.kill9();
        }
        r.recoveryS = quantile(recovery, 0.5);

        // A snapshot the session wrote, restored into a fresh server
        // and snapshotted back.
        if (!client.lastSnapshot().empty()) {
            r.data.snapshot = readFile(client.lastSnapshot());
            std::vector<std::string> args = serveArgs("");
            args.insert(args.end(), {"--restore", client.lastSnapshot()});
            ServeChild fresh(opt.serveBin, args, log);
            const std::string back = dir + "/resnapshot.state";
            std::string rep;
            if (fresh.request(
                    "{\"op\":\"snapshot\",\"path\":\"" + back + "\"}", &rep))
                r.data.resnapshot = readFile(back);
            fresh.finish();
        }
        break;
    }
    fs::remove_all(dir);
    r.latencyUs = leastOf(perSession);
    return r;
}

} // namespace

void
runServeSession(const Options &opt, Spans &spans, Outcome &out)
{
    const SessionResult r = runSessions(
        opt, spans,
        kSessionRequests,
        std::max<std::size_t>(
            1, static_cast<std::size_t>(opt.seconds * kSessionsPerSecond + 0.5)));
    for (const auto &[name, ok] : serveChecks(r.data))
        out.check(ok, "serve_session: " + name);
    out.attempted = r.requests;
    out.failed = r.failed;
    std::fprintf(stderr,
                 "serve_session: %llu requests (%llu failed) in %.2f s, "
                 "least session time %.2f s, recovery %.3f s\n",
                 static_cast<unsigned long long>(r.requests),
                 static_cast<unsigned long long>(r.failed), r.seconds,
                 total(r.latencyUs) * 1e-6, r.recoveryS);
    // Each request's latency is its least over the identical sessions
    // (README: isolation).
    out.metric("setup_s", r.setup, "s");
    out.metric("throughput",
               static_cast<double>(r.latencyUs.size()) /
                   (total(r.latencyUs) * 1e-6),
               "1/s");
    out.metric("p50_us", quantile(r.latencyUs, 0.5), "us");
    out.metric("tail_us", quantile(r.latencyUs, 0.99), "us");
    out.metric("peak_rss_mb", r.peakRssMb, "MB");
}

int
selfTestServeSession(const Options &opt)
{
    Spans off;
    const SessionResult r = runSessions(opt, off, kTinyRequests, 1);
    int bad = selfTestLine("serve_session", "passes: no ok:false replies",
                           r.failed == 0);
    for (const auto &[name, ok] : serveChecks(r.data))
        bad += selfTestLine("serve_session", "passes: " + name, ok);

    struct Mutation
    {
        const char *what;
        std::size_t check;
        void (*apply)(ServeData &);
    };
    const Mutation mutations[] = {
        {"a reply that does not parse", 0,
         [](ServeData &x) { x.unparsed = 1; }},
        {"one lease missing from the client's tally", 1,
         [](ServeData &x) {
             ScriptClient::TallyPoint &t = x.tally[x.tally.size() / 2];
             t.clientLeases -= 1;
         }},
        {"one byte of the recovered report flipped", 2,
         [](ServeData &x) {
             std::string &s = x.recoveredReports.back();
             s[s.size() / 2] ^= 1;
         }},
        {"one byte of the re-snapshot flipped", 3,
         [](ServeData &x) { x.resnapshot[x.resnapshot.size() / 3] ^= 1; }},
    };
    for (const Mutation &m : mutations) {
        ServeData wrong = r.data;
        m.apply(wrong);
        bad += selfTestLine("serve_session", std::string("rejects: ") + m.what,
                            !serveChecks(wrong)[m.check].second);
    }
    return bad;
}

} // namespace perfbench
