/**
 * @file
 * The two workloads served through svc::Service::serveSource, the code
 * `ancd` runs:
 *
 *   cold_search    every distinct gallery/sample program once per pass
 *                  through a fresh service with plan search on: the
 *                  miss path, where search is nearly all of the work;
 *   clustered_hot  a seeded clustered stream of disguised programs
 *                  through a long-lived service with the ancd defaults:
 *                  mostly cache hits, a few percent misses.
 *
 * Untraced runs time Service::serveSource per request. Traced runs
 * first serve the same passes untraced, then replay them through the
 * public calls the service makes (replay.cc) with a span around each,
 * and check that the replay reproduced every served request.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"
#include "dsl/parser.h"
#include "dsl/printer.h"
#include "ir/gallery.h"
#include "svc/workload.h"

namespace anc::perfbench {

namespace {

struct Request
{
    std::string id;
    std::string source;
    std::string kernel; //!< label for the per-kernel table
};

/** A served workload: a request pool, its pass order, the service. */
struct ServedWorkload
{
    std::string name;
    std::vector<Request> requests;
    svc::ServiceOptions options;
    /** Shuffle the pool per pass (cold_search) or keep stream order. */
    bool shuffle = false;
    uint64_t seed = 1;

    std::vector<size_t> order(size_t pass) const;
};

std::vector<size_t>
ServedWorkload::order(size_t pass) const
{
    std::vector<size_t> o(requests.size());
    for (size_t i = 0; i < o.size(); ++i)
        o[i] = i;
    if (shuffle)
        seededShuffle(o, mixSeed(seed, pass));
    return o;
}

/** Everything deterministic about one served request. */
struct Fingerprint
{
    svc::Verdict verdict = svc::Verdict::Shed;
    std::string key;
    PlanFacts facts;
    uint64_t steps = 0;
    SearchCounts search; //!< of the compilation a miss ran
    VerifyCounts verify;

    bool operator==(const Fingerprint &o) const = default;
    std::string str() const
    {
        return std::string(svc::verdictName(verdict)) + " key=" + key +
               " " + facts.str() + " steps=" + std::to_string(steps) +
               " scored=" + std::to_string(search.scored);
    }
};

/** One pass of a workload through one fresh service. */
struct Pass
{
    /** Per pool index (every request is served once per pass). */
    std::vector<Fingerprint> prints;
    std::vector<bool> failed;
    std::vector<double> latency; //!< seconds, in serve order
    /** Served plans by key (kept only when asked for). */
    std::map<std::string, core::Compilation> plans;
    uint64_t insertions = 0, evictions = 0;
};

bool
servedAPlan(svc::Verdict v)
{
    return v == svc::Verdict::Compiled || v == svc::Verdict::Cached ||
           v == svc::Verdict::Degraded;
}

/**
 * Serve one pass. The service exposes its plan cache read-only; the
 * plan a miss compiled is read back with a lookup right after the
 * request, outside its timing, where the entry is already the most
 * recent one -- so the lookup moves nothing in the LRU order. It does
 * add a hit to the cache's own counter, which is why hits are counted
 * from the Cached verdicts instead.
 */
Pass
servePass(const ServedWorkload &w, size_t pass, const svc::ServiceOptions &opts,
          bool keepPlans)
{
    Pass p;
    p.prints.resize(w.requests.size());
    p.failed.assign(w.requests.size(), false);
    std::map<std::string, PlanFacts> factsByKey;
    svc::Service service(opts);
    const std::vector<size_t> order = w.order(pass);
    p.latency.reserve(order.size());
    for (size_t pos = 0; pos < order.size(); ++pos) {
        const Request &q = w.requests[order[pos]];
        const double t0 = nowSeconds();
        svc::Response r = service.serveSource(q.id, q.source);
        p.latency.push_back(nowSeconds() - t0);

        Fingerprint &f = p.prints[order[pos]];
        f.verdict = r.verdict;
        f.key = r.hasKey ? r.key.hex() : "";
        f.steps = r.steps;
        bool ok = servedAPlan(r.verdict) && r.validated;
        if (r.verdict == svc::Verdict::Compiled ||
            r.verdict == svc::Verdict::Degraded) {
            const svc::CachedPlan *cp =
                const_cast<svc::PlanCache &>(service.cache()).lookup(r.key);
            if (cp) {
                f.facts = planFacts(cp->compilation);
                f.search = searchCounts(cp->compilation);
                f.verify = verifyCounts(cp->compilation);
                factsByKey[f.key] = f.facts;
                if (keepPlans)
                    p.plans.emplace(f.key, cp->compilation);
            } else {
                ok = false; // served, but the plan cannot be checked
            }
        } else if (r.verdict == svc::Verdict::Cached) {
            auto it = factsByKey.find(f.key);
            ok = ok && it != factsByKey.end();
            if (it != factsByKey.end())
                f.facts = it->second;
        }
        // The response and the plan it names must agree.
        ok = ok && r.tier == f.facts.tier &&
             r.validated == f.facts.validated &&
             r.degradedPlan == f.facts.degraded;
        p.failed[order[pos]] = !ok;
    }
    p.insertions = service.cache().insertions();
    p.evictions = service.cache().evictions();
    return p;
}

/** A series of served passes; only the first is kept whole. */
struct PassRun
{
    Pass first;
    size_t passes = 0;
    std::vector<double> latency; //!< every op of every pass, seconds
    double busy = 0;             //!< sum of latency
    std::string perPassOps;      //!< ops/s of each pass, for the notes
    /** Determinism guard, part one: requests of later passes served
     * differently from the first pass, and the first of them. */
    uint64_t mismatched = 0;
    std::string mismatch;
    /** Peak RSS once the first pass is done (see peak_rss_mb). */
    double peakRssMb = 0;

    /** Fold in the next pass: keep the first, compare later ones. */
    void add(const ServedWorkload &w, Pass p);
};

void
PassRun::add(const ServedWorkload &w, Pass p)
{
    double t = 0;
    for (double l : p.latency)
        t += l;
    latency.insert(latency.end(), p.latency.begin(), p.latency.end());
    busy += t;
    perPassOps += " " + std::to_string(int(double(p.latency.size()) / t));
    if (passes++ == 0) {
        first = std::move(p);
        peakRssMb = perfbench::peakRssMb();
        return;
    }
    for (size_t i = 0; i < w.requests.size(); ++i) {
        if (p.prints[i] == first.prints[i])
            continue;
        if (mismatched++ == 0)
            mismatch = "determinism: pass " + std::to_string(passes - 1) +
                       " served " + w.requests[i].id + " as " +
                       p.prints[i].str() + ", pass 0 as " +
                       first.prints[i].str();
    }
}

/** Whole passes within `seconds` of wall time (at least one), with
 * timed repeats of the set-up between them. */
PassRun
servePasses(const ServedWorkload &w, double seconds,
            SetupTimer<ServedWorkload> &setup)
{
    PassRun run;
    const double start = nowSeconds();
    while (anotherPassFits(start, run.passes, seconds)) {
        run.add(w, servePass(w, run.passes, w.options, run.passes == 0));
        setup.repeatAfterPass(nowSeconds() - start);
    }
    return run;
}

/**
 * Determinism guard, part two: score the first pass's plans with the
 * guard's host-thread count, and, when plan search runs (the only
 * compile step with a host-thread setting), serve the first pass again
 * with that count.
 */
void
guardThreads(Result &r, const ServedWorkload &w, const Pass &first,
             const RunOptions &o)
{
    const std::string counts = std::to_string(kTimedHostThreads) + " and " +
                               std::to_string(o.guardThreads) +
                               " host threads";
    const std::map<std::string, core::Compilation> *plans = &first.plans;
    Pass again;
    if (w.options.compile.base.search.enabled) {
        svc::ServiceOptions opts = w.options;
        opts.compile.base.search.hostThreads = o.guardThreads;
        again = servePass(w, 0, opts, true);
        for (size_t i = 0; i < w.requests.size(); ++i) {
            if (!(again.prints[i] == first.prints[i])) {
                r.fail("determinism: " + w.requests[i].id +
                       " was served differently with " + counts + ": " +
                       again.prints[i].str() + " vs " +
                       first.prints[i].str());
                return;
            }
        }
        plans = &again.plans; // the same keys as the first pass's
    }
    if (planQuality(*plans, o.guardThreads, nullptr, nullptr) !=
        planQuality(first.plans, kTimedHostThreads, nullptr, nullptr))
        r.fail("determinism: simulated plan times differ between " + counts);
}

/** Run the oracle on every distinct served plan; returns failed keys. */
std::vector<std::string>
oracle(Result &r, const std::map<std::string, core::Compilation> &plans)
{
    std::vector<std::string> bad;
    for (const auto &[key, c] : plans) {
        std::string why = oracleCheck(c);
        if (!why.empty()) {
            r.fail("oracle: plan " + key + ": " + why);
            bad.push_back(key);
        }
    }
    return bad;
}

LayerCounters
passCounters(const ServedWorkload &w, const Pass &p)
{
    LayerCounters c;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const Fingerprint &f = p.prints[i];
        if (f.key.empty())
            continue;
        c.lookups += 1;
        c.hits += f.verdict == svc::Verdict::Cached ? 1 : 0;
        c.steps.push_back(f.steps);
        c.search.add(f.search);
        c.verify.add(f.verify);
    }
    c.insertions = p.insertions;
    c.evictions = p.evictions;
    return c;
}

Result
runTimed(const ServedWorkload &w, const RunOptions &o,
         SetupTimer<ServedWorkload> &setup)
{
    Result r;
    const PassRun run = servePasses(w, o.seconds, setup);
    const Pass &first = run.first;
    r.add("setup_s", setup.median(), "s");
    r.notes.push_back("setup_s: median of " +
                      std::to_string(setup.samples()) + " set-ups");
    addLatencyMetrics(r, run.latency, run.busy);

    if (!run.mismatch.empty())
        r.fail(run.mismatch);
    const std::vector<std::string> bad = oracle(r, first.plans);
    std::vector<double> quality;
    try {
        guardThreads(r, w, first, o);
        quality = planQuality(first.plans, kTimedHostThreads, nullptr, nullptr);
    } catch (const std::exception &e) {
        r.fail(std::string("simulating a served plan failed: ") + e.what());
    }
    r.add("sim_time_us_geomean", geomean(quality), "sim_us");

    // Every pass served the same as the first (or the guard failed), so
    // the first pass's outcomes count once per pass.
    uint64_t failed = 0, served = 0, full = 0;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const Fingerprint &f = first.prints[i];
        const bool wrong =
            std::find(bad.begin(), bad.end(), f.key) != bad.end();
        failed += first.failed[i] || wrong ? 1 : 0;
        if (servedAPlan(f.verdict)) {
            served += 1;
            full += f.facts.degraded ? 0 : 1;
        }
    }
    r.attempted = run.passes * w.requests.size();
    r.failed = std::min(r.attempted, run.passes * failed + run.mismatched);
    r.add("full_plan_ratio", served ? double(full) / double(served) : 0,
          "ratio");
    r.add("ok_ratio", double(r.attempted - r.failed) / double(r.attempted),
          "ratio");
    r.add("peak_rss_mb", run.peakRssMb, "MB");
    r.notes.push_back("ops_per_s by pass:" + run.perPassOps);
    r.notes.push_back("passes=" + std::to_string(run.passes) +
                      " requests_per_pass=" +
                      std::to_string(w.requests.size()) +
                      " distinct_plans=" + std::to_string(first.plans.size()));
    return r;
}

Result
runTraced(const ServedWorkload &w, const RunOptions &o, bool hitMissKernels)
{
    Result r;
    // Untraced passes (the served path itself, and the facts to replay)
    // alternate with traced replays of the same passes, so both halves
    // see the same machine conditions and their ratio is the overhead.
    PassRun run;
    SpanRecorder rec;
    LayerCounters served;
    double tracedBusy = 0;
    uint64_t traced = 0;
    size_t firstPassSpans = 0;
    const double start = nowSeconds();
    for (size_t k = 0; k < 2 || anotherPassFits(start, k, o.seconds); ++k) {
        const size_t pass = k / 2;
        if (k % 2 == 0) {
            run.add(w, servePass(w, pass, w.options, pass == 0));
            if (pass == 0)
                served = passCounters(w, run.first);
            continue;
        }
        ServedPathReplay replay(w.options);
        uint64_t hits = 0;
        for (size_t i : w.order(pass)) {
            const Request &q = w.requests[i];
            rec.beginRequest(q.id, q.kernel);
            const double t0 = nowSeconds();
            const ReplayOutcome out = replay.serve(rec, q.source);
            tracedBusy += nowSeconds() - t0;
            traced += 1;
            hits += out.verdict == svc::Verdict::Cached ? 1 : 0;
            if (hitMissKernels)
                rec.setKernel(out.verdict == svc::Verdict::Cached ? "hit"
                                                                  : "miss");
            const Fingerprint &f = run.first.prints[i];
            const bool same = out.verdict == f.verdict && out.key == f.key &&
                              out.facts == f.facts &&
                              (!out.compiled || (out.search == f.search &&
                                                 out.verify == f.verify));
            if (!same) {
                r.failed += 1;
                if (r.errors.size() < 5)
                    r.fail("replay: " + q.id + " replayed as " +
                           std::string(svc::verdictName(out.verdict)) +
                           " key=" + out.key + " " + out.facts.str() +
                           ", served as " + f.str());
            }
        }
        if (replay.cache().insertions() != served.insertions ||
            replay.cache().evictions() != served.evictions ||
            hits != served.hits)
            r.fail("replay: cache traffic differs from the service's");
        if (pass == 0)
            firstPassSpans = rec.spans().size();
    }
    const Pass &first = run.first;
    if (!run.mismatch.empty())
        r.fail(run.mismatch);
    r.attempted = run.latency.size() + traced;
    r.failed += run.mismatched;
    for (size_t i = 0; i < w.requests.size(); ++i)
        r.failed += first.failed[i] ? run.passes : 0;

    LayerCounters counters = served;
    try {
        planQuality(first.plans, kTimedHostThreads, &rec, &counters);
    } catch (const std::exception &e) {
        r.fail(std::string("simulating a served plan failed: ") + e.what());
    }
    const LayerTotals totals = aggregateSpans(rec);
    addLayerMetrics(r, totals, counters,
                    double(run.latency.size()) / run.busy,
                    double(traced) / tracedBusy);
    printKernelTable(totals, w.name);
    if (!o.traceOut.empty())
        rec.writeTrace(o.traceOut, "anc_e2e " + w.name,
                       std::min<size_t>(firstPassSpans, 50000));
    r.notes.push_back("traced_requests=" + std::to_string(traced) +
                      " spans=" + std::to_string(rec.spans().size()));
    return r;
}

std::string
readFile(const std::filesystem::path &p)
{
    std::ifstream in(p);
    if (!in)
        throw UserError("cannot read " + p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

ServedWorkload
coldSearchWorkload(const RunOptions &o)
{
    ServedWorkload w;
    w.name = "cold_search";
    w.shuffle = true;
    w.seed = o.seed;
    w.options.compile.base.search.enabled = true;
    w.options.compile.base.search.hostThreads = kTimedHostThreads;
    std::vector<Request> all;
    using Factory = ir::Program (*)();
    const std::pair<const char *, Factory> gallery[] = {
        {"figure1", ir::gallery::figure1},
        {"section3Example", ir::gallery::section3Example},
        {"scalingExample", ir::gallery::scalingExample},
        {"section5Example", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
        {"skewedScatter", ir::gallery::skewedScatter},
        {"syr2kBanded", ir::gallery::syr2kBanded}};
    for (const auto &[name, make] : gallery)
        all.push_back({name, dsl::printDsl(make()), name});
    std::vector<std::filesystem::path> samples;
    for (const auto &e : std::filesystem::directory_iterator(o.samplesDir))
        if (e.path().extension() == ".an")
            samples.push_back(e.path());
    std::sort(samples.begin(), samples.end());
    for (const auto &p : samples) {
        const std::string name = "samples/" + p.filename().string();
        all.push_back({name, readFile(p), name});
    }
    // One request per plan key: the service would answer a second
    // program with the same key from its cache.
    svc::Service service(w.options);
    numa::MachineParams machine = w.options.machine;
    core::CompileOptions keyed = service.options().compile.base;
    std::vector<std::string> keys;
    for (Request &q : all) {
        svc::CanonicalForm canon =
            svc::canonicalize(dsl::parseProgram(q.source));
        std::string key = svc::planKey(canon, machine, keyed).hex();
        if (std::find(keys.begin(), keys.end(), key) != keys.end())
            continue;
        keys.push_back(key);
        w.requests.push_back(std::move(q));
    }
    return w;
}

ServedWorkload
clusteredHotWorkload(const RunOptions &o)
{
    // 64 segments of 512 requests over 16 clusters each: every segment
    // brings 16 fresh programs, so about 3 % of requests miss, spread
    // evenly through the pass.
    constexpr size_t kSegments = 64, kClusters = 16, kSegmentRequests = 512;
    ServedWorkload w;
    w.name = "clustered_hot";
    w.seed = o.seed;
    for (size_t s = 0; s < kSegments; ++s) {
        svc::WorkloadOptions wo;
        wo.seed = mixSeed(o.seed, s);
        wo.clusters = kClusters;
        wo.requests = kSegmentRequests;
        for (svc::BatchRequest &q : svc::clusteredWorkload(wo))
            w.requests.push_back({"s" + std::to_string(s) + "-" + q.id,
                                  std::move(q.source), "stream"});
    }
    // Service construction counts as set-up (each pass builds its own,
    // outside the request timings).
    svc::Service service(w.options);
    return w;
}

} // namespace

Result
runColdSearch(const RunOptions &o)
{
    SetupTimer<ServedWorkload> setup([&] { return coldSearchWorkload(o); });
    const ServedWorkload w = setup.run();
    if (o.trace)
        return runTraced(w, o, false);
    return runTimed(w, o, setup);
}

Result
runClusteredHot(const RunOptions &o)
{
    SetupTimer<ServedWorkload> setup([&] { return clusteredHotWorkload(o); });
    const ServedWorkload w = setup.run();
    if (o.trace)
        return runTraced(w, o, true);
    return runTimed(w, o, setup);
}

} // namespace anc::perfbench
