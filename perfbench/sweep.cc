/**
 * @file
 * paper_sweep: the paper's Section 8 experiment at paper scale. GEMM
 * (N = 400) and banded SYR2K (N = 400, b = 100) are compiled in setup,
 * normalized and untransformed, through core::compileResilient; each op
 * then simulates one plan, with or without block transfers, at one
 * machine size. The small sizes take the simulator's direct path, the
 * large ones numa/symmetry aggregation. Nothing runs through svc or
 * plan search.
 */

#include <algorithm>
#include <cstring>

#include "bench.h"
#include "ir/gallery.h"
#include "ir/interp.h"

namespace anc::perfbench {

namespace {

const Int kProcessors[] = {1,  2,  4,  8,         12,        16,
                           20, 24, 28, Int(1) << 12, Int(1) << 16,
                           Int(1) << 20};

struct Plan
{
    std::string name; //!< "gemm/normalized", ...
    ir::Program program;
    core::ResilientOptions options;
    core::Compilation compilation;
    ir::Bindings binds;
    uint64_t tripCount = 0;
};

struct Op
{
    size_t plan;
    bool blockTransfers;
    Int processors;
};

/** What one simulation produced, exactly. */
struct Point
{
    double time = 0; //!< simulated parallel time, us
    uint64_t classes = 0, iterations = 0;
    bool aggregated = false;

    bool operator==(const Point &o) const
    {
        return std::memcmp(&time, &o.time, sizeof time) == 0 &&
               classes == o.classes && iterations == o.iterations &&
               aggregated == o.aggregated;
    }
};

std::vector<Plan>
compilePlans()
{
    std::vector<Plan> plans;
    const std::pair<const char *, ir::Program> kernels[] = {
        {"gemm", ir::gallery::gemm()}, {"syr2k", ir::gallery::syr2kBanded()}};
    for (const auto &[name, prog] : kernels) {
        for (bool identity : {false, true}) {
            Plan p;
            p.name = std::string(name) +
                     (identity ? "/untransformed" : "/normalized");
            p.program = prog;
            p.options = svc::validatedCompileDefaults();
            p.options.base.identityTransform = identity;
            p.compilation = core::compileResilient(p.program, p.options);
            p.binds = uniformBindings(p.program, 400);
            if (p.program.params.size() == 2)
                p.binds.paramValues[1] = 100; // SYR2K band width b
            plans.push_back(std::move(p));
        }
    }
    return plans;
}

std::vector<Op>
sweepOps(size_t plans, uint64_t seed)
{
    std::vector<Op> ops;
    for (size_t p = 0; p < plans; ++p)
        for (bool bt : {false, true})
            for (Int procs : kProcessors)
                ops.push_back({p, bt, procs});
    seededShuffle(ops, mixSeed(seed, 0));
    return ops;
}

numa::SimStats
simulate(const Plan &p, const Op &op, Int threads)
{
    numa::SimOptions so;
    so.processors = op.processors;
    so.blockTransfers = op.blockTransfers;
    so.hostThreads = threads;
    return core::simulate(p.compilation, so, p.binds);
}

Point
pointOf(const numa::SimStats &s)
{
    return {s.parallelTime(),
            uint64_t(s.aggregated ? s.classes.size() : s.perProc.size()),
            s.totalIterations(), s.aggregated};
}

/** One sweep: every op once; returns the points in op order. */
std::vector<Point>
sweep(const std::vector<Plan> &plans, const std::vector<Op> &ops, Int threads,
      std::vector<double> *latency, SpanRecorder *rec,
      LayerCounters *counters)
{
    std::vector<Point> points;
    for (const Op &op : ops) {
        const Plan &p = plans[op.plan];
        numa::SimStats s;
        const double t0 = nowSeconds();
        if (rec) {
            rec->beginRequest(p.name + " P=" + std::to_string(op.processors) +
                                  (op.blockTransfers ? " B" : " T"),
                              p.name);
            SpanRecorder::Scope span(*rec, "numa.simulate");
            s = simulate(p, op, threads);
        } else {
            s = simulate(p, op, threads);
        }
        if (latency)
            latency->push_back(nowSeconds() - t0);
        if (counters)
            counters->addSim(s);
        points.push_back(pointOf(s));
    }
    return points;
}

/** The set-up's result: the compiled plans and the sweep's ops. */
struct Inputs
{
    std::vector<Plan> plans;
    std::vector<Op> ops;
};

/** Whole sweeps within `seconds` (at least one), with timed repeats of
 * the set-up between them; `rssAfterFirst` receives the peak RSS once
 * the first sweep is done. */
std::vector<std::vector<Point>>
timedSweeps(const Inputs &in, Int threads, double seconds,
            std::vector<double> *latency, double *rssAfterFirst,
            SetupTimer<Inputs> &setup)
{
    std::vector<std::vector<Point>> sweeps;
    const double start = nowSeconds();
    while (anotherPassFits(start, sweeps.size(), seconds)) {
        sweeps.push_back(
            sweep(in.plans, in.ops, threads, latency, nullptr, nullptr));
        if (sweeps.size() == 1)
            *rssAfterFirst = peakRssMb();
        setup.repeatAfterPass(nowSeconds() - start);
    }
    return sweeps;
}

/** The plan checks shared by both runs; returns failed plan count. */
uint64_t
checkPlans(Result &r, const std::vector<Plan> &plans)
{
    uint64_t bad = 0;
    for (const Plan &p : plans) {
        const core::Compilation &c = p.compilation;
        std::string why;
        if (!c.validated)
            why = "plan not validated";
        else if (c.tier != (p.options.base.identityTransform
                                ? core::CompileTier::Identity
                                : core::CompileTier::Full))
            why = std::string("unexpected tier ") + core::tierName(c.tier);
        else
            why = oracleCheck(c);
        if (!why.empty()) {
            r.fail("oracle: " + p.name + ": " + why);
            ++bad;
        }
    }
    return bad;
}

} // namespace

Result
runPaperSweep(const RunOptions &o)
{
    SetupTimer<Inputs> setup([&] {
        Inputs in{compilePlans(), {}};
        in.ops = sweepOps(in.plans.size(), o.seed);
        return in;
    });
    Inputs in = setup.run();
    std::vector<Plan> &plans = in.plans;
    const std::vector<Op> &ops = in.ops;

    Result r;
    // The oracle's half of the checks runs after the timed sweeps; these
    // count the sweep points that failed them.
    auto checkIterations = [&](const std::vector<Point> &points) {
        uint64_t wrong = 0;
        for (size_t i = 0; i < ops.size(); ++i)
            if (points[i].iterations != plans[ops[i].plan].tripCount) {
                if (wrong++ == 0)
                    r.fail("oracle: " + plans[ops[i].plan].name + " at P=" +
                           std::to_string(ops[i].processors) + " simulated " +
                           std::to_string(points[i].iterations) +
                           " iterations, the source has " +
                           std::to_string(plans[ops[i].plan].tripCount));
            }
        return wrong;
    };
    auto checkAll = [&](const std::vector<std::vector<Point>> &sweeps) {
        uint64_t failed = checkPlans(r, plans) ? sweeps.size() * ops.size()
                                                : 0;
        // Source trip counts, from the interpreter's own nest walk.
        for (Plan &p : plans)
            p.tripCount = ir::forEachIteration(
                p.program.nest, p.binds.paramValues, [](const IntVec &) {});
        for (const auto &s : sweeps) {
            failed += checkIterations(s);
            // Determinism guard, part one: every sweep equals the first.
            for (size_t i = 0; i < ops.size(); ++i)
                failed += s[i] == sweeps[0][i] ? 0 : 1;
        }
        if (failed)
            r.fail("oracle or determinism: " + std::to_string(failed) +
                   " sweep points failed");
        return failed;
    };

    if (o.trace) {
        SpanRecorder rec;
        // The setup compiles, repeated with their phase spans, must
        // reproduce the compiled plans.
        LayerCounters counters;
        for (const Plan &p : plans) {
            rec.beginRequest("compile " + p.name, "compile " + p.name);
            core::Compilation c = tracedCompile(rec, p.program, p.options);
            if (!(planFacts(c) == planFacts(p.compilation)))
                r.fail("replay: " + p.name + " replayed as " +
                       planFacts(c).str() + ", compiled as " +
                       planFacts(p.compilation).str());
            counters.verify.add(verifyCounts(c));
        }
        const size_t compileSpans = rec.spans().size();
        // Untraced sweeps alternate with traced ones, so both see the
        // same machine conditions and their ratio is the overhead.
        std::vector<std::vector<Point>> untracedSweeps;
        std::vector<double> lat, tracedLat;
        const double start = nowSeconds();
        for (size_t k = 0; k < 2 || anotherPassFits(start, k, o.seconds);
             ++k) {
            if (k % 2 == 0) {
                untracedSweeps.push_back(
                    sweep(plans, ops, kTimedHostThreads, &lat, nullptr,
                          nullptr));
                continue;
            }
            if (sweep(plans, ops, kTimedHostThreads, &tracedLat, &rec,
                      k == 1 ? &counters : nullptr) != untracedSweeps[0])
                r.fail("replay: a traced sweep differs from the untraced one");
        }
        double busy = 0, tracedBusy = 0;
        for (double l : lat)
            busy += l;
        for (double l : tracedLat)
            tracedBusy += l;
        const double untraced = double(lat.size()) / busy;
        r.attempted = lat.size() + tracedLat.size();
        r.failed = std::min(r.attempted, checkAll(untracedSweeps));

        const LayerTotals totals = aggregateSpans(rec);
        addLayerMetrics(r, totals, counters, untraced,
                        double(tracedLat.size()) / tracedBusy);
        printKernelTable(totals, "paper_sweep");
        if (!o.traceOut.empty())
            rec.writeTrace(o.traceOut, "anc_e2e paper_sweep",
                           compileSpans + ops.size());
        return r;
    }

    std::vector<double> lat;
    double rss = 0;
    const auto sweeps =
        timedSweeps(in, kTimedHostThreads, o.seconds, &lat, &rss, setup);
    double busy = 0;
    for (double l : lat)
        busy += l;

    r.attempted = lat.size();
    r.failed = std::min(r.attempted, checkAll(sweeps));
    // Determinism guard, part two: a sweep with the guard's host-thread
    // count equals the first.
    if (sweep(plans, ops, o.guardThreads, nullptr, nullptr, nullptr) !=
        sweeps[0])
        r.fail("determinism: the sweep differs between " +
               std::to_string(kTimedHostThreads) + " and " +
               std::to_string(o.guardThreads) + " host threads");

    std::vector<double> times;
    for (const Point &p : sweeps[0])
        times.push_back(p.time);
    uint64_t full = 0;
    for (const Plan &p : plans)
        full += p.compilation.normalization.conservativeFallback ? 0 : 1;

    r.add("setup_s", setup.median(), "s");
    r.notes.push_back("setup_s: median of " +
                      std::to_string(setup.samples()) + " set-ups");
    addLatencyMetrics(r, lat, busy);
    r.add("sim_time_us_geomean", geomean(times), "sim_us");
    // Every plan reached the tier it asked for (checkPlans); an
    // untransformed baseline is not a degradation.
    r.add("full_plan_ratio", double(full) / double(plans.size()), "ratio");
    r.add("ok_ratio", double(r.attempted - r.failed) / double(r.attempted),
          "ratio");
    r.add("peak_rss_mb", rss, "MB");
    std::string perSweep;
    for (size_t i = 0; i < lat.size(); i += ops.size()) {
        double t = 0;
        for (size_t k = i; k < i + ops.size(); ++k)
            t += lat[k];
        perSweep += " " + std::to_string(int(double(ops.size()) / t));
    }
    r.notes.push_back("ops_per_s by sweep:" + perSweep);
    r.notes.push_back("sweeps=" + std::to_string(sweeps.size()) +
                      " ops_per_sweep=" + std::to_string(ops.size()));
    return r;
}

} // namespace anc::perfbench
