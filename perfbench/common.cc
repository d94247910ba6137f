#include "bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "ir/interp.h"
#include "numa/simulator.h"
#include "obs/trace.h"
#include "ratmath/error.h"

namespace anc::perfbench {

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace {

/** Sample at nearest rank `rank` (1-based) of sorted samples. */
double
atRank(const std::vector<double> &sorted, size_t rank)
{
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/** Nearest rank of the percentile 100 * (1 - 1/divisor): n minus the
 * floor(n / divisor) samples that lie beyond it. Integer arithmetic, so
 * p90 of 100 samples is exactly rank 90. */
size_t
rankForDivisor(size_t n, uint64_t divisor)
{
    return n - size_t(n / divisor);
}

std::string
percentileLabel(uint64_t divisor)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%.10g", 100.0 - 100.0 / double(divisor));
    return buf;
}

/** Divisor of the tail percentile: 2 (p50), 10 (p90), 100 (p99), ...,
 * the largest with at least ten samples beyond its rank. */
uint64_t
tailDivisor(size_t n)
{
    uint64_t d = 2;
    for (uint64_t next = 10; next <= uint64_t(1) << 60 && n / next >= 10;
         next *= 10)
        d = next;
    return d;
}

const char *
schemeName(numa::PartitionScheme s)
{
    switch (s) {
    case numa::PartitionScheme::RoundRobin:
        return "round-robin";
    case numa::PartitionScheme::OwnerWrapped:
        return "owner-wrapped";
    case numa::PartitionScheme::OwnerBlocked:
        return "owner-blocked";
    case numa::PartitionScheme::OwnerBlock2D:
        return "owner-block2d";
    }
    return "unknown";
}

} // namespace

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the peak of
    // the process image before exec (here, the Python launcher), which
    // would mask any footprint smaller than the launcher's.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::stod(line.substr(6)) / 1024.0; // in kB
    return 0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

void
addLatencyMetrics(Result &r, const std::vector<double> &latencies,
                  double wallSeconds)
{
    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    const size_t n = sorted.size();
    const uint64_t d = tailDivisor(n);
    const size_t tailRank = rankForDivisor(n, d);
    r.add("ops_per_s", wallSeconds > 0 ? double(n) / wallSeconds : 0, "1/s");
    r.add("latency_p50_ms", atRank(sorted, rankForDivisor(n, 2)) * 1e3, "ms");
    r.add("latency_tail_ms", atRank(sorted, tailRank) * 1e3, "ms");
    r.notes.push_back("latency_p50=p50 tail=" + percentileLabel(d) + " of " +
                      std::to_string(n) + " samples (" +
                      std::to_string(n - tailRank) + " beyond)");
}

// ---------------------------------------------------------------------
// Spans

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

uint32_t
SpanRecorder::beginRequest(std::string name, std::string kernel)
{
    names_.push_back(std::move(name));
    kernels_.push_back(std::move(kernel));
    request_ = uint32_t(names_.size() - 1);
    return request_;
}

void
SpanRecorder::addClosed(const char *name, double start, double end)
{
    spans_.push_back({name, request_, open_, start, end});
}

SpanRecorder::Scope::Scope(SpanRecorder &r, const char *name)
    : rec_(r), index_(int32_t(r.spans_.size()))
{
    rec_.spans_.push_back({name, rec_.request_, rec_.open_, 0, 0});
    rec_.open_ = index_;
    rec_.spans_[size_t(index_)].start = rec_.nowUs();
}

SpanRecorder::Scope::~Scope()
{
    Span &s = rec_.spans_[size_t(index_)];
    s.end = rec_.nowUs();
    rec_.open_ = s.parent;
}

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    // Spans of one client nest strictly, so each child's interval lies
    // inside its parent's and siblings never overlap.
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[size_t(s.parent)] -= s.end - s.start;
    return self;
}

void
SpanRecorder::writeTrace(const std::string &path, const std::string &track,
                         size_t limit) const
{
    // Cut at a root span so no request is written half.
    size_t n = std::min(limit, spans_.size());
    while (n < spans_.size() && spans_[n].parent >= 0)
        ++n;
    obs::Trace t;
    const int64_t pid = t.process(track);
    t.thread(pid, 0, "client 0");
    for (size_t i = 0; i < n; ++i) {
        const Span &s = spans_[i];
        obs::TraceEvent e;
        e.name = s.name;
        e.ph = 'X';
        e.pid = pid;
        e.tid = 0;
        e.ts = s.start;
        e.dur = s.end - s.start;
        e.arg("request", obs::jsonStr(names_[s.request]));
        e.arg("span", obs::jsonNum(uint64_t(i)));
        e.arg("parent", obs::jsonNum(int64_t(s.parent)));
        t.add(std::move(e));
    }
    t.writeFile(path);
}

LayerTotals
aggregateSpans(const SpanRecorder &rec)
{
    LayerTotals t;
    const std::vector<double> self = rec.selfTimes();
    const std::vector<SpanRecorder::Span> &spans = rec.spans();
    // Requests are served one after another, so a request's spans are
    // contiguous: "last request seen" is enough to count each once.
    uint32_t lastRequest = UINT32_MAX;
    std::map<std::string, uint32_t> lastByLayer;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecorder::Span &s = spans[i];
        const std::string &k = rec.kernel(s.request);
        t.selfUs[s.name] += self[i];
        t.byKernel[k][s.name] += self[i];
        auto [it, fresh] = lastByLayer.try_emplace(s.name, s.request);
        if (fresh || it->second != s.request) {
            it->second = s.request;
            t.requests[s.name] += 1;
        }
        if (s.request != lastRequest) {
            lastRequest = s.request;
            t.requestsByKernel[k] += 1;
        }
    }
    return t;
}

void
printKernelTable(const LayerTotals &t, const std::string &workload)
{
    // Layers in descending order of total self time.
    std::vector<std::pair<double, std::string>> layers;
    for (const auto &[name, us] : t.selfUs)
        layers.push_back({-us, name});
    std::sort(layers.begin(), layers.end());

    std::printf("# %s: self time by layer, us per request (traced run)\n",
                workload.c_str());
    std::printf("%-26s %6s %10s  %-24s", "kernel", "reqs", "total",
                "top layer");
    for (const auto &l : layers)
        std::printf(" %*s", int(std::max<size_t>(l.second.size(), 8)),
                    l.second.c_str());
    std::printf("\n");
    for (const auto &[kernel, byLayer] : t.byKernel) {
        const double reqs = double(t.requestsByKernel.at(kernel));
        double total = 0, best = -1;
        std::string top;
        for (const auto &[name, us] : byLayer) {
            total += us;
            if (us > best) {
                best = us;
                top = name;
            }
        }
        char share[32];
        std::snprintf(share, sizeof share, " %.0f%%",
                      total > 0 ? 100.0 * best / total : 0.0);
        std::printf("%-26s %6.0f %10.1f  %-24s", kernel.c_str(), reqs,
                    total / reqs, (top + share).c_str());
        for (const auto &l : layers) {
            auto it = byLayer.find(l.second);
            std::printf(" %*.1f", int(std::max<size_t>(l.second.size(), 8)),
                        it == byLayer.end() ? 0.0 : it->second / reqs);
        }
        std::printf("\n");
    }
}

void
LayerCounters::addSim(const numa::SimStats &s)
{
    classes += s.aggregated ? s.classes.size() : s.perProc.size();
    processors += uint64_t(s.processors);
    directRuns += s.aggregated ? 0 : 1;
    iterations += s.totalIterations();
}

void
addLayerMetrics(Result &r, const LayerTotals &t, const LayerCounters &c,
                double untracedOpsPerS, double tracedOpsPerS)
{
    auto perRequest = [&](const char *layer) {
        auto it = t.selfUs.find(layer);
        return it == t.selfUs.end() ? 0.0
                                    : it->second / double(t.requests.at(layer));
    };
    auto ratio = [](uint64_t a, uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };
    std::vector<double> steps(c.steps.begin(), c.steps.end());
    std::sort(steps.begin(), steps.end());
    const char *timed[] = {
        "dsl.parse",         "svc.canonicalize", "svc.plan_key",
        "svc.cache.lookup",  "svc.cache.insert", "svc.serve",
        "deps.analyze",      "xform.normalize",  "codegen.plan",
        "codegen.strength_reduce", "codegen.emit", "verify.validate",
        "core.differential", "core.compile",     "xform.search",
        "numa.simulate"};
    for (const char *layer : timed) {
        std::string name = layer;
        // The two envelopes report their own (self) share only.
        if (name == "svc.serve" || name == "core.compile")
            name += "_self";
        r.add(name + "_us", perRequest(layer), "us");
    }
    r.add("svc.cache.hit_ratio", ratio(c.hits, c.lookups), "ratio");
    r.add("svc.cache.insertions", double(c.insertions), "count");
    r.add("svc.cache.evictions", double(c.evictions), "count");
    r.add("svc.steps_p50",
          steps.empty() ? 0 : atRank(steps, rankForDivisor(steps.size(), 2)),
          "steps");
    r.add("svc.steps_max", steps.empty() ? 0 : steps.back(), "steps");
    r.add("xform.search.enumerated", double(c.search.enumerated), "count");
    r.add("xform.search.scored", double(c.search.scored), "count");
    r.add("xform.search.pruned", double(c.search.pruned), "count");
    r.add("xform.search.sim_runs", double(c.search.simRuns), "count");
    r.add("xform.search.improved", double(c.search.improved), "count");
    r.add("verify.checks", double(c.verify.checks), "count");
    r.add("verify.passed_ratio", ratio(c.verify.passed, c.verify.checks),
          "ratio");
    r.add("numa.classes", double(c.classes), "count");
    r.add("numa.class_ratio", ratio(c.classes, c.processors), "ratio");
    r.add("numa.direct_runs", double(c.directRuns), "count");
    r.add("numa.iterations", double(c.iterations), "count");
    r.add("trace.untraced_ops_per_s", untracedOpsPerS, "1/s");
    r.add("trace.traced_ops_per_s", tracedOpsPerS, "1/s");
    r.add("trace.overhead_ratio",
          tracedOpsPerS > 0 ? untracedOpsPerS / tracedOpsPerS : 0, "x");
}

std::vector<double>
planQuality(const std::map<std::string, core::Compilation> &plans,
            Int hostThreads, SpanRecorder *rec, LayerCounters *counters)
{
    std::vector<double> times;
    for (const auto &[key, c] : plans) {
        if (rec)
            rec->beginRequest("quality " + key, "plan-quality");
        for (Int p : {4, 32}) {
            numa::SimOptions so;
            so.processors = p;
            so.hostThreads = hostThreads;
            numa::SimStats s;
            if (rec) {
                SpanRecorder::Scope span(*rec, "numa.simulate");
                s = core::simulate(c, so, uniformBindings(c.program, 32));
            } else {
                s = core::simulate(c, so, uniformBindings(c.program, 32));
            }
            if (counters)
                counters->addSim(s);
            times.push_back(s.parallelTime());
        }
    }
    return times;
}

// ---------------------------------------------------------------------
// Plans and the oracle

std::string
PlanFacts::str() const
{
    return "tier=" + tier + " T=" + transform + " scheme=" + scheme +
           " validated=" + (validated ? "1" : "0") +
           " degraded=" + (degraded ? "1" : "0");
}

PlanFacts
planFacts(const core::Compilation &c)
{
    PlanFacts f;
    f.tier = core::tierName(c.tier);
    const IntMatrix &t = c.normalization.transform;
    f.transform = "[";
    for (size_t i = 0; i < t.rows(); ++i) {
        f.transform += i ? "; " : "";
        for (size_t j = 0; j < t.cols(); ++j)
            f.transform += (j ? " " : "") + std::to_string(t(i, j));
    }
    f.transform += "]";
    f.scheme = schemeName(c.plan.scheme);
    f.validated = c.validated;
    f.degraded = c.degraded();
    return f;
}

void
SearchCounts::add(const SearchCounts &o)
{
    enumerated += o.enumerated;
    scored += o.scored;
    pruned += o.pruned;
    simRuns += o.simRuns;
    improved += o.improved;
}

SearchCounts
searchCounts(const core::Compilation &c)
{
    SearchCounts n;
    if (!c.search.ran)
        return n;
    n.enumerated = c.search.enumerated;
    n.scored = c.search.scored;
    n.pruned = c.search.pruned;
    n.improved = c.search.improved ? 1 : 0;
    // Every scored candidate is simulated once per swept machine size.
    for (const xform::SearchScore &s : c.search.trail)
        n.simRuns += s.simTimesUs.size();
    return n;
}

VerifyCounts
verifyCounts(const core::Compilation &c)
{
    VerifyCounts n;
    for (const verify::CheckResult &r : c.validation.checks) {
        n.checks += 1;
        n.passed += r.passed ? 1 : 0;
    }
    return n;
}

ir::Bindings
uniformBindings(const ir::Program &p, Int value)
{
    // Scalars get a small exact value so that reordered floating-point
    // sums stay exact, as ArrayStorage::fillDeterministic's data does.
    return ir::Bindings{IntVec(p.params.size(), value),
                        std::vector<double>(p.scalars.size(), 2.0)};
}

std::string
oracleCheck(const core::Compilation &c)
{
    const ir::Program &p = c.program;
    const std::vector<Int> candidates =
        p.params.empty() ? std::vector<Int>{0}
                         : std::vector<Int>{5, 4, 6, 3, 7, 2};
    for (Int v : candidates) {
        const ir::Bindings binds = uniformBindings(p, v);
        double elements = 0;
        bool feasible = true;
        for (const ir::ArrayDecl &a : p.arrays) {
            double n = 1;
            for (Int e : a.evalExtents(binds.paramValues)) {
                feasible = feasible && e > 0;
                n *= double(e);
            }
            elements += n;
        }
        if (!feasible || elements > double(1 << 20))
            continue;
        ir::ArrayStorage expected(p, binds.paramValues);
        expected.fillDeterministic(0x5eed);
        try {
            ir::run(p, binds, expected);
        } catch (const UserError &) {
            continue; // a subscript leaves its array at this binding
        }
        ir::ArrayStorage got(p, binds.paramValues);
        got.fillDeterministic(0x5eed);
        numa::SimOptions so;
        so.processors = c.plan.outerParallel ? 3 : 1;
        so.executeValues = true;
        so.hostThreads = 1;
        numa::SimStats s;
        try {
            numa::Simulator sim(p, c.nest(), c.plan, so);
            s = sim.run(binds, &got);
        } catch (const std::exception &e) {
            return std::string("value-executing the plan failed: ") +
                   e.what();
        }
        for (size_t a = 0; a < expected.numArrays(); ++a) {
            const std::vector<double> &x = expected.data(a), &y = got.data(a);
            if (x.size() != y.size() ||
                std::memcmp(x.data(), y.data(), x.size() * sizeof(double)))
                return "array '" + p.arrays[a].name +
                       "' differs from ir::run at parameters=" +
                       std::to_string(v);
        }
        const uint64_t trip = ir::forEachIteration(p.nest, binds.paramValues,
                                                   [](const IntVec &) {});
        if (s.totalIterations() != trip)
            return "simulated " + std::to_string(s.totalIterations()) +
                   " iterations, source trip count " + std::to_string(trip);
        return "";
    }
    return "no feasible small parameter binding to check values at";
}

} // namespace anc::perfbench
