/**
 * @file
 * Shared pieces of the served-path benchmark (`anc_e2e`): run options,
 * exact percentiles, the in-memory span recorder, the output oracle,
 * plan fingerprints for the replay check, and the result record every
 * workload fills in.
 *
 * See perfbench/README.md for the workloads, the metrics and why each
 * was chosen.
 */

#ifndef ANC_PERFBENCH_BENCH_H
#define ANC_PERFBENCH_BENCH_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "numa/stats.h"
#include "svc/service.h"

namespace anc::perfbench {

/**
 * Host threads for the timed work (search scoring and simulation): one,
 * the steadiest setting on a shared machine. The determinism guard
 * repeats the work with RunOptions::guardThreads.
 */
constexpr Int kTimedHostThreads = 1;

/** Command-line options of one benchmark run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Host threads of the determinism guard's second run (nproc). */
    Int guardThreads = 1;
    /** Directory holding the `*.an` sample programs. */
    std::string samplesDir = "tools/samples";
    /** Where the traced run writes its Chrome trace ("" = nowhere). */
    std::string traceOut;
};

inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Whether another pass of a time-boxed loop fits: at least one pass
 * always runs, and another only when, at the mean pass time so far, it
 * would end within the budget. Whole passes keep every request equally
 * represented in the samples.
 */
inline bool
anotherPassFits(double start, size_t passes, double seconds)
{
    if (passes == 0)
        return true;
    const double elapsed = nowSeconds() - start;
    return elapsed + elapsed / double(passes) <= seconds;
}

/**
 * A workload's set-up, timed every time it runs; setup_s is the median.
 * It runs once before the timed work, for the inputs, and is repeated
 * after every pass with its result thrown away, more than once while
 * the set-ups have taken under a twentieth of the run's time. A set-up
 * can take a millisecond, and the speed of a shared machine drifts by
 * tens of percent over seconds, so samples spread through the run see
 * the same conditions as the ops do, where a burst of repeats before
 * the first op would see only that moment's.
 */
template <typename T>
class SetupTimer
{
  public:
    explicit SetupTimer(std::function<T()> setUp) : setUp_(std::move(setUp))
    {
    }

    /** Run the set-up once, record its duration, return its result. */
    T
    run()
    {
        const double t0 = nowSeconds();
        T inputs = setUp_();
        seconds_.push_back(nowSeconds() - t0);
        spent_ += seconds_.back();
        return inputs;
    }

    /** After a pass: repeat the set-up once, and again while all
     * set-ups so far have taken less than a twentieth of `elapsed`, the
     * run's time so far. */
    void
    repeatAfterPass(double elapsed)
    {
        do
            run();
        while (spent_ < elapsed / 20);
    }

    size_t samples() const { return seconds_.size(); }

    double
    median() const
    {
        std::vector<double> t = seconds_;
        std::sort(t.begin(), t.end());
        return t[t.size() / 2];
    }

  private:
    std::function<T()> setUp_;
    std::vector<double> seconds_;
    double spent_ = 0;
};

/** splitmix64: derives independent seeds from the run seed. */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/** Fisher-Yates on raw mt19937_64 output, so the order is the same on
 * every standard library (std::shuffle's is not). */
template <typename T>
void
seededShuffle(std::vector<T> &v, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[size_t(rng() % i)]);
}

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/**
 * In-memory spans around the calls the benchmark makes into each
 * layer. One recorder serves one single-threaded client; a span's
 * parent is the span open when it started.
 */
class SpanRecorder
{
  public:
    struct Span
    {
        const char *name;
        uint32_t request; //!< request index (see beginRequest)
        int32_t parent;   //!< -1 for a root span
        double start;     //!< microseconds since the recorder started
        double end;
    };

    /** RAII scope: closes its span when destroyed. */
    class Scope
    {
      public:
        Scope(SpanRecorder &r, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int32_t index_;
    };

    SpanRecorder();

    /** Microseconds since the recorder started. */
    double nowUs() const;

    /** Record a span that has already ended as a child of the open
     * span (for timings taken by the code under test itself). */
    void addClosed(const char *name, double start, double end);

    /** Start attributing spans to a new request; returns its index. */
    uint32_t beginRequest(std::string name, std::string kernel);
    /** Relabel the current request's kernel (e.g. once a cache lookup
     * has told a hit from a miss). */
    void setKernel(std::string kernel) { kernels_[request_] = std::move(kernel); }

    const std::vector<Span> &spans() const { return spans_; }
    const std::string &kernel(uint32_t r) const { return kernels_[r]; }

    /** Self time of every span: its duration minus the part its child
     * spans cover. */
    std::vector<double> selfTimes() const;

    /** Write the first `limit` spans as a Chrome trace via obs::Trace,
     * with request id, span id and parent span id as arguments. */
    void writeTrace(const std::string &path, const std::string &track,
                    size_t limit) const;

  private:
    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::string> names_, kernels_;
    uint32_t request_ = 0;
    int32_t open_ = -1;
};

/** Per-layer aggregate of a traced run. */
struct LayerTotals
{
    std::map<std::string, double> selfUs; //!< layer -> summed self time
    /** layer -> requests with at least one span of that layer. */
    std::map<std::string, uint64_t> requests;
    /** kernel -> layer -> summed self time. */
    std::map<std::string, std::map<std::string, double>> byKernel;
    std::map<std::string, uint64_t> requestsByKernel;
};

LayerTotals aggregateSpans(const SpanRecorder &rec);

/** Print the per-kernel table of self time by layer (us per request). */
void printKernelTable(const LayerTotals &t, const std::string &workload);

/** The facts of a served plan that the replay must reproduce. */
struct PlanFacts
{
    std::string tier;
    std::string transform; //!< rows of T, "[a b; c d]"
    std::string scheme;    //!< partition scheme name
    bool validated = false;
    bool degraded = false;

    bool operator==(const PlanFacts &o) const = default;
    std::string str() const;
};

PlanFacts planFacts(const core::Compilation &c);

/** Plan-search work of one compilation (all zero when it did not run). */
struct SearchCounts
{
    uint64_t enumerated = 0, scored = 0, pruned = 0, simRuns = 0, improved = 0;

    bool operator==(const SearchCounts &o) const = default;
    void add(const SearchCounts &o);
};

SearchCounts searchCounts(const core::Compilation &c);

/** Translation-validation checks of one compilation. */
struct VerifyCounts
{
    uint64_t checks = 0, passed = 0;

    bool operator==(const VerifyCounts &o) const = default;
    void add(const VerifyCounts &o)
    {
        checks += o.checks;
        passed += o.passed;
    }
};

VerifyCounts verifyCounts(const core::Compilation &c);

/**
 * core::compileResilient inside a "core.compile" span, with the phase
 * times the compiler records itself (obs::PhaseClock, through
 * CompileOptions::trace) added as child spans under the name of the
 * layer each phase belongs to.
 */
core::Compilation tracedCompile(SpanRecorder &rec, const ir::Program &prog,
                                core::ResilientOptions ropts);

/** What the replay of one request produced. */
struct ReplayOutcome
{
    svc::Verdict verdict = svc::Verdict::Shed;
    std::string key; //!< plan key, hex ("" when none)
    PlanFacts facts;
    bool compiled = false; //!< a cache miss that compiled a plan
    SearchCounts search;   //!< of that compilation
    VerifyCounts verify;
};

/**
 * Service::serveSource replayed through the public calls it makes
 * (parse, canonicalize, plan key, cache lookup, compile, cache insert),
 * with its own plan cache of the service's byte budget; the compile is
 * tracedCompile. Mirrors the service without deadlines, retries or
 * admission limits, which the benchmark's service options leave off.
 */
class ServedPathReplay
{
  public:
    explicit ServedPathReplay(const svc::ServiceOptions &opts);

    ReplayOutcome serve(SpanRecorder &rec, const std::string &source);

    const svc::PlanCache &cache() const { return cache_; }

  private:
    svc::ServiceOptions opts_;
    svc::PlanCache cache_;
};

/**
 * Output oracle, independent of the compiler under test: value-execute
 * the plan with numa::Simulator (executeValues) at a small parameter
 * binding and compare every array bit for bit against ir::run on the
 * plan's source program, and the simulated iteration count against
 * ir::forEachIteration. Plans whose outer loop carries a dependence are
 * executed on one processor (the simulator runs processors one after
 * another). Returns "" on success, else what differed.
 */
std::string oracleCheck(const core::Compilation &c);

/** Every program parameter bound to `value`, every scalar to 2.0. */
ir::Bindings uniformBindings(const ir::Program &p, Int value);

/** One metric of the final JSON line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** What one workload run reports. */
struct Result
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Extra human-readable notes for the row (percentile, samples). */
    std::vector<std::string> notes;
    /** Check failures (oracle, determinism guard, replay). */
    std::vector<std::string> errors;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fail(std::string why)
    {
        correct = false;
        errors.push_back(std::move(why));
    }
};

/** Deterministic work counts of one pass (or sweep) of a workload. */
struct LayerCounters
{
    uint64_t lookups = 0, hits = 0, insertions = 0, evictions = 0;
    std::vector<uint64_t> steps; //!< svc steps of every request
    SearchCounts search;
    VerifyCounts verify;
    uint64_t classes = 0, processors = 0, directRuns = 0, iterations = 0;

    void addSim(const numa::SimStats &s);
};

/**
 * The per-layer metrics of a traced run, identical in name and order for
 * every workload: mean self time per request that entered each layer,
 * the work counts, and the tracing overhead (untraced against traced
 * ops per second on the same workload).
 */
void addLayerMetrics(Result &r, const LayerTotals &t, const LayerCounters &c,
                     double untracedOpsPerS, double tracedOpsPerS);

/**
 * Plan quality: simulated parallel time (us) of every plan at P = 4 and
 * P = 32 with parameters bound to 32 (the plan search's own scoring
 * binding), in key order. Spans and counts go to `rec`/`counters` when
 * given.
 */
std::vector<double>
planQuality(const std::map<std::string, core::Compilation> &plans,
            Int hostThreads, SpanRecorder *rec, LayerCounters *counters);

/**
 * ops_per_s, latency_p50_ms and latency_tail_ms from the raw per-op
 * samples (seconds): nearest-rank percentiles of the samples
 * themselves, never a histogram bucket bound. The tail is the highest
 * of p50, p90, p99, ... that has at least ten samples beyond it.
 */
void addLatencyMetrics(Result &r, const std::vector<double> &latencies,
                       double wallSeconds);

/** Geometric mean (of positive values). */
double geomean(const std::vector<double> &v);

Result runColdSearch(const RunOptions &o);
Result runClusteredHot(const RunOptions &o);
Result runPaperSweep(const RunOptions &o);

} // namespace anc::perfbench

#endif // ANC_PERFBENCH_BENCH_H
