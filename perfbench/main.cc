/**
 * @file
 * anc_e2e: the served-path benchmark.
 *
 *   anc_e2e --workload cold_search|clustered_hot|paper_sweep --seed N
 *           --seconds S --trace 0|1 [--samples DIR] [--trace-out FILE]
 *
 * Prints one row of metrics for the workload, then, as the last line,
 * one JSON object {"correct", "attempted", "failed", "metrics"}: the
 * end-to-end metrics when --trace is 0, the per-layer metrics of the
 * traced run when it is 1. Exits 1 when the oracle, the determinism
 * guard or the replay check failed, 2 on a usage or setup error.
 * perfbench/README.md documents the workloads and metrics.
 */

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"

using namespace anc;
using namespace anc::perfbench;

namespace {

/** CPUs this process may run on (what `nproc` prints). */
Int
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0)
        return 1;
    return std::max(1, CPU_COUNT(&set));
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "anc_e2e: %s\nusage: anc_e2e --workload "
                 "cold_search|clustered_hot|paper_sweep --seed N --seconds S "
                 "--trace 0|1 [--samples DIR] [--trace-out FILE]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage("bad value for " + flag + ": '" + v + "'");
    return n;
}

RunOptions
parseArgs(int argc, char **argv)
{
    RunOptions o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseCount(flag, v);
        else if (flag == "--seconds") {
            o.seconds = double(parseCount(flag, v));
            if (o.seconds < 1)
                usage("--seconds must be at least 1");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--samples")
            o.samplesDir = v;
        else if (flag == "--trace-out")
            o.traceOut = v;
        else
            usage("unknown flag " + flag);
    }
    if (o.workload.empty())
        usage("--workload is required");
    // The determinism guard repeats the timed work on every CPU.
    o.guardThreads = nproc();
    return o;
}

void
printJsonLine(const Result &r)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                r.correct ? "true" : "false",
                (unsigned long long)r.attempted,
                (unsigned long long)r.failed);
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].name.c_str(),
                    r.metrics[i].value, r.metrics[i].unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const RunOptions o = parseArgs(argc, argv);
    Result r;
    try {
        if (o.workload == "cold_search")
            r = runColdSearch(o);
        else if (o.workload == "clustered_hot")
            r = runClusteredHot(o);
        else if (o.workload == "paper_sweep")
            r = runPaperSweep(o);
        else
            usage("unknown workload '" + o.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "anc_e2e: %s failed: %s\n", o.workload.c_str(),
                     e.what());
        return 2;
    }
    if (r.failed > 0)
        r.correct = false;

    std::printf("row %-14s seed=%llu trace=%d host_threads=%lld "
                "guard_threads=%lld",
                o.workload.c_str(), (unsigned long long)o.seed, o.trace ? 1 : 0,
                (long long)kTimedHostThreads, (long long)o.guardThreads);
    for (const Metric &m : r.metrics)
        std::printf(" %s=%.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    std::printf("\n");
    for (const std::string &n : r.notes)
        std::printf("# %s\n", n.c_str());
    for (const std::string &e : r.errors)
        std::fprintf(stderr, "anc_e2e: CHECK FAILED: %s\n", e.c_str());
    printJsonLine(r);
    std::fflush(stdout);
    return r.correct ? 0 : 1;
}
