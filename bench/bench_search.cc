/**
 * @file
 * Searched-vs-heuristic sweep: compile every gallery kernel twice --
 * once with the paper's ordering heuristic alone, once with the
 * simulator-scored plan search (xform/search.h) -- and tabulate what
 * the search bought and what it cost.
 *
 * Three things are asserted, not just printed:
 *
 *   - admissibility: the searched plan's total simulated time over the
 *     scoring sweep never exceeds the heuristic's (the search's core
 *     contract -- a violation means the selection rule broke);
 *   - the search earns its keep: at least kMinImproved kernels end
 *     strictly faster than the heuristic (section3Example and
 *     skewedScatter are the committed witnesses);
 *   - bounded wall time: no single kernel's search exceeds
 *     kPerKernelBudgetS of wall clock, so turning --search on can
 *     never stall a compile unboundedly.
 *
 * Output: BENCH_search.json with per-kernel search wall time, summed
 * simulated times for both plans, speedup, candidate counts
 * (enumerated / scored / pruned), the search's exact work counts
 * (sim_runs: simulated runs, the sum of the trail's per-candidate
 * times; bounded: transformations given Fourier-Motzkin loop bounds),
 * and the winning candidate's origin.
 */

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/compiler.h"
#include "ir/gallery.h"
#include "xform/search.h"

namespace {

using namespace anc;

constexpr size_t kMinImproved = 2;       //!< issue: >= 2 kernels improve
constexpr double kPerKernelBudgetS = 5.0; //!< wall budget per search

struct Kernel
{
    const char *name;
    ir::Program prog;
};

std::vector<Kernel>
kernels()
{
    return {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"syr2k", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
}

core::CompileOptions
searchOptions()
{
    core::CompileOptions opts;
    opts.search.enabled = true;
    return opts;
}

double
sum(const std::vector<double> &v)
{
    double t = 0.0;
    for (double x : v)
        t += x;
    return t;
}

void
printSearchSweep()
{
    bench::JsonReport report("search");
    xform::SearchOptions defaults;
    report.flag("budget", defaults.budget);
    report.flag("paramValue", defaults.paramValue);
    report.flag("maxEnumerated", defaults.maxEnumerated);
    report.flag("machine", defaults.machine.name);
    {
        std::string sweep;
        for (Int p : defaults.processorSweep)
            sweep += (sweep.empty() ? "" : ",") + std::to_string(p);
        report.flag("processorSweep", sweep);
    }

    std::printf("\nsimulator-scored plan search vs heuristic\n");
    std::printf("%14s %10s %10s %12s %12s %9s %10s  %s\n", "kernel",
                "enum", "scored", "heur (us)", "search (us)", "speedup",
                "wall (ms)", "winner");

    size_t improved = 0;
    for (const Kernel &k : kernels()) {
        bench::WallTimer timer;
        core::Compilation c = core::compile(k.prog, searchOptions());
        double wallS = timer.seconds();
        if (!c.search.ran)
            throw InternalError("bench_search: search did not run on " +
                                std::string(k.name));
        double heurUs = sum(c.search.heuristicTimesUs);
        double winUs = sum(c.search.winnerTimesUs);
        if (winUs > heurUs)
            throw InternalError(
                "bench_search: searched plan lost to the heuristic on " +
                std::string(k.name) + ": " + std::to_string(winUs) +
                " us vs " + std::to_string(heurUs) + " us");
        if (wallS > kPerKernelBudgetS)
            throw InternalError(
                "bench_search: search wall time blew its budget on " +
                std::string(k.name) + ": " + std::to_string(wallS) +
                " s vs " + std::to_string(kPerKernelBudgetS) + " s");
        if (c.search.improved)
            ++improved;
        double speedup = winUs > 0.0 ? heurUs / winUs : 1.0;
        uint64_t simRuns = 0;
        for (const xform::SearchScore &t : c.search.trail)
            simRuns += t.simTimesUs.size();
        std::printf("%14s %10llu %10llu %12.1f %12.1f %8.3fx %10.1f  %s\n",
                    k.name,
                    static_cast<unsigned long long>(c.search.enumerated),
                    static_cast<unsigned long long>(c.search.scored),
                    heurUs, winUs, speedup, wallS * 1e3,
                    c.search.winnerOrigin.c_str());
        report.run(k.name, defaults.processorSweep.back(), wallS, winUs,
                   speedup,
                   {{"heuristic_us", std::to_string(heurUs)},
                    {"improved", c.search.improved ? "true" : "false"},
                    {"enumerated", std::to_string(c.search.enumerated)},
                    {"scored", std::to_string(c.search.scored)},
                    {"pruned", std::to_string(c.search.pruned)},
                    {"sim_runs", std::to_string(simRuns)},
                    {"bounded", std::to_string(c.search.bounded)},
                    {"winner",
                     "\"" + c.search.winnerOrigin + "\""}});
    }
    std::printf("\n%zu of %zu kernels improved by the search\n", improved,
                kernels().size());
    if (improved < kMinImproved)
        throw InternalError(
            "bench_search: only " + std::to_string(improved) +
            " kernels improved; the issue requires >= " +
            std::to_string(kMinImproved));
    report.flag("improved", Int(improved));
    report.write();
}

void
BM_Search_CompileSkewedScatter(benchmark::State &state)
{
    ir::Program prog = ir::gallery::skewedScatter();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(prog, searchOptions()));
}
BENCHMARK(BM_Search_CompileSkewedScatter)->Unit(benchmark::kMillisecond);

void
BM_Search_CompileGemm(benchmark::State &state)
{
    ir::Program prog = ir::gallery::gemm();
    for (auto _ : state)
        benchmark::DoNotOptimize(core::compile(prog, searchOptions()));
}
BENCHMARK(BM_Search_CompileGemm)->Unit(benchmark::kMillisecond);

} // namespace

int
main(int argc, char **argv)
{
    printSearchSweep();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
