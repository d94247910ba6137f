/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Every bench binary prints its paper table/figure data to stdout first
 * (the reproduction artifact), then runs google-benchmark timings of
 * the underlying machinery, and finally writes a machine-readable
 * BENCH_<name>.json summary (wall time, simulated time, processor
 * count, flags) into the working directory. Environment knobs:
 *
 *   ANC_BENCH_N      problem size N       (default: binary-specific)
 *   ANC_BENCH_B      band width b         (default: binary-specific)
 *   ANC_BENCH_FULL   =1: paper-scale N=400 runs (slow, exact sizes)
 *
 * Simulations run the full processor set (no sampling): the simulator's
 * host-parallel, strength-reduced fast path makes exact full-P runs
 * cheap enough for the harness.
 */

#ifndef ANC_BENCH_BENCH_UTIL_H
#define ANC_BENCH_BENCH_UTIL_H

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "ratmath/int_util.h"

namespace anc::bench {

inline Int
envInt(const char *name, Int fallback)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return fallback;
    return std::strtoll(v, nullptr, 10);
}

inline bool
fullScale()
{
    return envInt("ANC_BENCH_FULL", 0) != 0;
}

/** Processor counts on the paper's x axes (Figures 4 and 5). */
inline std::vector<Int>
paperProcessorCounts()
{
    return {1, 2, 4, 8, 12, 16, 20, 24, 28};
}

/** Print a fixed-width row of a speedup table. */
inline void
printSpeedupHeader(const char *title, const std::vector<std::string> &cols)
{
    std::printf("\n%s\n", title);
    std::printf("%6s", "P");
    for (const std::string &c : cols)
        std::printf("  %10s", c.c_str());
    std::printf("\n");
}

inline void
printSpeedupRow(Int p, const std::vector<double> &speedups)
{
    std::printf("%6lld", static_cast<long long>(p));
    for (double s : speedups)
        std::printf("  %10.2f", s);
    std::printf("\n");
}

/** Wall-clock stopwatch for instrumenting simulator calls. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Machine-readable results file. Collects named flags (problem size,
 * option settings) and per-run records, then writes BENCH_<name>.json:
 *
 *   {"bench": "fig4_gemm",
 *    "flags": {"N": 140, "blockTransfers": true},
 *    "runs": [{"label": "gemmB", "P": 28, "wall_s": 1.2e-3,
 *              "sim_time_us": 5.1e4, "speedup": 21.3}]}
 */
class JsonReport
{
  public:
    explicit JsonReport(std::string name) : name_(std::move(name)) {}

    void
    flag(const std::string &key, const std::string &value)
    {
        flags_.emplace_back(key, "\"" + escape(value) + "\"");
    }

    void
    flag(const std::string &key, const char *value)
    {
        flag(key, std::string(value));
    }

    void
    flag(const std::string &key, Int value)
    {
        flags_.emplace_back(key,
                            std::to_string(static_cast<long long>(value)));
    }

    void
    flag(const std::string &key, bool value)
    {
        flags_.emplace_back(key, value ? "true" : "false");
    }

    void
    flag(const std::string &key, double value)
    {
        flags_.emplace_back(key, num(value));
    }

    /** Record one simulated run: wall-clock seconds spent simulating,
     * simulated parallel time in microseconds, and the derived speedup
     * (0 when not meaningful for the bench). */
    void
    run(const std::string &label, Int p, double wall_s, double sim_time_us,
        double speedup = 0.0)
    {
        runs_.push_back({label, p, wall_s, sim_time_us, speedup});
    }

    /** Embed a metrics snapshot in the report (a "metrics" key holding
     * the registry's counters/histograms JSON). */
    void
    metrics(const obs::MetricsRegistry &reg)
    {
        metrics_ = reg.renderJson();
    }

    /** Write BENCH_<name>.json into the current directory. */
    void
    write() const
    {
        std::string path = "BENCH_" + name_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "warning: cannot write %s\n",
                         path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"flags\": {",
                     escape(name_).c_str());
        for (size_t i = 0; i < flags_.size(); ++i)
            std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                         escape(flags_[i].first).c_str(),
                         flags_[i].second.c_str());
        std::fprintf(f, "},\n");
        if (!metrics_.empty())
            std::fprintf(f, "  \"metrics\": %s,\n", metrics_.c_str());
        std::fprintf(f, "  \"runs\": [");
        for (size_t i = 0; i < runs_.size(); ++i) {
            const Run &r = runs_[i];
            std::fprintf(f,
                         "%s\n    {\"label\": \"%s\", \"P\": %lld, "
                         "\"wall_s\": %s, \"sim_time_us\": %s, "
                         "\"speedup\": %s}",
                         i ? "," : "", escape(r.label).c_str(),
                         static_cast<long long>(r.p), num(r.wall_s).c_str(),
                         num(r.simTimeUs).c_str(), num(r.speedup).c_str());
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s (%zu runs)\n", path.c_str(), runs_.size());
    }

  private:
    struct Run
    {
        std::string label;
        Int p;
        double wall_s;
        double simTimeUs;
        double speedup;
    };

    static std::string
    num(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return buf;
    }

    static std::string
    escape(const std::string &s)
    {
        std::string out;
        for (char c : s) {
            if (c == '"' || c == '\\')
                out.push_back('\\');
            out.push_back(c);
        }
        return out;
    }

    std::string name_;
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<Run> runs_;
    std::string metrics_; //!< pre-rendered registry JSON, may be empty
};

} // namespace anc::bench

#endif // ANC_BENCH_BENCH_UTIL_H
