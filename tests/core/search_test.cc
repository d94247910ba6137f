/**
 * @file
 * The simulator-scored plan search (xform/search.h), end to end.
 *
 * The differential suite holds the search to its contract on every
 * gallery kernel: the searched plan's simulated time never exceeds the
 * heuristic's at any swept machine size, every adopted winner passes
 * symbolic translation validation, the result is independent of
 * candidate enumeration order and of host-thread count, and a compile
 * with search enabled degrades to the heuristic -- never crashes --
 * under a full deterministic fault sweep.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/compiler.h"
#include "ir/gallery.h"
#include "ratmath/fault.h"
#include "verify/verify.h"
#include "xform/search.h"

namespace anc::core {
namespace {

std::vector<std::pair<const char *, ir::Program>>
galleryKernels()
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
        {"syr2kBanded", ir::gallery::syr2kBanded()},
        {"skewedScatter", ir::gallery::skewedScatter()},
    };
}

CompileOptions
searchOptions()
{
    CompileOptions opts;
    opts.search.enabled = true;
    return opts;
}

/** Simulated parallel time of a finished compilation at P processors,
 * under the same bindings the search scores with. */
double
timeAt(const Compilation &c, Int p, const xform::SearchOptions &so)
{
    numa::SimOptions sopts;
    sopts.processors = p;
    sopts.machine = so.machine;
    sopts.symmetry = numa::SymmetryMode::Auto;
    ir::Bindings binds{IntVec(c.program.params.size(), so.paramValue),
                       std::vector<double>(c.program.scalars.size(), 1.0)};
    return simulate(c, sopts, binds).parallelTime();
}

TEST(SearchTest, SearchedNeverLosesToHeuristicAtAnySweptSize)
{
    // The admissibility rule, measured end to end: simulate both the
    // searched and the heuristic compilation at P in {4, 32, 2^12} and
    // require searched <= heuristic pointwise, on every gallery kernel.
    for (auto &[name, prog] : galleryKernels()) {
        Compilation heur = compile(prog);
        Compilation searched = compile(prog, searchOptions());
        ASSERT_TRUE(searched.search.ran) << name;
        xform::SearchOptions so; // default sweep, machine, bindings
        for (Int p : {Int(4), Int(32), Int(1) << 12}) {
            double th = timeAt(heur, p, so);
            double ts = timeAt(searched, p, so);
            EXPECT_LE(ts, th) << name << " at P=" << p;
        }
    }
}

TEST(SearchTest, SearchImprovesAtLeastTwoGalleryKernels)
{
    size_t improved = 0;
    for (auto &[name, prog] : galleryKernels()) {
        Compilation c = compile(prog, searchOptions());
        if (!c.search.improved)
            continue;
        ++improved;
        double ht = 0, wt = 0;
        for (double v : c.search.heuristicTimesUs)
            ht += v;
        for (double v : c.search.winnerTimesUs)
            wt += v;
        EXPECT_LT(wt, ht) << name;
    }
    EXPECT_GE(improved, 2u);
}

TEST(SearchTest, EveryAdoptedWinnerPassesSymbolicValidation)
{
    for (auto &[name, prog] : galleryKernels()) {
        Compilation c = compile(prog, searchOptions());
        if (!c.search.ran)
            continue;
        verify::ValidationReport rep = verify::validate(
            c.program, c.nest(), c.normalization.depMatrix, {});
        EXPECT_TRUE(rep.passed())
            << name << ": searched plan failed validation:\n"
            << rep.render();
    }
}

TEST(SearchTest, ResultIndependentOfEnumerationOrder)
{
    // searchOverCandidates() canonically sorts and dedups its input, so
    // any permutation of the same candidate list must yield a
    // byte-identical result -- trail, tie-break, and artifacts.
    for (auto make : {ir::gallery::section3Example,
                      ir::gallery::skewedScatter, ir::gallery::gemm}) {
        ir::Program prog = make();
        Compilation heur = compile(prog);
        xform::SearchOptions so;
        so.enabled = true;
        std::vector<xform::SearchCandidate> cands =
            xform::enumerateSearchCandidates(prog, heur.normalization,
                                             so);
        ASSERT_GT(cands.size(), 1u);

        std::vector<std::vector<xform::SearchCandidate>> orders;
        orders.push_back(cands);
        orders.emplace_back(cands.rbegin(), cands.rend());
        std::vector<xform::SearchCandidate> rotated(cands.begin() + 1,
                                                    cands.end());
        rotated.push_back(cands.front());
        orders.push_back(std::move(rotated));

        std::vector<std::string> renders;
        for (auto &order : orders) {
            xform::SearchResult r = xform::searchOverCandidates(
                prog, heur.normalization, heur.plan, std::move(order),
                so);
            // Substitute the result into a real compilation and render
            // the explain record: one string covering the trail, the
            // tie-break, and the chosen plan.
            Compilation c = compile(prog, searchOptions());
            c.search = r;
            std::string render = core::explain(c).renderJson();
            render += "\ntransform=";
            for (size_t i = 0; i < r.transform.rows(); ++i)
                for (Int v : r.transform.row(i))
                    render += std::to_string(v) + ",";
            render += "\nwinner=" + r.winnerOrigin;
            renders.push_back(std::move(render));
        }
        EXPECT_EQ(renders[0], renders[1]);
        EXPECT_EQ(renders[0], renders[2]);
    }
}

TEST(SearchTest, ResultIndependentOfHostThreadCount)
{
    // Identical inputs produce byte-identical searched plans at any
    // host thread count: the scoring simulator is bit-deterministic
    // across hostThreads, so nothing downstream may differ.
    for (auto make :
         {ir::gallery::skewedScatter, ir::gallery::gemm}) {
        CompileOptions one = searchOptions();
        one.search.hostThreads = 1;
        CompileOptions four = searchOptions();
        four.search.hostThreads = 4;
        Compilation c1 = compile(make(), one);
        Compilation c4 = compile(make(), four);
        EXPECT_EQ(c1.nodeProgram, c4.nodeProgram);
        EXPECT_EQ(core::explain(c1).renderJson(),
                  core::explain(c4).renderJson());
    }
}

TEST(SearchTest, AdoptedWinnerIsReflectedInTheCompilation)
{
    // When the search improves, the compilation's transform and plan
    // ARE the winner's; when it does not, they are the heuristic's.
    for (auto &[name, prog] : galleryKernels()) {
        Compilation heur = compile(prog);
        Compilation searched = compile(prog, searchOptions());
        if (searched.search.improved) {
            EXPECT_EQ(searched.normalization.transform,
                      searched.search.transform)
                << name;
            EXPECT_NE(searched.nodeProgram, heur.nodeProgram) << name;
        } else {
            EXPECT_EQ(searched.nodeProgram, heur.nodeProgram) << name;
        }
    }
}

TEST(SearchTest, SearchRecordLandsInExplainJson)
{
    Compilation c =
        compile(ir::gallery::skewedScatter(), searchOptions());
    ASSERT_TRUE(c.search.ran);
    ASSERT_TRUE(c.search.improved);
    obs::ExplainRecord e = core::explain(c);
    EXPECT_TRUE(e.search.ran);
    EXPECT_TRUE(e.search.improved);
    EXPECT_EQ(e.search.trail.size(), c.search.trail.size());
    std::string json = e.renderJson();
    EXPECT_NE(json.find("\"search\":{\"ran\":true"), std::string::npos);
    EXPECT_NE(json.find("\"winnerOrigin\""), std::string::npos);
    // Exactly one winner in the trail, and it is the adopted origin.
    size_t winners = 0;
    for (const auto &t : c.search.trail)
        if (t.verdict == "winner") {
            ++winners;
            EXPECT_EQ(t.origin, c.search.winnerOrigin);
        }
    EXPECT_EQ(winners, 1u);
}

class SearchFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(SearchFaultTest, FaultSweepDegradesToHeuristicWithoutCrashing)
{
    // Arm a deterministic fault at every checked-arithmetic index
    // reachable from a searched resilient compile. Whatever the fault
    // hits -- enumeration, planning, scoring, validation -- the compile
    // must come back with a plan; a fault inside the search itself must
    // not even degrade the tier.
    ir::Program prog = ir::gallery::skewedScatter();
    ResilientOptions ropts;
    ropts.base.search.enabled = true;
    fault::startCounting();
    Compilation clean = compileResilient(prog, ropts);
    uint64_t total = fault::opCount();
    fault::disarm();
    ASSERT_TRUE(clean.search.ran);
    ASSERT_GT(total, 0u);

    // The sweep is dense where the search runs and sparse through the
    // (already fault-swept) rest of the pipeline.
    for (uint64_t k = 1; k <= total; k += (k < 2000 ? 1 : 97)) {
        fault::armAt(k);
        Compilation c;
        ASSERT_NO_THROW(c = compileResilient(prog, ropts))
            << "fault at checked operation #" << k;
        fault::disarm();
        // Always a usable plan.
        EXPECT_FALSE(c.nodeProgram.empty())
            << "fault at checked operation #" << k;
        // A search failure keeps the heuristic: either the search
        // completed, or the record says it never ran and the plan is
        // the heuristic one.
        if (!c.search.ran && c.tier == CompileTier::Full) {
            bool noted = false;
            for (const Diagnostic &d : c.diagnostics.all())
                noted = noted ||
                        d.message.find("plan search failed") !=
                            std::string::npos;
            // Full tier without a search record means the search was
            // cut down by the injected fault and said so.
            EXPECT_TRUE(noted)
                << "fault at checked operation #" << k;
        }
    }
}

TEST_F(SearchFaultTest, FaultInSurvivorBoundsPromotesTheNextRanked)
{
    // Loop bounds are computed only for the candidates the locality
    // ranking keeps. A fault inside a survivor's bounds step must reject
    // that survivor and hand its slot to the next candidate in the
    // ranking, exactly as if the candidate had failed before pruning.
    ir::Program prog = ir::gallery::gemm(); // heuristic wins: no validation
    Compilation heur = compile(prog);
    xform::SearchOptions so;
    so.enabled = true;
    so.hostThreads = 1; // every checked operation on this thread
    std::vector<xform::SearchCandidate> cands =
        xform::enumerateSearchCandidates(prog, heur.normalization, so);
    auto search = [&] {
        return xform::searchOverCandidates(prog, heur.normalization,
                                           heur.plan, cands, so);
    };
    fault::startCounting();
    xform::SearchResult clean = search();
    uint64_t total = fault::opCount();
    fault::disarm();
    ASSERT_GT(clean.pruned, 0u);
    ASSERT_GT(clean.bounded, 0u);

    auto boundsFailure = [](const xform::SearchScore &t) {
        return t.detail.rfind("loop bounds failed", 0) == 0;
    };
    // True when the fault at operation k landed after the rewrite and
    // planning phase: the search returned, and every candidate it lost
    // failed in bounding or scoring.
    auto afterPlanning = [&](uint64_t k, xform::SearchResult *out) {
        fault::ScopedFault f(k);
        xform::SearchResult r;
        try {
            r = search();
        } catch (const Error &) {
            return false; // the locality score runs unguarded
        }
        for (size_t i = 0; i < r.trail.size(); ++i) {
            const xform::SearchScore &t = r.trail[i];
            if (t.verdict == "rejected" &&
                clean.trail[i].verdict != "rejected" &&
                !boundsFailure(t) &&
                t.detail.rfind("simulation failed", 0) != 0)
                return false;
        }
        if (out)
            *out = std::move(r);
        return true;
    };
    // The first checked operation after planning is the first one of
    // the first survivor's bounds step.
    uint64_t lo = 1, hi = total;
    while (lo < hi) {
        uint64_t mid = lo + (hi - lo) / 2;
        if (afterPlanning(mid, nullptr))
            hi = mid;
        else
            lo = mid + 1;
    }
    xform::SearchResult faulted;
    ASSERT_TRUE(afterPlanning(lo, &faulted));

    // The candidate ranked first below the cut in the clean run.
    std::vector<size_t> ranked;
    for (size_t i = 0; i < clean.trail.size(); ++i)
        if (clean.trail[i].verdict != "rejected" &&
            clean.trail[i].verdict != "redundant")
            ranked.push_back(i);
    std::stable_sort(ranked.begin(), ranked.end(), [&](size_t a, size_t b) {
        return clean.trail[a].locality < clean.trail[b].locality;
    });
    auto next = std::find_if(ranked.begin(), ranked.end(), [&](size_t i) {
        return clean.trail[i].verdict == "pruned";
    });
    ASSERT_NE(next, ranked.end());

    size_t rejected = 0;
    for (size_t i = 0; i < faulted.trail.size(); ++i) {
        if (!boundsFailure(faulted.trail[i]))
            continue;
        ++rejected;
        EXPECT_EQ(faulted.trail[i].verdict, "rejected");
        EXPECT_TRUE(faulted.trail[i].simTimesUs.empty());
        EXPECT_FALSE(clean.trail[i].simTimesUs.empty())
            << "the faulted candidate was a survivor";
    }
    EXPECT_GE(rejected, 1u);
    const xform::SearchScore &promoted = faulted.trail[*next];
    EXPECT_NE(promoted.verdict, "pruned") << promoted.origin;
    EXPECT_FALSE(promoted.simTimesUs.empty()) << promoted.origin;
    EXPECT_EQ(faulted.scored, clean.scored);
    EXPECT_EQ(faulted.pruned + rejected, clean.pruned);
    EXPECT_EQ(faulted.winnerOrigin, clean.winnerOrigin);
}

TEST(SearchTest, DisabledSearchLeavesNoTrace)
{
    Compilation c = compile(ir::gallery::gemm());
    EXPECT_FALSE(c.search.ran);
    EXPECT_TRUE(c.search.trail.empty());
    obs::ExplainRecord e = core::explain(c);
    EXPECT_FALSE(e.search.ran);
    std::string json = e.renderJson();
    EXPECT_NE(json.find("\"search\":{\"ran\":false"),
              std::string::npos);
}

} // namespace
} // namespace anc::core
