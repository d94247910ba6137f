/**
 * @file
 * Golden plan-search equivalence: the search's selected plan and trail
 * verdicts, pinned by digest on three corpora -- the 11 gallery
 * kernels, the pipeline fuzzer's 40-program validation corpus (seed
 * 424242) and the distinct programs of svc::clusteredWorkload seeds
 * 1-8. Each program is canonicalized and compiled the way the service
 * compiles a miss (compileResilient, search on), and the digest covers
 * the selected transform, the rendered plan, the heuristic and winner
 * times, the winner's origin, the tie-break, `improved`, the
 * enumerated/scored/pruned counts, every trail entry's transform,
 * origin, scheme, locality and verdict, and the plan key.
 *
 * The digests were recorded before the search learned to bound only
 * its survivors and to stop a candidate at its first lost size; both
 * are pure savings, so the digests must not move. Set
 * ANC_SEARCH_GOLDEN_PRINT=1 to print the current table (for a change
 * that means to alter plan selection, and says so).
 *
 * Independently of the digests, every inadmissible trail entry must
 * have stopped at the first size where it lost: its last simulated
 * time exceeds the heuristic's at that size, and no earlier one does.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "codegen/planner.h"
#include "core/compiler.h"
#include "dsl/parser.h"
#include "ir/gallery.h"
#include "ratmath/hash.h"
#include "svc/canonical.h"
#include "svc/workload.h"
#include "random_program.h"

namespace anc {
namespace {

struct Named
{
    std::string name;
    ir::Program prog;
};

std::vector<Named>
corpus()
{
    std::vector<Named> out = {
        {"gallery/figure1", ir::gallery::figure1()},
        {"gallery/section3", ir::gallery::section3Example()},
        {"gallery/scaling", ir::gallery::scalingExample()},
        {"gallery/section5", ir::gallery::section5Example()},
        {"gallery/gemm", ir::gallery::gemm()},
        {"gallery/gemv", ir::gallery::gemv()},
        {"gallery/ger", ir::gallery::ger()},
        {"gallery/jacobi2d", ir::gallery::jacobi2d()},
        {"gallery/gaussSeidel", ir::gallery::gaussSeidel()},
        {"gallery/syr2kBanded", ir::gallery::syr2kBanded()},
        {"gallery/skewedScatter", ir::gallery::skewedScatter()},
    };
    // Same generator, seed and depth pattern as the fuzzer's
    // RandomProgramsSurviveTranslationValidation corpus.
    std::mt19937 rng(424242);
    for (int trial = 0; trial < 40; ++trial)
        out.push_back({"fuzz/" + std::to_string(trial),
                       testgen::generate(rng, 2 + trial % 2).prog});
    // Distinct (by canonical text) programs of the clustered streams.
    std::set<std::string> seen;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        svc::WorkloadOptions wo;
        wo.seed = seed;
        size_t n = 0;
        for (const svc::BatchRequest &r : svc::clusteredWorkload(wo)) {
            ir::Program p = dsl::parseProgram(r.source);
            if (!seen.insert(svc::canonicalize(p).text).second)
                continue;
            out.push_back({"clustered/" + std::to_string(seed) + "/" +
                               std::to_string(n++),
                           std::move(p)});
        }
    }
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
nums(const std::vector<double> &v)
{
    std::string s = "[";
    for (double x : v)
        s += num(x) + ",";
    return s + "]";
}

/** The searched compilation's plan-selection record, as text. */
std::string
record(const core::Compilation &c, const std::string &key)
{
    const xform::SearchResult &r = c.search;
    std::string s = "ran=" + std::to_string(r.ran);
    s += "\ntransform=";
    for (size_t i = 0; i < r.transform.rows(); ++i)
        for (Int v : r.transform.row(i))
            s += std::to_string(v) + ",";
    s += "\nplan=" + codegen::describePlan(c.plan, c.program);
    s += "\nheuristic=" + nums(r.heuristicTimesUs);
    s += "\nwinner=" + nums(r.winnerTimesUs);
    s += "\nwinnerOrigin=" + r.winnerOrigin;
    s += "\ntieBreak=" + r.tieBreak;
    s += "\nimproved=" + std::to_string(r.improved);
    s += "\ncounts=" + std::to_string(r.enumerated) + "/" +
         std::to_string(r.scored) + "/" + std::to_string(r.pruned);
    for (const xform::SearchScore &t : r.trail)
        s += "\n" + t.transform + " | " + t.origin + " | " + t.scheme +
             " | " + num(t.locality) + " | " + t.verdict;
    s += "\nkey=" + key;
    return s;
}

// name -> hash128 of record(); regenerate with ANC_SEARCH_GOLDEN_PRINT=1.
const std::map<std::string, std::string> kGolden = {
    {"gallery/figure1", "afdb4156cb70c8ba1c0f70e0ab69a795"},
    {"gallery/section3", "a05498990dea34b9ae7efdca2a4c72bc"},
    {"gallery/scaling", "282cfaca7dec8da0a9439d3bbca79a33"},
    {"gallery/section5", "980c85225e26c133b8980a0bf0c5ddd1"},
    {"gallery/gemm", "3d7dc49e042428609969f3611bb0399e"},
    {"gallery/gemv", "c731d33f17d1b22405a9fe057072fd35"},
    {"gallery/ger", "8d2064801aaa5fede15fe8b69eefd522"},
    {"gallery/jacobi2d", "dbb90cc494724df306b65ba1e3f4a55d"},
    {"gallery/gaussSeidel", "6e9231e49e5879d3794d1a69608027c4"},
    {"gallery/syr2kBanded", "df5ac06fc555dbbb9a16e14f43e7f8b5"},
    {"gallery/skewedScatter", "7cd861a104b7aaa21957daefedfd3960"},
    {"fuzz/0", "e5d8a1b2a575953791b6c59548de7c83"},
    {"fuzz/1", "8be091be3b7b8a8cc8dc50cc1356a2ca"},
    {"fuzz/2", "d664a7d82596257f688a7420ec1deace"},
    {"fuzz/3", "3eac8ae0a55c9949f49c3a4a40384bc0"},
    {"fuzz/4", "8ce12e25038cad2f8e689d55a7b5f1d4"},
    {"fuzz/5", "3375ea87d65dcdc8bec9109e016e1b12"},
    {"fuzz/6", "0c84cf42fbae096fab5a81056fe9c338"},
    {"fuzz/7", "f43e9b6863cfcaeab7c88b871a2697cb"},
    {"fuzz/8", "bcb4f1c59503aea715307523296bad5e"},
    {"fuzz/9", "76f1a935d9d17a8b7dc439d88539e7e2"},
    {"fuzz/10", "176ee15ea02b6f6396c2396c57646556"},
    {"fuzz/11", "47c2b15cb93f45efed0f9de3957462ec"},
    {"fuzz/12", "26d5a8713ca5b428e5773fe2594feb5b"},
    {"fuzz/13", "c273ea07f83e77570b1d3c61c280ad79"},
    {"fuzz/14", "f14c85c864ef08a7bb0860742a358073"},
    {"fuzz/15", "7bb93bfdd8f39ca7487dba6dedfd8882"},
    {"fuzz/16", "8b7ff9fc1d4a4ea30fb1535daa1beed8"},
    {"fuzz/17", "9975af3968331583d9bb3e63d5d122e5"},
    {"fuzz/18", "0f3e07ba8ca43c870784dff5cab28f48"},
    {"fuzz/19", "6ee4e8fde3be01e9f9e9dc13365f72e8"},
    {"fuzz/20", "8f9bc74a6057fb30cce020a642d72e0a"},
    {"fuzz/21", "2d9d5e929654b9eae5748f195e612869"},
    {"fuzz/22", "f9086fb9f4241b8c19f07ffcdf075a4a"},
    {"fuzz/23", "a06eebaf1c2a8c04fc6c192e0ad37c32"},
    {"fuzz/24", "6c4acee730211b185d9d4e3a1a683c47"},
    {"fuzz/25", "f31b1c8cce1e4bc65f314cb132473576"},
    {"fuzz/26", "3b6a54d2fb8b32c953730d22968ce911"},
    {"fuzz/27", "893625c4d5bb5004036d5fc304232b43"},
    {"fuzz/28", "284a27092849fc4d1554744920bfb439"},
    {"fuzz/29", "9ad02fb44a9f7b8d4aec1aea6c1b7858"},
    {"fuzz/30", "a45349780dd29ca67115dc1c376138a5"},
    {"fuzz/31", "af829fe053b7d18a141647f2519c8e7f"},
    {"fuzz/32", "09659b43346566ddcf3ee84ebbe2d4a1"},
    {"fuzz/33", "2e8ae85accf2465d630e7a9c6683f0c1"},
    {"fuzz/34", "cc016bad6ee34eca245b3c57d44f9732"},
    {"fuzz/35", "ac95c40ae3db6ce31ecbd4326478de6e"},
    {"fuzz/36", "65f8b9715db5892f45ed6b047fe0184c"},
    {"fuzz/37", "6ad156e61c0a118548133ba329ba5414"},
    {"fuzz/38", "b6b5c89449fe8a3ee99649a436a5b296"},
    {"fuzz/39", "8fb89bb686b4e90f0c006cb08686e287"},
    {"clustered/1/0", "3cc7cfdff772d6a9a78d514be0c4cc02"},
    {"clustered/1/1", "efb29422d8637f3296faaf091f8b124f"},
    {"clustered/1/2", "5007563f6bb5db474ee952209d36be83"},
    {"clustered/1/3", "0e0a3905c444c7b8c6a1f070ac08a9e9"},
    {"clustered/1/4", "39afc06d5a16ac85834fd90dc3f917a3"},
    {"clustered/1/5", "e1d8c87ce263008df49d68b3d295c917"},
    {"clustered/2/0", "0b82d1f881856be086f8735c650cd42d"},
    {"clustered/2/1", "56f5c7809731e7b785b45ed4d5a3a5fa"},
    {"clustered/2/2", "cd278ef8e1b55c70cacc6e70ebdaf1e1"},
    {"clustered/2/3", "79a334bcf8ff1286e39163554ce89450"},
    {"clustered/2/4", "e68a8aa542e9ac35394ac46a9fab9237"},
    {"clustered/2/5", "4c1f9960cc6e18ae85f72f6219ae956b"},
    {"clustered/3/0", "6cf44d6c47b08b07e32eda5514597b53"},
    {"clustered/3/1", "ee668f725a866ceeb85ce3ada477abac"},
    {"clustered/3/2", "7a9d5be1fe435e953b68c936f392cd1a"},
    {"clustered/3/3", "2dd793e54a5e5f91a8af62f821ba050c"},
    {"clustered/3/4", "dc69bdec7877bdce17a8ed8a14cef2ca"},
    {"clustered/3/5", "277172fd1c14d80d65498ace2b980454"},
    {"clustered/4/0", "bbc9298ee224fccabfb03f3676785449"},
    {"clustered/4/1", "4194e9dc3c5de272d53c561c74524644"},
    {"clustered/4/2", "21547b177dc75bc0c665390d0a0f397e"},
    {"clustered/4/3", "9ea5daa26ec1e0e77dd50e26149c7f7f"},
    {"clustered/4/4", "8432a900a678f643abcd9635406c41bb"},
    {"clustered/4/5", "8a6fb5695062544d73a0da5888c796ef"},
    {"clustered/5/0", "bf1cfd8136c58517198013c509923cfd"},
    {"clustered/5/1", "79ddea47ce4f125591fdaf3a2132d050"},
    {"clustered/5/2", "521346c67178d48b143739301d4d7c24"},
    {"clustered/5/3", "90ed989f05e35797f6494114bae86060"},
    {"clustered/5/4", "b02c9bb6779c123f065e30e892cb8155"},
    {"clustered/5/5", "17417ab245cc9086a63237135e7fe5cd"},
    {"clustered/6/0", "2a5c9e3adaab224e2541b3d1450c3dfa"},
    {"clustered/6/1", "089caa6f330cd506c55bf9db0b8e6486"},
    {"clustered/6/2", "febf3a3107e5ad626bc5e661565efc15"},
    {"clustered/6/3", "accfe0df6aee6cf4cba645c2721cbde8"},
    {"clustered/6/4", "f49feb25367f1ee7461d809dbdca200c"},
    {"clustered/6/5", "0dc7f08996a477af8fe1d34f109454ef"},
    {"clustered/7/0", "fc9f6598981c164a51c73cf4e3ec0dd3"},
    {"clustered/7/1", "a066fbd9d3ea02b36395ee2d00e48fd9"},
    {"clustered/7/2", "5465f6f5ded421ad75663c5ea9f25ee9"},
    {"clustered/7/3", "870b5e703392d4318b595e4535cb3fe7"},
    {"clustered/7/4", "bb46c6803a946c4c1d4c56a878791e81"},
    {"clustered/7/5", "f4cebd1dc44400beb67e5fbbbae9bbce"},
    {"clustered/8/0", "0358bc73a83e6d9db0c9d2c58d6b4959"},
    {"clustered/8/1", "56f8dbc6b17ba45e5f9acc43499c5a46"},
    {"clustered/8/2", "1180fe9466f38b181d480c060c9d0e43"},
    {"clustered/8/3", "dbec2bf82dbcaac25a4d578600d4d09e"},
    {"clustered/8/4", "2acf26195584c71bf6159d3bc1fcfea0"},
    {"clustered/8/5", "afb67ac7802e0d6cd17b609ffe7e0ac2"},
};

TEST(SearchGolden, SelectedPlansAndVerdictsMatchTheRecordedDigests)
{
    bool print = std::getenv("ANC_SEARCH_GOLDEN_PRINT") != nullptr;
    std::vector<Named> programs = corpus();
    ASSERT_GE(programs.size(), 51u + 8u);
    for (const Named &n : programs) {
        SCOPED_TRACE(n.name);
        core::ResilientOptions ropts;
        ropts.base.search.enabled = true;
        svc::CanonicalForm canon = svc::canonicalize(n.prog);
        std::string key =
            svc::planKey(canon, ropts.base.search.machine, ropts.base)
                .hex();
        core::Compilation c = core::compileResilient(canon.program, ropts);
        std::string digest = hash128(record(c, key)).hex();
        auto it = kGolden.find(n.name);
        if (print)
            std::printf("    {\"%s\", \"%s\"},\n", n.name.c_str(),
                        digest.c_str());
        else if (it == kGolden.end())
            ADD_FAILURE() << "no recorded digest";
        else
            EXPECT_EQ(digest, it->second) << record(c, key);

        // Stop-at-first-loss, checked directly on the trail.
        const std::vector<double> &heur = c.search.heuristicTimesUs;
        for (const xform::SearchScore &t : c.search.trail) {
            if (t.verdict != "inadmissible")
                continue;
            SCOPED_TRACE(t.origin);
            ASSERT_FALSE(t.simTimesUs.empty());
            ASSERT_LE(t.simTimesUs.size(), heur.size());
            size_t last = t.simTimesUs.size() - 1;
            EXPECT_GT(t.simTimesUs[last], heur[last]);
            for (size_t j = 0; j < last; ++j)
                EXPECT_LE(t.simTimesUs[j], heur[j]) << "size " << j;
            EXPECT_EQ(t.totalUs, -1.0);
        }
    }
}

} // namespace
} // namespace anc
