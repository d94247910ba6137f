/**
 * @file
 * compile() is compileResilient()'s degradation ladder run without
 * degrading: on every program the ladder compiles at its first rung,
 * the two entry points must produce the same artifact. Covers the 11
 * gallery kernels and the tools/samples programs under the option sets
 * the CLIs and benches use.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "codegen/planner.h"
#include "core/compiler.h"
#include "dsl/parser.h"
#include "ir/gallery.h"

#ifndef ANC_SAMPLES_DIR
#define ANC_SAMPLES_DIR "tools/samples"
#endif

namespace anc::core {
namespace {

std::vector<std::pair<std::string, ir::Program>>
programs()
{
    std::vector<std::pair<std::string, ir::Program>> progs = {
        {"figure1", ir::gallery::figure1()},
        {"section3", ir::gallery::section3Example()},
        {"scaling", ir::gallery::scalingExample()},
        {"section5", ir::gallery::section5Example()},
        {"gemm", ir::gallery::gemm()},
        {"gemv", ir::gallery::gemv()},
        {"ger", ir::gallery::ger()},
        {"jacobi2d", ir::gallery::jacobi2d()},
        {"gaussSeidel", ir::gallery::gaussSeidel()},
        {"skewedScatter", ir::gallery::skewedScatter()},
        {"syr2kBanded", ir::gallery::syr2kBanded()},
    };
    for (const char *name : {"figure1", "gemm", "gemv", "jacobi", "syr2k"}) {
        std::ifstream in(std::string(ANC_SAMPLES_DIR) + "/" + name + ".an");
        std::stringstream buf;
        buf << in.rdbuf();
        progs.emplace_back(std::string("samples/") + name,
                           dsl::parseProgram(buf.str()));
    }
    return progs;
}

std::vector<std::pair<std::string, CompileOptions>>
optionSets()
{
    std::vector<std::pair<std::string, CompileOptions>> sets;
    CompileOptions o;
    sets.emplace_back("default", o);
    o = {};
    o.identityTransform = true;
    sets.emplace_back("identity", o);
    o = {};
    o.search.enabled = true;
    sets.emplace_back("search", o);
    o = {};
    o.validate = true;
    sets.emplace_back("validate", o);
    o.search.enabled = true;
    sets.emplace_back("search+validate", o);
    o = {};
    o.normalize.useDistributionHint = false;
    sets.emplace_back("hint-off", o);
    o.identityTransform = true;
    sets.emplace_back("identity+hint-off", o);
    o = {};
    o.normalize.includeInputDeps = true;
    o.validate = true;
    sets.emplace_back("includeInputDeps+validate", o);
    return sets;
}

TEST(PipelineEquivalence, CompileMatchesTheLaddersFirstRung)
{
    std::vector<std::pair<std::string, CompileOptions>> sets = optionSets();
    for (const auto &[pname, prog] : programs()) {
        for (const auto &[oname, opts] : sets) {
            SCOPED_TRACE(pname + " / " + oname);
            Compilation strict;
            ASSERT_NO_THROW(strict = compile(prog, opts));
            ResilientOptions ropts;
            ropts.base = opts;
            Compilation ladder = compileResilient(prog, ropts);
            EXPECT_EQ(strict.tier, ladder.tier);
            EXPECT_EQ(strict.normalization.transform,
                      ladder.normalization.transform);
            EXPECT_EQ(xform::printTransformedNest(strict.nest(),
                                                  strict.program),
                      xform::printTransformedNest(ladder.nest(),
                                                  ladder.program));
            EXPECT_EQ(codegen::describePlan(strict.plan, strict.program),
                      codegen::describePlan(ladder.plan, ladder.program));
            EXPECT_EQ(strict.nodeProgram, ladder.nodeProgram);
            ASSERT_EQ(strict.strengthReduction.size(),
                      ladder.strengthReduction.size());
            for (size_t i = 0; i < strict.strengthReduction.size(); ++i) {
                const codegen::InductionPlan &a = strict.strengthReduction[i];
                const codegen::InductionPlan &b = ladder.strengthReduction[i];
                EXPECT_EQ(a.name, b.name);
                EXPECT_EQ(a.expr, b.expr);
                EXPECT_EQ(a.level, b.level);
                EXPECT_EQ(a.increment, b.increment);
            }
            EXPECT_EQ(strict.validation.render(),
                      ladder.validation.render());
            EXPECT_EQ(explain(strict).renderJson(),
                      explain(ladder).renderJson());
        }
    }
}

} // namespace
} // namespace anc::core
