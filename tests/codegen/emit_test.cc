/**
 * @file
 * Unit tests for SPMD node-program emission.
 */

#include <gtest/gtest.h>

#include "codegen/emit_c.h"
#include "codegen/planner.h"
#include "ir/gallery.h"
#include "xform/normalize.h"

namespace anc::codegen {
namespace {

TEST(EmitGemm, MatchesPaperSection81Structure)
{
    // The paper's parallel GEMM:
    //   for u = p, N, step P
    //     for v = 1, N
    //       read A[*, v];
    //       for w = 1, N
    //         C[w, u] = C[w, u] + A[w, v] * B[v, u]
    ir::Program p = ir::gallery::gemm();
    xform::NormalizeResult r = xform::accessNormalize(p);
    numa::ExecutionPlan plan =
        planCodegen(p, r.nest->rewrite(), r.depMatrix, &r.access);
    std::string s = emitNodeProgram(p, *r.nest, plan);
    EXPECT_NE(s.find("step P"), std::string::npos) << s;
    EXPECT_NE(s.find("read A[*, v]"), std::string::npos) << s;
    EXPECT_NE(s.find("C[w, u] = C[w, u] + A[w, v] * B[v, u]"),
              std::string::npos)
        << s;
}

TEST(EmitSyr2k, HasFourBlockReads)
{
    ir::Program p = ir::gallery::syr2kBanded();
    xform::NormalizeResult r = xform::accessNormalize(p);
    numa::ExecutionPlan plan =
        planCodegen(p, r.nest->rewrite(), r.depMatrix, &r.access);
    std::string s = emitNodeProgram(p, *r.nest, plan);
    size_t reads = 0, pos = 0;
    while ((pos = s.find("read ", pos)) != std::string::npos) {
        ++reads;
        pos += 5;
    }
    EXPECT_GE(reads, 4u) << s;
    EXPECT_NE(s.find("block transfer"), std::string::npos);
}

TEST(EmitNonUnit, StrideAppearsInInnerLoops)
{
    ir::Program p = ir::gallery::section3Example();
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix{{2, 4}, {1, 5}});
    numa::ExecutionPlan plan;
    std::string s = emitNodeProgram(p, nest, plan);
    EXPECT_NE(s.find("step 3"), std::string::npos) << s;
}

TEST(EmitSync, NonParallelOuterAnnotated)
{
    ir::Program p = ir::gallery::gemm();
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix::identity(3));
    numa::ExecutionPlan plan;
    plan.outerParallel = false;
    std::string s = emitNodeProgram(p, nest, plan);
    EXPECT_NE(s.find("synchronize"), std::string::npos);
}

TEST(EmitOwnership, GuardsAndComment)
{
    std::string s = emitOwnershipProgram(ir::gallery::gemm());
    EXPECT_NE(s.find("if (owner(C[i, j]) == p)"), std::string::npos) << s;
    EXPECT_NE(s.find("looking for work to do"), std::string::npos);
    EXPECT_NE(s.find("for i ="), std::string::npos);
}

} // namespace
} // namespace anc::codegen
