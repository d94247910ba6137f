/**
 * @file
 * Unit tests for the Section 7 code-generation planner.
 */

#include <gtest/gtest.h>

#include "codegen/planner.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "xform/classic.h"
#include "xform/normalize.h"

namespace anc::codegen {
namespace {

using numa::PartitionScheme;

TEST(PlannerGemm, CaseOneOwnerWrapped)
{
    ir::Program p = ir::gallery::gemm();
    xform::NormalizeResult r = xform::accessNormalize(p);
    numa::ExecutionPlan plan =
        planCodegen(p, r.nest->rewrite(), r.depMatrix, &r.access);
    EXPECT_EQ(plan.scheme, PartitionScheme::OwnerWrapped);
    ASSERT_TRUE(plan.alignedArray.has_value());
    EXPECT_EQ(p.arrays[*plan.alignedArray].name, "C");
    EXPECT_TRUE(plan.outerParallel);
    EXPECT_NE(plan.rationale.find("case (i)"), std::string::npos);
    // A[w, v] hoists above the innermost loop (level 1). B[v, u] and
    // C[w, u] are provably local under the owner-aligned partition
    // (their wrapped distribution subscript is the outer variable), so
    // no block transfer is planned for them.
    ASSERT_EQ(plan.hoists.size(), 1u);
    EXPECT_EQ(plan.hoists[0].level, 1);
    EXPECT_EQ(plan.hoists[0].readIdx, 1u); // A is the second read
}

TEST(PlannerSyr2k, CaseOneAndHoists)
{
    ir::Program p = ir::gallery::syr2kBanded();
    xform::NormalizeResult r = xform::accessNormalize(p);
    numa::ExecutionPlan plan =
        planCodegen(p, r.nest->rewrite(), r.depMatrix, &r.access);
    EXPECT_EQ(plan.scheme, PartitionScheme::OwnerWrapped);
    EXPECT_EQ(p.arrays[*plan.alignedArray].name, "Cb");
    EXPECT_TRUE(plan.outerParallel);
    // All four band-array reads hoist (their distribution subscripts
    // are invariant in the innermost loop).
    size_t band_hoists = 0;
    for (const numa::BlockHoist &h : plan.hoists)
        if (h.level <= 1)
            ++band_hoists;
    EXPECT_GE(band_hoists, 4u);
}

TEST(PlannerUntransformed, RoundRobinForGemm)
{
    // Identity transform: outer loop is i, not a distribution
    // subscript -> case (ii).
    ir::Program p = ir::gallery::gemm();
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix::identity(3));
    xform::AccessMatrixInfo access = xform::buildAccessMatrix(p);
    IntMatrix dep(3, 1);
    dep(2, 0) = 1;
    numa::ExecutionPlan plan = planCodegen(p, nest.rewrite(), dep, &access);
    EXPECT_EQ(plan.scheme, PartitionScheme::RoundRobin);
    EXPECT_FALSE(plan.alignedArray.has_value());
    EXPECT_NE(plan.rationale.find("case (ii)"), std::string::npos);
}

TEST(PlannerPadding, CaseThreeDetected)
{
    // Section 5's example: padding rows supply the outermost loop when
    // the (replicated-array) access matrix is rank deficient; with no
    // distribution and the first transform row not an access row, the
    // rationale must say case (iii).
    ir::Program p = ir::gallery::section5Example();
    xform::AccessMatrixInfo access = xform::buildAccessMatrix(p);
    // Craft a transform whose row 0 is a padding-style identity row
    // that is not any access row.
    IntMatrix t{{0, 1, 0, 0},
                {1, 1, -1, 0},
                {0, 0, 1, -1},
                {0, 0, 0, 1}};
    xform::TransformedNest nest = xform::applyTransform(p, t);
    numa::ExecutionPlan plan =
        planCodegen(p, nest.rewrite(), IntMatrix(4, 0), &access);
    EXPECT_EQ(plan.scheme, PartitionScheme::RoundRobin);
    EXPECT_NE(plan.rationale.find("case (iii)"), std::string::npos);
}

TEST(PlannerBlocked, OwnerBlockedScheme)
{
    // GEMM with blocked column distribution on C.
    ir::ProgramBuilder b(2);
    size_t pn = b.param("N");
    auto N = b.par(pn);
    size_t arr_c =
        b.array("C", {N, N}, ir::DistributionSpec::blocked(1));
    b.array("A", {N, N}, ir::DistributionSpec::blocked(1));
    b.loop("i", b.cst(0), N - b.cst(1));
    b.loop("j", b.cst(0), N - b.cst(1));
    b.assign(b.ref(arr_c, {b.var(1), b.var(0)}),
             ir::Expr::arrayRead(b.ref(1, {b.var(0), b.var(1)})));
    ir::Program p = b.build();
    // Interchange makes the outer loop C's distribution subscript...
    // C[j, i]: distribution dim 1 subscript is i (var 0). Identity
    // already aligns: subscript i == outer var.
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix::identity(2));
    numa::ExecutionPlan plan =
        planCodegen(p, nest.rewrite(), IntMatrix(2, 0));
    EXPECT_EQ(plan.scheme, PartitionScheme::OwnerBlocked);
    EXPECT_EQ(*plan.alignedArray, arr_c);
}

TEST(PlannerHoists, InvariantEverywhereGetsLevelMinusOne)
{
    // Read whose distribution subscript is a constant: hoistable above
    // the entire nest (level -1).
    ir::ProgramBuilder b(2);
    b.array("A", {b.cst(8), b.cst(8)}, ir::DistributionSpec::wrapped(1));
    b.array("B", {b.cst(8), b.cst(8)}, ir::DistributionSpec::wrapped(1));
    b.loop("i", b.cst(0), b.cst(7));
    b.loop("j", b.cst(0), b.cst(7));
    b.assign(b.ref(0, {b.var(0), b.var(0)}),
             ir::Expr::arrayRead(b.ref(1, {b.var(1), b.cst(3)})));
    ir::Program p = b.build();
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix::identity(2));
    numa::ExecutionPlan plan =
        planCodegen(p, nest.rewrite(), IntMatrix(2, 0));
    ASSERT_EQ(plan.hoists.size(), 1u);
    EXPECT_EQ(plan.hoists[0].level, -1);
}

TEST(PlannerHoists, InnermostVaryingSubscriptNotHoisted)
{
    // B[i, j] with wrapped columns: the distribution subscript varies
    // in the innermost loop -> no block transfer possible.
    ir::ProgramBuilder b(2);
    b.array("A", {b.cst(8), b.cst(8)}, ir::DistributionSpec::wrapped(1));
    b.array("B", {b.cst(8), b.cst(8)}, ir::DistributionSpec::wrapped(1));
    b.loop("i", b.cst(0), b.cst(7));
    b.loop("j", b.cst(0), b.cst(7));
    b.assign(b.ref(0, {b.var(0), b.var(0)}),
             ir::Expr::arrayRead(b.ref(1, {b.var(0), b.var(1)})));
    ir::Program p = b.build();
    xform::TransformedNest nest =
        xform::applyTransform(p, IntMatrix::identity(2));
    numa::ExecutionPlan plan =
        planCodegen(p, nest.rewrite(), IntMatrix(2, 0));
    EXPECT_TRUE(plan.hoists.empty());
}

TEST(PlannerDescribe, MentionsScheme)
{
    ir::Program p = ir::gallery::gemm();
    xform::NormalizeResult r = xform::accessNormalize(p);
    numa::ExecutionPlan plan =
        planCodegen(p, r.nest->rewrite(), r.depMatrix, &r.access);
    std::string s = describePlan(plan, p);
    EXPECT_NE(s.find("owner-aligned (wrapped)"), std::string::npos);
    EXPECT_NE(s.find("aligned array: C"), std::string::npos);
    EXPECT_NE(s.find("parallel"), std::string::npos);
}

} // namespace
} // namespace anc::codegen
