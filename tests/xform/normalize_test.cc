/**
 * @file
 * End-to-end tests for the access-normalization pipeline.
 */

#include <gtest/gtest.h>

#include "deps/dependence.h"
#include "ir/gallery.h"
#include "ratmath/linalg.h"
#include "xform/normalize.h"

namespace anc::xform {
namespace {

using ir::Program;

TEST(NormalizeGemm, ReproducesSection81)
{
    Program p = ir::gallery::gemm();
    NormalizeResult r = accessNormalize(p);
    // The data access matrix is invertible and legal: used directly.
    EXPECT_EQ(r.transform,
              (IntMatrix{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}}));
    EXPECT_TRUE(r.unimodular);
    EXPECT_EQ(r.depMatrix.cols(), 1u);
    EXPECT_EQ(r.depMatrix.column(0), (IntVec{0, 0, 1}));
    // All three subscripts are normalized; the outermost is j, the
    // distribution subscript of C and B.
    EXPECT_EQ(r.normalized.size(), 3u);
    EXPECT_EQ(r.normalized[0].loopLevel, 0u);
    EXPECT_TRUE(r.normalized[0].distDim);
    ASSERT_TRUE(r.nest.has_value());
    // After the transformation u = j: C[w, u], A[w, v], B[v, u] as in
    // the paper's parallel code.
    EXPECT_EQ(printTransformedNest(*r.nest, p),
              "for u = 0, N - 1\n"
              "  for v = 0, N - 1\n"
              "    for w = 0, N - 1\n"
              "      C[w, u] = C[w, u] + A[w, v] * B[v, u]\n");
}

TEST(NormalizeGemm, SemanticsPreserved)
{
    Program p = ir::gallery::gemm();
    NormalizeResult r = accessNormalize(p);
    Int n = 6;
    ir::ArrayStorage seq(p, {n}), par(p, {n});
    seq.fillDeterministic(21);
    par.fillDeterministic(21);
    ir::run(p, {{n}, {}}, seq);
    r.nest->run({{n}, {}}, par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(NormalizeFigure1, ReproducesSection2)
{
    Program p = ir::gallery::figure1();
    NormalizeResult r = accessNormalize(p);
    EXPECT_EQ(r.access.matrix,
              (IntMatrix{{-1, 1, 0}, {0, 1, 1}, {1, 0, 0}}));
    // X is invertible and legal, so T == X (Section 4).
    EXPECT_EQ(r.transform, r.access.matrix);
    ASSERT_TRUE(r.nest.has_value());
    // u = j-i in [0, b-1]; the outermost loop normalizes B's
    // distribution subscript.
    EXPECT_FALSE(r.normalized.empty());
    EXPECT_EQ(r.normalized[0].loopLevel, 0u);
    EXPECT_TRUE(r.normalized[0].distDim);
    std::string code = printTransformedNest(*r.nest, p);
    EXPECT_NE(code.find("B[w, u] = B[w, u] + A[w, v]"), std::string::npos)
        << code;
}

TEST(NormalizeFigure1, SemanticsPreserved)
{
    Program p = ir::gallery::figure1();
    NormalizeResult r = accessNormalize(p);
    IntVec params{6, 5, 4};
    ir::ArrayStorage seq(p, params), par(p, params);
    seq.fillDeterministic(33);
    par.fillDeterministic(33);
    ir::run(p, {params, {}}, seq);
    r.nest->run({params, {}}, par);
    EXPECT_EQ(seq.data(0), par.data(0));
    EXPECT_EQ(seq.data(1), par.data(1));
}

TEST(NormalizeSyr2k, LegalAndNormalizesDistribution)
{
    Program p = ir::gallery::syr2kBanded();
    NormalizeResult r = accessNormalize(p);
    EXPECT_TRUE(deps::isLegalTransformation(r.transform, r.depMatrix));
    // The outermost row must normalize Cb's distribution subscript j-i
    // (as in the paper, where u = j-i makes all Cb accesses local).
    ASSERT_FALSE(r.normalized.empty());
    EXPECT_EQ(r.normalized[0].loopLevel, 0u);
    EXPECT_TRUE(r.normalized[0].distDim);
    IntVec row0 = r.transform.row(0);
    EXPECT_TRUE(row0 == IntVec({-1, 1, 0}) || row0 == IntVec({1, -1, 0}));
}

TEST(NormalizeSyr2k, SemanticsPreserved)
{
    Program p = ir::gallery::syr2kBanded();
    NormalizeResult r = accessNormalize(p);
    IntVec params{9, 3};
    ir::Bindings binds{params, {1.5, 0.25}};
    ir::ArrayStorage seq(p, params), par(p, params);
    seq.fillDeterministic(77);
    par.fillDeterministic(77);
    ir::run(p, binds, seq);
    r.nest->run(binds, par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(NormalizeSection5, RankDeficientAccessMatrix)
{
    Program p = ir::gallery::section5Example();
    NormalizeResult r = accessNormalize(p);
    // Rank-2 access matrix: rows 1 and 3 survive, padding fills in.
    EXPECT_EQ(r.basis,
              (IntMatrix{{1, 1, -1, 0}, {0, 0, 1, -1}}));
    EXPECT_TRUE(isInvertible(r.transform));
    // No loop-carried dependences here (each iteration writes its own
    // element): the legal basis equals the basis.
    EXPECT_EQ(r.legal, r.basis);
    // Subscript rows 1 and 3 are normalized; the proportional row 2 is
    // not (it reads 2u in the new code, as in the paper).
    EXPECT_EQ(r.normalized.size(), 2u);

    IntVec params;
    ir::ArrayStorage seq(p, params), par(p, params);
    seq.fillDeterministic(3);
    par.fillDeterministic(3);
    ir::run(p, {params, {}}, seq);
    r.nest->run({params, {}}, par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

TEST(NormalizeOptionsTest, LegalityOffUsesRawBasis)
{
    // The Section 4/5 construction without Section 6: the raw basis,
    // padded to an invertible T with no dependence filtering.
    Program p = ir::gallery::syr2kBanded();
    deps::DependenceInfo dinfo = deps::analyzeDependences(p);
    NormalizeResult r = normalizationRecord(buildAccessMatrix(p), dinfo,
                                            p.nest.depth());
    basisStep(r);
    invertibleStep(r, dinfo, /*enforce_legality=*/false,
                   /*unimodular=*/false);
    EXPECT_EQ(r.legal, r.basis);
    // The raw basis violates the (0,0,1) dependence for SYR2K.
    EXPECT_FALSE(deps::isLegalTransformation(r.transform, r.depMatrix));
}

TEST(DescribeTest, ReportMentionsKeyFacts)
{
    Program p = ir::gallery::gemm();
    NormalizeResult r = accessNormalize(p);
    std::string s = describe(r, p);
    EXPECT_NE(s.find("data access matrix"), std::string::npos);
    EXPECT_NE(s.find("unimodular"), std::string::npos);
    EXPECT_NE(s.find("transformed nest"), std::string::npos);
    EXPECT_NE(s.find("distribution dimension"), std::string::npos);
}

TEST(NormalizeScaling, SingleLoopProgram)
{
    // Degenerate 1-deep nest: the access row is (2); T = (2) is the
    // scaling transformation, legal (no dependences).
    Program p = ir::gallery::scalingExample();
    NormalizeResult r = accessNormalize(p);
    EXPECT_EQ(r.transform, (IntMatrix{{2}}));
    EXPECT_FALSE(r.unimodular);
    ir::ArrayStorage seq(p, {}), par(p, {});
    ir::run(p, {{}, {}}, seq);
    r.nest->run({{}, {}}, par);
    EXPECT_EQ(seq.data(0), par.data(0));
}

} // namespace
} // namespace anc::xform
