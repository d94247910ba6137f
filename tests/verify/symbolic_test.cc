/**
 * @file
 * Property tests for the symbolic prover, differential against the
 * point-by-point enumeration oracle. The contract under test: on every
 * program whose iteration space is small enough to enumerate, the
 * symbolic verdict (computed with parameters as free symbols, never
 * looking at a single concrete point) must agree with the oracle --
 * both on clean compilations (everything passes) and on deliberately
 * miscompiled plans (both sides must refuse). Where the two disagree
 * by design -- the oracle has no dependence-preservation check -- the
 * test pins down that the symbolic layer is strictly stronger.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "core/compiler.h"
#include "deps/dependence.h"
#include "ir/builder.h"
#include "ir/gallery.h"
#include "ir/interp.h"
#include "verify/symbolic.h"
#include "verify/verify.h"
#include "xform/transform.h"

namespace anc::verify {
namespace {

Rational
rat(Int n, Int d = 1)
{
    return Rational(n, d);
}

SymConstraint
con(IntVec var, IntVec param, Int cst, std::string origin)
{
    SymConstraint c;
    c.var = std::move(var);
    c.param = std::move(param);
    c.cst = cst;
    c.origin = std::move(origin);
    return c;
}

const CheckResult &
check(const ValidationReport &r, CheckKind kind)
{
    for (const CheckResult &c : r.checks)
        if (c.kind == kind)
            return c;
    throw std::logic_error("check kind missing from report");
}

/** Rebuild a nest with mutated loops/body through the public ctor. */
xform::TransformedNest
rebuild(const xform::TransformedNest &nest,
        std::vector<xform::TransformedLoop> loops,
        std::vector<ir::Statement> body)
{
    xform::NestRewrite rw = nest.rewrite();
    rw.body = std::move(body);
    return xform::TransformedNest(std::move(rw), std::move(loops),
                                  nest.paramConditions());
}

ValidateOptions
symbolicOnly()
{
    ValidateOptions o;
    o.crossCheck = false;
    return o;
}

TEST(SymbolicTest, ProverProvesAndRefutesBoxImplications)
{
    // {x >= 0, 4 - x >= 0}: the goal 6 - x >= 0 is a consequence, the
    // goal x - 1 >= 0 is not (x = 0 violates it).
    std::vector<SymConstraint> sys = {con({1}, {}, 0, "x >= 0"),
                                      con({-1}, {}, 4, "x <= 4")};
    ProofResult ok = proveImplies(sys, con({-1}, {}, 6, "x <= 6"));
    EXPECT_EQ(ok.status, ProofStatus::Proven) << ok.note;

    SymConstraint goal = con({1}, {}, -1, "x >= 1");
    ProofResult bad = proveImplies(sys, goal);
    ASSERT_EQ(bad.status, ProofStatus::Refuted) << bad.note;
    ASSERT_EQ(bad.witnessVars.size(), 1u);
    // The witness must actually satisfy the system and violate the
    // goal -- the prover's report is checkable, not just an opinion.
    for (const SymConstraint &c : sys)
        EXPECT_GE(c.evaluate(bad.witnessVars, bad.witnessParams), 0)
            << c.origin;
    EXPECT_LT(goal.evaluate(bad.witnessVars, bad.witnessParams), 0);
}

TEST(SymbolicTest, ProverCoversEveryParameterValue)
{
    // {x >= 0, x <= N - 1} implies 2N - x - 1 >= 0 for EVERY integer N
    // (a nonempty system forces N >= 1). The converse goal x >= N is
    // refutable, and the witness must name the parameter binding.
    std::vector<SymConstraint> sys = {con({1}, {0}, 0, "x >= 0"),
                                      con({-1}, {1}, -1, "x <= N-1")};
    ProofResult ok =
        proveImplies(sys, con({-1}, {2}, -1, "x <= 2N - 1"));
    EXPECT_EQ(ok.status, ProofStatus::Proven) << ok.note;

    SymConstraint goal = con({1}, {-1}, 0, "x >= N");
    ProofResult bad = proveImplies(sys, goal);
    ASSERT_EQ(bad.status, ProofStatus::Refuted) << bad.note;
    ASSERT_EQ(bad.witnessVars.size(), 1u);
    ASSERT_EQ(bad.witnessParams.size(), 1u);
    for (const SymConstraint &c : sys)
        EXPECT_GE(c.evaluate(bad.witnessVars, bad.witnessParams), 0)
            << c.origin;
    EXPECT_LT(goal.evaluate(bad.witnessVars, bad.witnessParams), 0);
}

TEST(SymbolicTest, GalleryVerdictsAgreeWithTheEnumerationOracle)
{
    // Every gallery kernel: the symbolic-only verdict (no enumeration
    // anywhere in the decision) and the independent point-by-point
    // oracle must both come back clean.
    using ir::Program;
    const std::pair<const char *, Program (*)()> kernels[] = {
        {"figure1", ir::gallery::figure1},
        {"section3Example", ir::gallery::section3Example},
        {"scalingExample", ir::gallery::scalingExample},
        {"section5Example", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
        {"syr2kBanded", ir::gallery::syr2kBanded},
    };
    int oracle_feasible = 0;
    for (const auto &[name, make] : kernels) {
        SCOPED_TRACE(name);
        core::Compilation c = core::compile(make());
        ValidationReport r =
            validate(c.program, c.nest(), c.normalization.depMatrix,
                     symbolicOnly());
        EXPECT_TRUE(r.passed()) << r.render();
        for (const CheckResult &cr : r.checks)
            EXPECT_EQ(cr.method, CheckMethod::Symbolic)
                << checkName(cr.kind);

        EnumerationOracle o = enumerationOracle(c.program, c.nest());
        if (!o.feasible)
            continue;
        ++oracle_feasible;
        EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
        EXPECT_TRUE(o.orderOk) << o.orderDetail;
        if (o.differentialRan)
            EXPECT_TRUE(o.differentialOk) << o.differentialDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    // The gallery kernels all have small feasible bindings.
    EXPECT_EQ(oracle_feasible, 10);
}

TEST(SymbolicTest, SymbolicTripCountsMatchEnumeration)
{
    // Where a polynomial closed form exists it must count exactly what
    // the interpreter enumerates, at several parameter bindings; the
    // banded SYR2K (min/max bounds) must honestly decline.
    using ir::Program;
    const std::pair<const char *, Program (*)()> closed[] = {
        {"figure1", ir::gallery::figure1},
        {"section3Example", ir::gallery::section3Example},
        {"scalingExample", ir::gallery::scalingExample},
        {"section5Example", ir::gallery::section5Example},
        {"gemm", ir::gallery::gemm},
        {"gemv", ir::gallery::gemv},
        {"ger", ir::gallery::ger},
        {"jacobi2d", ir::gallery::jacobi2d},
        {"gaussSeidel", ir::gallery::gaussSeidel},
    };
    for (const auto &[name, make] : closed) {
        SCOPED_TRACE(name);
        ir::Program prog = make();
        std::optional<Polynomial> tc = symbolicTripCount(prog);
        ASSERT_TRUE(tc.has_value());
        size_t m = prog.params.size();
        for (Int v : {3, 4, 6}) {
            IntVec binding(m, v);
            uint64_t count = ir::forEachIteration(
                prog.nest, binding, [](const IntVec &) {});
            RatVec at(m, rat(v));
            EXPECT_EQ(tc->evaluate(at), rat(Int(count)))
                << "params=" << v << " poly " << tc->str(prog.params);
        }
    }
    EXPECT_FALSE(
        symbolicTripCount(ir::gallery::syr2kBanded()).has_value());
}

/**
 * A compact copy of the integration fuzzer's program generator:
 * concrete bounds 3..6 keep every space enumerable, 2-D arrays X and Y
 * get extents computed so all subscripts stay in range, loops are box
 * or triangular, and the statement X[s] = X[s'] + Y[t] with a 0/1
 * shift creates constant-distance dependences.
 */
ir::Program
generate(std::mt19937 &rng, size_t depth)
{
    std::uniform_int_distribution<Int> extent(3, 6);
    std::uniform_int_distribution<Int> coef(-1, 1);
    std::uniform_int_distribution<Int> shift(0, 1);
    std::uniform_int_distribution<int> kind(0, 2);

    IntVec hi(depth);
    for (size_t k = 0; k < depth; ++k)
        hi[k] = extent(rng);

    ir::ProgramBuilder b(depth);

    auto random_sub = [&](bool force_var, size_t var) {
        IntVec row(depth, 0);
        bool nonzero = false;
        for (size_t k = 0; k < depth; ++k) {
            row[k] = coef(rng);
            nonzero = nonzero || row[k] != 0;
        }
        if (force_var || !nonzero)
            row[var] = 1;
        return row;
    };
    size_t nsubs = 2;
    std::vector<IntVec> xrows, yrows;
    for (size_t d = 0; d < nsubs; ++d) {
        xrows.push_back(random_sub(d == 0, d % depth));
        yrows.push_back(random_sub(false, (d + 1) % depth));
    }
    Int xshift = shift(rng), yshift = shift(rng);

    auto range_of = [&](const IntVec &row) {
        Int lo = 0, up = 0;
        for (size_t k = 0; k < depth; ++k) {
            if (row[k] > 0)
                up += row[k] * hi[k];
            else
                lo += row[k] * hi[k];
        }
        return std::pair<Int, Int>(lo, up);
    };

    std::vector<ir::AffineExpr> xext, yext;
    IntVec xoff, yoff;
    for (size_t d = 0; d < nsubs; ++d) {
        auto [lo, up] = range_of(xrows[d]);
        xoff.push_back(-lo);
        xext.push_back(ir::AffineExpr::constant(
            Rational(up - lo + 1 + xshift), 0, 0));
        auto [lo2, up2] = range_of(yrows[d]);
        yoff.push_back(-lo2);
        yext.push_back(ir::AffineExpr::constant(
            Rational(up2 - lo2 + 1 + yshift), 0, 0));
    }
    ir::DistributionSpec dist =
        kind(rng) == 0 ? ir::DistributionSpec::wrapped(1)
                       : (kind(rng) == 1 ? ir::DistributionSpec::blocked(1)
                                         : ir::DistributionSpec::wrapped(0));
    size_t ax = b.array("X", xext, dist);
    size_t ay = b.array("Y", yext, ir::DistributionSpec::wrapped(1));

    for (size_t k = 0; k < depth; ++k) {
        if (k > 0 && kind(rng) == 0)
            b.loop("i" + std::to_string(k), b.var(k - 1), b.cst(hi[k]));
        else
            b.loop("i" + std::to_string(k), b.cst(0), b.cst(hi[k]));
    }

    auto make_ref = [&](size_t arr, const std::vector<IntVec> &rows,
                        const IntVec &off, Int extra) {
        std::vector<ir::AffineExpr> subs;
        for (size_t d = 0; d < rows.size(); ++d) {
            ir::AffineExpr e = b.cst(off[d] + (d == 0 ? extra : 0));
            for (size_t k = 0; k < depth; ++k)
                if (rows[d][k] != 0)
                    e = e + b.var(k).scaled(Rational(rows[d][k]));
            subs.push_back(e);
        }
        return b.ref(arr, subs);
    };

    ir::ArrayRef lhs = make_ref(ax, xrows, xoff, 0);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(make_ref(ax, xrows, xoff, xshift)),
        ir::Expr::arrayRead(make_ref(ay, yrows, yoff, 0)));
    b.assign(lhs, rhs);
    return b.build();
}

TEST(SymbolicTest, FuzzedProgramsSymbolicAndOracleVerdictsAgree)
{
    // 40 random programs, every space enumerable: the symbolic-only
    // verdict and the oracle must independently come back clean and
    // therefore agree -- no divergence on any check, ever.
    std::mt19937 rng(20260808);
    for (int trial = 0; trial < 40; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        ir::Program prog = generate(rng, 2 + size_t(trial % 2));
        core::Compilation c = core::compile(prog);

        ValidationReport r =
            validate(c.program, c.nest(), c.normalization.depMatrix,
                     symbolicOnly());
        EXPECT_TRUE(r.passed()) << r.render();

        EnumerationOracle o = enumerationOracle(c.program, c.nest());
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_TRUE(o.allOk())
            << o.latticeDetail << " | " << o.orderDetail << " | "
            << o.differentialDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
}

TEST(SymbolicTest, FuzzedMiscompiledPlansFailOnBothSides)
{
    // Widening the emitted innermost upper bound by one stride step
    // always admits at least one point that is the image of no source
    // iteration. Both the symbolic prover (with no enumeration budget
    // at all) and the oracle must refuse the plan -- miscompiled plans
    // never pass, and the two verdicts must agree on WHY (lattice).
    std::mt19937 rng(0x5eedf00d);
    int tampered = 0;
    for (int trial = 0; trial < 200 && tampered < 40; ++trial) {
        ir::Program prog = generate(rng, 2 + size_t(trial % 2));
        core::Compilation c = core::compile(prog);
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        if (loops.back().upper.size() != 1)
            continue; // a min-bound could still bind; skip the trial
        SCOPED_TRACE("trial " + std::to_string(trial));
        ++tampered;
        loops.back().upper[0].constantTerm() =
            loops.back().upper[0].constantTerm() +
            Rational(loops.back().stride);
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());

        ValidationReport r = validate(c.program, bad,
                                      c.normalization.depMatrix,
                                      symbolicOnly());
        EXPECT_FALSE(r.passed()) << r.render();
        EXPECT_FALSE(check(r, CheckKind::LatticeEquivalence).passed);

        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk) << o.latticeDetail;
        EXPECT_EQ(r.passed(), o.allOk());
    }
    EXPECT_EQ(tampered, 40);
}

TEST(SymbolicTest, GalleryTamperShapesFailOnBothSides)
{
    // Three independent tamper shapes on gallery kernels; for each,
    // the symbolic-only verdict and the oracle must agree that the
    // plan is wrong, through the check that owns the breakage.
    {
        // Shifted lower bound: the emitted nest misses points.
        core::Compilation c =
            core::compile(ir::gallery::section3Example());
        std::vector<xform::TransformedLoop> loops = c.nest().loops();
        loops.back().lower[0].constantTerm() =
            loops.back().lower[0].constantTerm() + Rational(1);
        xform::TransformedNest bad =
            rebuild(c.nest(), std::move(loops), c.nest().body());
        ValidationReport r = validate(c.program, bad,
                                      c.normalization.depMatrix,
                                      symbolicOnly());
        EXPECT_FALSE(check(r, CheckKind::LatticeEquivalence).passed);
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.latticeOk);
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // Perturbed transform entry: the nest no longer describes
        // T(source space), and T * T^-1 != I.
        core::Compilation c = core::compile(ir::gallery::gemm());
        xform::NestRewrite rw = c.nest().rewrite();
        rw.t(0, 0) = rw.t(0, 0) + 1;
        xform::TransformedNest bad(std::move(rw), c.nest().loops(),
                                   c.nest().paramConditions());
        ValidationReport r = validate(c.program, bad,
                                      c.normalization.depMatrix,
                                      symbolicOnly());
        EXPECT_FALSE(r.passed()) << r.render();
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_FALSE(o.allOk());
        EXPECT_EQ(r.passed(), o.allOk());
    }
    {
        // Swapped write subscripts: space and order intact, footprints
        // differ -- both sides must catch it in the body check alone.
        core::Compilation c = core::compile(ir::gallery::gemm());
        std::vector<ir::Statement> body = c.nest().body();
        ASSERT_GE(body[0].lhs.subscripts.size(), 2u);
        std::swap(body[0].lhs.subscripts[0], body[0].lhs.subscripts[1]);
        xform::TransformedNest bad =
            rebuild(c.nest(), c.nest().loops(), std::move(body));
        ValidationReport r = validate(c.program, bad,
                                      c.normalization.depMatrix,
                                      symbolicOnly());
        EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
        EXPECT_FALSE(
            check(r, CheckKind::DifferentialExecution).passed);
        EnumerationOracle o = enumerationOracle(c.program, bad);
        ASSERT_TRUE(o.feasible) << o.reason;
        EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
        ASSERT_TRUE(o.differentialRan);
        EXPECT_FALSE(o.differentialOk);
        EXPECT_EQ(r.passed(), o.allOk());
    }
}

TEST(SymbolicTest, DependenceViolationIsCaughtOnlySymbolically)
{
    // The oracle checks the scan set, the scan order, and the concrete
    // footprints -- it has no dependence-distance check. Reversing the
    // outer Gauss-Seidel loop builds a bijective nest that enumerates
    // the right points in (its own) lexicographic order, so the only
    // layer that can reject it for every parameter value is the
    // symbolic dependence-preservation check: the symbolic side is
    // strictly stronger than enumeration here.
    ir::Program prog = ir::gallery::gaussSeidel();
    IntMatrix rev(2, 2);
    rev(0, 0) = -1;
    rev(1, 1) = 1;
    xform::TransformedNest nest = xform::applyTransform(prog, rev);
    deps::DependenceInfo dinfo = deps::analyzeDependences(prog);

    ValidationReport r =
        validate(prog, nest, dinfo.matrix(2), symbolicOnly());
    EXPECT_TRUE(check(r, CheckKind::LatticeEquivalence).passed);
    EXPECT_FALSE(check(r, CheckKind::DependencePreservation).passed);

    EnumerationOracle o = enumerationOracle(prog, nest);
    ASSERT_TRUE(o.feasible) << o.reason;
    EXPECT_TRUE(o.latticeOk) << o.latticeDetail;
    EXPECT_TRUE(o.orderOk) << o.orderDetail;
}

/** GEMM with a concrete trip count M per level: M^3 iterations. */
ir::Program
scaledGemm(Int m)
{
    ir::ProgramBuilder b(3);
    auto M = b.cst(m);
    auto c1 = b.cst(1);
    size_t arr_c = b.array("C", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_a = b.array("A", {M, M}, ir::DistributionSpec::wrapped(1));
    size_t arr_b = b.array("B", {M, M}, ir::DistributionSpec::wrapped(1));
    b.loop("i", b.cst(0), M - c1);
    b.loop("j", b.cst(0), M - c1);
    b.loop("k", b.cst(0), M - c1);
    auto vi = b.var(0), vj = b.var(1), vk = b.var(2);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(b.ref(arr_c, {vi, vj})),
        ir::Expr::binary('*', ir::Expr::arrayRead(b.ref(arr_a, {vi, vk})),
                         ir::Expr::arrayRead(b.ref(arr_b, {vk, vj}))));
    b.assign(b.ref(arr_c, {vi, vj}), rhs);
    return b.build();
}

struct Timed
{
    double wallS = 1e30; //!< best of three runs
    uint64_t steps = 0;  //!< deterministic deadline charge
    bool passed = false; //!< all three checks decided and passed
};

Timed
timedValidation(const core::Compilation &c)
{
    Timed t;
    for (int rep = 0; rep < 3; ++rep) {
        core::CancelToken token(1u << 22);
        ValidateOptions vopts;
        vopts.cancel = &token;
        auto t0 = std::chrono::steady_clock::now();
        ValidationReport r = validate(c.program, c.nest(),
                                      c.normalization.depMatrix, vopts);
        std::chrono::duration<double> d =
            std::chrono::steady_clock::now() - t0;
        t.wallS = std::min(t.wallS, d.count());
        t.steps = token.steps();
        t.passed = r.passed() && r.checks.size() == 3;
    }
    return t;
}

TEST(SymbolicTest, ProverCostIsFlatAcrossNineOrdersOfMagnitude)
{
    // The prover's cost is a function of nest depth and constraint
    // count, not of trip count: from M = 10 to M = 10^9 (10^27
    // iterations, unenumerable) every verdict passes, the prover
    // charges exactly the same number of steps, and the wall time stays
    // flat. An O(points) path misses both by orders of magnitude.
    Timed first, last;
    for (Int m = 10; m <= 1000000000; m *= 10) {
        SCOPED_TRACE("M=" + std::to_string(m));
        Timed t = timedValidation(core::compile(scaledGemm(m)));
        EXPECT_TRUE(t.passed);
        EXPECT_EQ(t.steps, 65u);
        if (m == 10)
            first = t;
        last = t;
    }
    EXPECT_EQ(last.steps, first.steps);
    EXPECT_LE(last.wallS, 4.0 * first.wallS + 0.05)
        << "M = 10^9 took " << last.wallS << " s vs " << first.wallS
        << " s at M = 10";
}

TEST(SymbolicTest, ParametricGalleryProverStepsArePinned)
{
    // Parameters stay free symbols, so each verdict covers every N; the
    // banded SYR2K's min/max bounds take the multi-bound implication
    // path.
    Timed gemm = timedValidation(core::compile(ir::gallery::gemm()));
    EXPECT_TRUE(gemm.passed);
    EXPECT_EQ(gemm.steps, 69u);
    Timed syr2k =
        timedValidation(core::compile(ir::gallery::syr2kBanded()));
    EXPECT_TRUE(syr2k.passed);
    EXPECT_EQ(syr2k.steps, 158u);
}

} // namespace
} // namespace anc::verify
