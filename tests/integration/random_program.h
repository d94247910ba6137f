/**
 * @file
 * Random affine program generator shared by the pipeline fuzzer and
 * the plan-search golden test: box/triangular bounds and one statement
 * X[s...] = X[s'...] + Y[t...] whose subscripts stay in range.
 */

#ifndef ANC_TESTS_RANDOM_PROGRAM_H
#define ANC_TESTS_RANDOM_PROGRAM_H

#include <random>

#include "ir/builder.h"

namespace anc::testgen {

/** A randomly generated program plus its binding. */
struct GenProgram
{
    ir::Program prog;
    IntVec params; // always empty (concrete bounds keep ranges exact)
};

/**
 * Build a random program of the given depth: box/triangular bounds,
 * one or two statements of the form X[s...] = X[s...] + Y[t...], with
 * array extents computed so that every subscript stays in range.
 */
inline GenProgram
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

    // Random subscript rows; each row is affine over the loop vars.
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
    // 2-D arrays: dim 0 and dim 1 rows.
    size_t nsubs = 2;
    std::vector<IntVec> xrows, yrows;
    for (size_t d = 0; d < nsubs; ++d) {
        xrows.push_back(random_sub(d == 0, d % depth));
        yrows.push_back(random_sub(false, (d + 1) % depth));
    }
    Int xshift = shift(rng), yshift = shift(rng);

    // Extents: evaluate min/max of each row over the box [0, hi].
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
        xext.push_back(
            ir::AffineExpr::constant(Rational(up - lo + 1 + xshift), 0, 0));
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

    // Loops: i_0 in [0, hi_0]; deeper loops may start at an outer var.
    for (size_t k = 0; k < depth; ++k) {
        if (k > 0 && kind(rng) == 0)
            b.loop("i" + std::to_string(k), b.var(k - 1),
                   b.cst(hi[k]));
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

    // X[s] = X[s'] + Y[t]: the X read may be shifted by 0/1 in dim 0,
    // which creates constant-distance dependences.
    ir::ArrayRef lhs = make_ref(ax, xrows, xoff, 0);
    ir::Expr rhs = ir::Expr::binary(
        '+', ir::Expr::arrayRead(make_ref(ax, xrows, xoff, xshift)),
        ir::Expr::arrayRead(make_ref(ay, yrows, yoff, 0)));
    b.assign(lhs, rhs);
    return {b.build(), {}};
}

} // namespace anc::testgen

#endif // ANC_TESTS_RANDOM_PROGRAM_H
