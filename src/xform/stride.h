/**
 * @file
 * Innermost-loop stride analysis (the Section 9 vector-machine
 * application): on CRAY-style machines vector loads and stores need
 * constant stride, and even scatter/gather machines prefer it. Access
 * normalization makes subscripts equal to loop variables, so the
 * innermost strides of a normalized nest are constants.
 */

#ifndef ANC_XFORM_STRIDE_H
#define ANC_XFORM_STRIDE_H

#include <vector>

#include "xform/transform.h"

namespace anc::xform {

/** Stride record for one array reference. */
struct RefStride
{
    size_t stmt;    //!< statement index
    size_t arrayId;
    bool isWrite;
    /** Per-dimension change of the subscript per innermost-loop step
     * (already scaled by the loop's stride for transformed nests).
     *
     * Sign semantics: HNF lattice strides are always positive (the
     * emitted innermost loop always counts upward), so a reversed loop
     * (transform row with a negative innermost entry) shows up here as
     * a negative subscript coefficient -- the sign of each entry is
     * the physical direction the reference moves through that array
     * dimension per executed innermost iteration. This is exactly what
     * the planner's block-transfer contiguity check assumes: |stride|
     * measures contiguity, the sign only direction. */
    std::vector<Rational> strides;

    /** All strides integral: a constant-stride (vectorizable) access. */
    bool
    constantStride() const
    {
        for (const Rational &s : strides)
            if (!s.isInteger())
                return false;
        return true;
    }

    /** At most one dimension varies: a simple strided vector access. */
    bool
    singleDimension() const
    {
        size_t varying = 0;
        for (const Rational &s : strides)
            if (!s.isZero())
                ++varying;
        return varying <= 1;
    }
};

/** Strides of every reference along the innermost loop of a source
 * nest (unit loop step). */
std::vector<RefStride> analyzeInnerStrides(const ir::LoopNest &nest);

/** Strides of every reference along the innermost loop of a
 * transformed nest (scaled by the lattice stride of that loop, which
 * HNF makes positive -- see RefStride::strides for the sign
 * semantics). Needs no loop bounds, so it takes the bounds-free part
 * (TransformedNest::rewrite()). Returns an empty list for a zero-depth
 * nest. */
std::vector<RefStride> analyzeInnerStrides(const NestRewrite &nest);

} // namespace anc::xform

#endif // ANC_XFORM_STRIDE_H
