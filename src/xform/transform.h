/**
 * @file
 * Application of invertible integer loop transformations (Section 3).
 *
 * Given a source nest and an invertible integer matrix T, the transformed
 * iteration space is  T(P) ∩ T.Z^n : the rational image polyhedron (whose
 * per-level bounds come from Fourier-Motzkin elimination of A T^{-1} u)
 * intersected with the image lattice (whose strides and congruence
 * anchors come from the column HNF of T). The body's subscripts are
 * rewritten through x = T^{-1} u; their coefficients may become rational
 * but are integral at every enumerated point.
 *
 * For unimodular T the lattice is all of Z^n, every stride is 1, and the
 * machinery degenerates to Banerjee's framework, as the paper notes.
 *
 * Applying T is two steps. rewriteNest() computes everything that does
 * not need loop bounds -- T^{-1}, the lattice and the rewritten body,
 * which is all the planner and the stride analysis read -- and
 * boundNest() adds the Fourier-Motzkin bounds, the expensive part.
 * applyTransform() is their composition; the plan search rewrites every
 * candidate but bounds only the ones it keeps.
 */

#ifndef ANC_XFORM_TRANSFORM_H
#define ANC_XFORM_TRANSFORM_H

#include <cstdint>
#include <functional>
#include <string>

#include "ir/interp.h"
#include "ratmath/lattice.h"
#include "xform/fourier_motzkin.h"

namespace anc::xform {

/** One loop level of a transformed nest. */
struct TransformedLoop
{
    std::string var;
    std::vector<ir::AffineExpr> lower; //!< over outer new vars + params
    std::vector<ir::AffineExpr> upper;
    Int stride; //!< H[k][k]; 1 for unimodular transformations
};

/** The bounds-free part of a transformed nest: T, T^{-1}, the image
 * lattice and the body rewritten through x = T^{-1} u. */
struct NestRewrite
{
    IntMatrix t;
    RatMatrix tInv;
    Lattice lattice;
    std::vector<ir::Statement> body;

    size_t depth() const { return t.rows(); }
};

/** A restructured loop nest, executable and printable. */
class TransformedNest
{
  public:
    TransformedNest(NestRewrite rewrite, std::vector<TransformedLoop> loops,
                    std::vector<ir::AffineExpr> param_conditions);

    size_t depth() const { return loops_.size(); }
    const NestRewrite &rewrite() const { return rw_; }
    const IntMatrix &transform() const { return rw_.t; }
    const RatMatrix &inverseTransform() const { return rw_.tInv; }
    const Lattice &lattice() const { return rw_.lattice; }
    const std::vector<TransformedLoop> &loops() const { return loops_; }
    const std::vector<ir::Statement> &body() const { return rw_.body; }
    const std::vector<ir::AffineExpr> &
    paramConditions() const
    {
        return paramConditions_;
    }

    /** Concrete lower bound at level k (ceil of max over bounds). */
    Int lowerAt(size_t k, const IntVec &u, const IntVec &params) const;

    /** Concrete upper bound at level k (floor of min over bounds). */
    Int upperAt(size_t k, const IntVec &u, const IntVec &params) const;

    /**
     * First admissible value >= the concrete lower bound at level k,
     * given the forward-substitution prefix y_0..y_{k-1}: the smallest
     * value congruent to the lattice anchor modulo the stride.
     */
    Int startAt(size_t k, Int lower, const IntVec &y_prefix) const;

    /** The source-space iteration corresponding to new-space point u. */
    IntVec oldIteration(const IntVec &u) const;

    /**
     * Enumerate the transformed iteration space in lexicographic order.
     * Each visited point u corresponds to exactly one source iteration
     * T^{-1} u. Returns the iteration count.
     */
    uint64_t
    forEachIteration(const IntVec &params,
                     const std::function<void(const IntVec &)> &fn) const;

    /**
     * Execute the (rewritten) body over the whole space; semantically
     * equal to running the source program when the transformation is
     * legal. Returns the iteration count.
     */
    uint64_t run(const ir::Bindings &binds, ir::ArrayStorage &store,
                 const ir::TraceFn &trace = nullptr) const;

  private:
    NestRewrite rw_;
    std::vector<TransformedLoop> loops_;
    std::vector<ir::AffineExpr> paramConditions_;
};

/**
 * The bounds-free step of applying t: T^{-1}, the lattice and the body
 * rewritten through the inverse map. Throws MathError if t is singular.
 */
NestRewrite rewriteNest(const ir::Program &prog, const IntMatrix &t);

/**
 * The bounds step: Fourier-Motzkin elimination of the source
 * constraints substituted through T^{-1}, one loop per level with the
 * lattice stride. Throws UserError if the space is unbounded.
 */
TransformedNest boundNest(const ir::Program &prog, NestRewrite rewrite);

/**
 * Apply the invertible transformation t to the program's nest:
 * boundNest(prog, rewriteNest(prog, t)). Throws MathError if t is
 * singular and UserError if the space is unbounded.
 */
TransformedNest applyTransform(const ir::Program &prog, const IntMatrix &t);

/** Names u, v, w, z, u4, u5, ... for transformed loops. */
std::string newLoopVarName(size_t k);

/** Render the transformed nest in the paper's style (Figure 1(c)),
 * including strides and congruence anchors for non-unimodular T. */
std::string printTransformedNest(const TransformedNest &nest,
                                 const ir::Program &prog);

} // namespace anc::xform

#endif // ANC_XFORM_TRANSFORM_H
