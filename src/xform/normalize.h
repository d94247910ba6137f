/**
 * @file
 * The access normalization driver: the paper's full pipeline.
 *
 *   data access matrix  (Section 2.2, ordered by importance)
 *     -> BasisMatrix    (Section 5.1, first row basis)
 *     -> LegalBasis     (Section 6.1, dependence filtering/reversal)
 *     -> LegalInvt      (Section 6.2, legality-preserving padding)
 *     -> applyTransform (Section 3, lattice-based restructuring)
 *
 * When the data access matrix is itself invertible and legal, it is used
 * directly (Section 4).
 *
 * accessNormalize() is the composition of the step functions declared
 * below; core::compileResilient()'s degradation ladder takes the same
 * steps one at a time, each inside its own recovery stage.
 */

#ifndef ANC_XFORM_NORMALIZE_H
#define ANC_XFORM_NORMALIZE_H

#include <optional>

#include "deps/dependence.h"
#include "xform/access_matrix.h"
#include "xform/legal.h"
#include "xform/transform.h"

namespace anc::xform {

/** Options controlling the normalization pipeline. */
struct NormalizeOptions
{
    /** Enforce dependence legality (LegalBasis / LegalInvt). Disabling
     * this reproduces the Section 4/5 construction without Section 6,
     * for study only. */
    bool enforceLegality = true;
    /** Also report input (read-read) dependences in the result. */
    bool includeInputDeps = false;
    /** Use the paper's Section 2.2 ordering heuristic (distribution
     * dimensions first). Disable only to ablate the heuristic. */
    bool useDistributionHint = true;
};

/** Which normalized subscript, if any, a transformed loop exposes. */
struct NormalizedLoop
{
    size_t loopLevel;  //!< row of T / level of the new nest
    size_t accessRow;  //!< index into AccessMatrixInfo::rows
    bool distDim;      //!< the subscript is in a distribution dimension
};

/** Full record of one access-normalization run. */
struct NormalizeResult
{
    AccessMatrixInfo access;   //!< the ordered data access matrix
    IntMatrix depMatrix;       //!< distance vectors (columns)
    bool depsImprecise = false;
    IntMatrix basis;           //!< after BasisMatrix
    IntMatrix legal;           //!< after LegalBasis (== basis when legality
                               //!< is disabled)
    IntMatrix transform;       //!< the final invertible T
    std::vector<NormalizedLoop> normalized; //!< Definition 4.1 hits
    std::optional<TransformedNest> nest;    //!< the restructured nest

    /** True when T is unimodular (Banerjee's special case). */
    bool unimodular = false;
    /** Rows of the access matrix that survived into T. */
    size_t rowsRetained = 0;
    /**
     * Set when the dependence analysis could not represent some
     * distance family exactly AND the exact family check
     * (deps::preservesLexSign) rejected the candidate transformation:
     * the pipeline then falls back to the identity (no restructuring),
     * which is always legal.
     */
    bool conservativeFallback = false;
    /** Basis rows invertibleStep() dropped to reach a unimodular
     * transformation (0 unless it was asked for one). */
    size_t unimodularDropped = 0;

    // --- Decision trail (for obs/explain.h; always recorded, the
    // bookkeeping is a few integers per access row).
    /** Access-matrix rows BasisMatrix kept (indices, in kept order);
     * rows absent here were linearly dependent on earlier ones. */
    std::vector<size_t> basisKeptRows;
    /** LegalBasis verdict per basis row (empty when legality
     * enforcement was disabled). */
    std::vector<LegalRowVerdict> legalTrail;
    /** Dependence-carrying projection rows LegalInvt appended; the
     * remaining synthesized rows of T are identity padding. */
    size_t projectionRows = 0;
};

/**
 * Run the full pipeline on a program. The returned transformation is
 * always invertible and, unless legality enforcement was disabled,
 * respects every analyzed dependence.
 */
NormalizeResult accessNormalize(const ir::Program &prog,
                                const NormalizeOptions &opts = {});

/** Human-readable report of a normalization run (matrices, choices). */
std::string describe(const NormalizeResult &r, const ir::Program &prog);

// --- The pipeline's steps, in order. Each reads the record fields its
// predecessors filled in.

/** A record holding the shared analyses the steps start from: the
 * ordered access matrix and the dependence matrix of a depth-deep
 * nest. */
NormalizeResult normalizationRecord(const AccessMatrixInfo &access,
                                    const deps::DependenceInfo &dinfo,
                                    size_t depth);

/** BasisMatrix (Section 5.1): fills basis and basisKeptRows. */
void basisStep(NormalizeResult &r);

/** LegalBasis (Section 6.1): fills legal and legalTrail. */
void legalBasisStep(NormalizeResult &r);

/**
 * Complete the legal basis to the invertible T. With legality enforced
 * this is LegalInvt (Section 6.2); T is then checked against every
 * distance vector and, when the dependence information is imprecise,
 * against the exact families -- a rejected T falls back to the
 * identity, which is always legal (conservativeFallback). Without
 * legality enforcement, legal is the basis itself, padded with
 * identity rows.
 *
 * `unimodular` restricts T to unimodular matrices (Banerjee's special
 * case): T completes the longest prefix of the legal basis whose
 * completion has determinant +/-1, or is the identity when no prefix
 * works; unimodularDropped counts the rows given up. Unimodular
 * transformations need no image-lattice strides or strength-reduced
 * division code, so this is the middle rung of
 * core::compileResilient()'s degradation ladder.
 */
void invertibleStep(NormalizeResult &r, const deps::DependenceInfo &dinfo,
                    bool enforce_legality, bool unimodular);

/**
 * Definition 4.1: loop level l normalizes access-matrix row a when row
 * l of T equals that row, possibly negated (the loop runs reversed).
 * At most one hit per level, the most important matching row.
 */
std::vector<NormalizedLoop> normalizedLoops(const AccessMatrixInfo &access,
                                            const IntMatrix &transform);

/** Apply T (Section 3): fills unimodular, the Definition 4.1 hits,
 * rowsRetained and the restructured nest. */
void applyStep(NormalizeResult &r, const ir::Program &prog);

} // namespace anc::xform

#endif // ANC_XFORM_NORMALIZE_H
