#include "xform/normalize.h"

#include <sstream>

#include "ratmath/linalg.h"
#include "xform/basis.h"
#include "xform/legal.h"

namespace anc::xform {

NormalizeResult
accessNormalize(const ir::Program &prog, const NormalizeOptions &opts)
{
    prog.validate();
    AccessMatrixInfo access =
        buildAccessMatrix(prog, opts.useDistributionHint);
    deps::DependenceInfo dinfo =
        deps::analyzeDependences(prog, opts.includeInputDeps);
    NormalizeResult r =
        normalizationRecord(access, dinfo, prog.nest.depth());
    basisStep(r);
    legalBasisStep(r);
    invertibleStep(r, dinfo, /*enforce_legality=*/true,
                   /*unimodular=*/false);
    applyStep(r, prog);
    return r;
}

NormalizeResult
normalizationRecord(const AccessMatrixInfo &access,
                    const deps::DependenceInfo &dinfo, size_t depth)
{
    NormalizeResult r;
    r.access = access;
    r.depMatrix = dinfo.matrix(depth);
    r.depsImprecise = dinfo.imprecise;
    return r;
}

void
basisStep(NormalizeResult &r)
{
    BasisResult basis = basisMatrix(r.access.matrix);
    r.basis = basis.basis;
    r.basisKeptRows = basis.keptRows;
}

void
legalBasisStep(NormalizeResult &r)
{
    r.legal = legalBasis(r.basis, r.depMatrix, &r.legalTrail);
}

namespace {

/**
 * Complete the longest prefix of `rows` whose completion is unimodular;
 * the identity (always legal) when no prefix works. `complete(prefix,
 * &projection_rows)` pads a prefix to an invertible depth x depth
 * matrix.
 */
template <class Complete>
IntMatrix
unimodularPrefix(const IntMatrix &rows, size_t depth,
                 const Complete &complete, size_t &rows_dropped,
                 size_t &projection_rows)
{
    projection_rows = 0;
    for (size_t keep = rows.rows() + 1; keep-- > 0;) {
        IntMatrix prefix(0, depth);
        for (size_t i = 0; i < keep; ++i)
            prefix.appendRow(rows.row(i));
        try {
            size_t proj = 0;
            IntMatrix t = complete(prefix, &proj);
            if (isUnimodular(t)) {
                rows_dropped = rows.rows() - keep;
                projection_rows = proj;
                return t;
            }
        } catch (const Error &) {
            // Completing this prefix failed (overflow, degenerate
            // projection); a shorter prefix may still work.
        }
    }
    rows_dropped = rows.rows();
    return IntMatrix::identity(depth);
}

} // namespace

void
invertibleStep(NormalizeResult &r, const deps::DependenceInfo &dinfo,
               bool enforce_legality, bool unimodular)
{
    size_t n = r.depMatrix.rows();
    if (!enforce_legality)
        r.legal = r.basis;
    auto complete = [&](const IntMatrix &rows, size_t *projection_rows) {
        return enforce_legality
                   ? legalInvertible(rows, r.depMatrix, projection_rows)
                   : padToInvertible(rows);
    };
    r.transform = unimodular
                      ? unimodularPrefix(r.legal, n, complete,
                                         r.unimodularDropped,
                                         r.projectionRows)
                      : complete(r.legal, &r.projectionRows);
    if (!enforce_legality)
        return;
    if (!deps::isLegalTransformation(r.transform, r.depMatrix))
        throw InternalError("normalization produced illegal transform");
    // The distance-vector algorithms above are exact when every
    // dependence has a constant distance or a single lattice generator.
    // For imprecise families, verify against the full solution family
    // and fall back to the (always legal) identity if the check fails.
    if (dinfo.imprecise &&
        !deps::preservesLexSign(r.transform, dinfo.families)) {
        r.transform = IntMatrix::identity(n);
        r.conservativeFallback = true;
        r.projectionRows = 0;
    }
}

std::vector<NormalizedLoop>
normalizedLoops(const AccessMatrixInfo &access, const IntMatrix &transform)
{
    std::vector<NormalizedLoop> hits;
    for (size_t l = 0; l < transform.rows(); ++l) {
        IntVec row = transform.row(l);
        IntVec neg_row = row;
        for (Int &v : neg_row)
            v = checkedNeg(v);
        for (size_t a = 0; a < access.rows.size(); ++a) {
            if (access.rows[a].coeffs == row ||
                access.rows[a].coeffs == neg_row) {
                hits.push_back({l, a, access.rows[a].distDim});
                break;
            }
        }
    }
    return hits;
}

void
applyStep(NormalizeResult &r, const ir::Program &prog)
{
    r.unimodular = isUnimodular(r.transform);
    r.normalized = normalizedLoops(r.access, r.transform);
    r.rowsRetained = r.normalized.size();
    r.nest = applyTransform(prog, r.transform);
}

std::string
describe(const NormalizeResult &r, const ir::Program &prog)
{
    std::ostringstream os;
    os << "data access matrix (importance order):\n";
    for (size_t i = 0; i < r.access.rows.size(); ++i) {
        const AccessRow &row = r.access.rows[i];
        os << "  [";
        for (size_t j = 0; j < row.coeffs.size(); ++j)
            os << (j ? " " : "") << row.coeffs[j];
        os << "]  x" << row.count << (row.distDim ? "  dist" : "")
           << "  (" << row.origin << ")\n";
    }
    os << "dependence matrix (" << r.depMatrix.cols() << " column"
       << (r.depMatrix.cols() == 1 ? "" : "s") << ")";
    if (r.depsImprecise)
        os << " [imprecise]";
    os << ":\n" << r.depMatrix.str();
    os << "basis matrix:\n" << r.basis.str();
    os << "legal basis:\n" << r.legal.str();
    os << "transformation T (" << (r.unimodular ? "unimodular" : "invertible")
       << ", det " << determinant(r.transform) << "):\n"
       << r.transform.str();
    os << "normalized subscripts: " << r.normalized.size() << "\n";
    for (const NormalizedLoop &nl : r.normalized) {
        os << "  loop " << newLoopVarName(nl.loopLevel) << " <- "
           << r.access.rows[nl.accessRow].origin
           << (nl.distDim ? " (distribution dimension)" : "") << "\n";
    }
    if (r.nest)
        os << "transformed nest:\n" << printTransformedNest(*r.nest, prog);
    return os.str();
}

} // namespace anc::xform
