#include "xform/stride.h"

namespace anc::xform {

namespace {

std::vector<RefStride>
analyze(const std::vector<ir::Statement> &body, size_t depth, Int step)
{
    std::vector<RefStride> out;
    if (depth == 0)
        return out;
    size_t inner = depth - 1;
    for (size_t si = 0; si < body.size(); ++si) {
        auto visit = [&](const ir::ArrayRef &r, bool is_write) {
            RefStride rs;
            rs.stmt = si;
            rs.arrayId = r.arrayId;
            rs.isWrite = is_write;
            for (const ir::AffineExpr &e : r.subscripts)
                rs.strides.push_back(e.varCoeff(inner) * Rational(step));
            out.push_back(std::move(rs));
        };
        body[si].forEachRef(visit);
    }
    return out;
}

} // namespace

std::vector<RefStride>
analyzeInnerStrides(const ir::LoopNest &nest)
{
    return analyze(nest.body(), nest.depth(), 1);
}

std::vector<RefStride>
analyzeInnerStrides(const NestRewrite &nest)
{
    // A zero-depth nest has no innermost loop (and no references that
    // could stride along it).
    if (nest.depth() == 0)
        return {};
    return analyze(nest.body, nest.depth(),
                   nest.lattice.stride(nest.depth() - 1));
}

} // namespace anc::xform
