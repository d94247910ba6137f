#include "svc/canonical.h"

#include <algorithm>

#include "dsl/printer.h"
#include "ratmath/error.h"

namespace anc::svc {

namespace {

/**
 * Every affine expression a substitution for loop variable k must
 * rewrite: all statement subscripts / index values (in statement
 * order), then the bounds of every deeper level (lower list before
 * upper list). Bounds at level k itself are handled separately by each
 * pass, and bounds at outer levels cannot mention i_k. The order of
 * this list doubles as the deterministic scan order for the direction
 * decision, so it must not depend on anything but program structure.
 */
std::vector<ir::AffineExpr *>
rewriteSet(ir::Program &p, size_t k)
{
    std::vector<ir::AffineExpr *> exprs;
    for (ir::Statement &s : p.nest.body())
        s.forEachAffineMut(
            [&](ir::AffineExpr &e) { exprs.push_back(&e); });
    for (size_t j = k + 1; j < p.nest.depth(); ++j) {
        for (ir::AffineExpr &e : p.nest.loops()[j].lower)
            exprs.push_back(&e);
        for (ir::AffineExpr &e : p.nest.loops()[j].upper)
            exprs.push_back(&e);
    }
    return exprs;
}

/**
 * Direction test for level k: the sign of the i_k coefficient in the
 * first scanned expression whose innermost variable is i_k. Restricting
 * to innermost-is-k expressions makes the verdict invariant under the
 * shift pass at every level (shifts at levels > k never touch such
 * expressions, shifts at levels <= k only add contributions to
 * variables outer than their own level). When no expression has i_k
 * innermost (e.g. every subscript couples i_k with a deeper variable,
 * as in Section 3's example), fall back to the first expression with
 * any nonzero i_k coefficient -- that verdict can in principle be
 * perturbed by deeper shifts whose anchor mentions i_k, which is why
 * canonicalize() sweeps to a fixed point instead of trusting one pass.
 * 0 means "no evidence either way": leave the direction alone.
 */
int
directionSign(const std::vector<ir::AffineExpr *> &exprs, size_t k)
{
    for (const ir::AffineExpr *e : exprs)
        if (e->innermostVar() == int(k))
            return e->varCoeff(k).sign();
    for (const ir::AffineExpr *e : exprs)
        if (!e->varCoeff(k).isZero())
            return e->varCoeff(k).sign();
    return 0;
}

/** Substitute i_k = -i_k': negate the i_k coefficient everywhere and
 * swap-negate the level's bound lists (i >= l becomes i' <= -l). */
void
reverseLevel(ir::Program &p, size_t k,
             const std::vector<ir::AffineExpr *> &exprs)
{
    for (ir::AffineExpr *e : exprs)
        e->varCoeff(k) = -e->varCoeff(k);
    ir::Loop &loop = p.nest.loops()[k];
    std::vector<ir::AffineExpr> lower, upper;
    lower.reserve(loop.upper.size());
    upper.reserve(loop.lower.size());
    for (const ir::AffineExpr &u : loop.upper)
        lower.push_back(-u);
    for (const ir::AffineExpr &l : loop.lower)
        upper.push_back(-l);
    loop.lower = std::move(lower);
    loop.upper = std::move(upper);
}

/** Total order on affine expressions: lexicographic over variable
 * coefficients, then parameter coefficients, then the constant. */
bool
exprLess(const ir::AffineExpr &a, const ir::AffineExpr &b)
{
    for (size_t k = 0; k < a.numVars(); ++k) {
        if (a.varCoeff(k) != b.varCoeff(k))
            return a.varCoeff(k) < b.varCoeff(k);
    }
    for (size_t q = 0; q < a.numParams(); ++q) {
        if (a.paramCoeff(q) != b.paramCoeff(q))
            return a.paramCoeff(q) < b.paramCoeff(q);
    }
    return a.constantTerm() < b.constantTerm();
}

void
sortDedup(std::vector<ir::AffineExpr> &bounds)
{
    std::sort(bounds.begin(), bounds.end(), exprLess);
    bounds.erase(std::unique(bounds.begin(), bounds.end()),
                 bounds.end());
}

bool
isZeroExpr(const ir::AffineExpr &e)
{
    return e.isConstant() && e.constantTerm().isZero();
}

/**
 * Substitute i_k = i_k' + L where L is the exprLess-least of the
 * level's lower bounds, anchoring the canonical loop at zero: the
 * chosen bound maps to 0 and all others to l - L. The choice is
 * canonical because lexicographic comparison of coefficient vectors is
 * translation-invariant (min(l_i - L) = min(l_i) - L), which gives both
 * equivariance -- disguised variants whose bound sets differ by a
 * common translation anchor to the same set -- and idempotence: after
 * the shift the least lower bound is the zero expression, so a second
 * pass does nothing.
 */
void
shiftLevelToZero(ir::Program &p, size_t k,
                 const std::vector<ir::AffineExpr *> &exprs)
{
    ir::Loop &loop = p.nest.loops()[k];
    const ir::AffineExpr L = *std::min_element(
        loop.lower.begin(), loop.lower.end(), exprLess);
    for (ir::AffineExpr *e : exprs) {
        const Rational c = e->varCoeff(k);
        if (!c.isZero())
            *e = *e + L.scaled(c);
    }
    for (ir::AffineExpr &l : loop.lower)
        l = l - L;
    for (ir::AffineExpr &u : loop.upper)
        u = u - L;
}

} // namespace

CanonicalForm
canonicalize(const ir::Program &prog)
{
    prog.validate();

    CanonicalForm out;
    out.program = prog;
    ir::Program &p = out.program;
    const size_t depth = p.nest.depth();

    // Sweep the per-level passes to a fixed point: a deeper level's
    // shift can rewrite outer-variable coefficients (its anchor bound
    // may mention outer variables), which can create fresh direction
    // evidence for an outer level on the next sweep. A sweep that fires
    // no rewrite is a no-op (sortDedup is idempotent), so reaching one
    // proves canonicalize(canonical) returns the input unchanged. The
    // cap is a safety net -- every gallery kernel and every disguise in
    // the property suite converges within two sweeps -- and even a
    // capped result is deterministic, which is all the cache needs.
    for (size_t sweep = 0; sweep <= depth + 1; ++sweep) {
        bool changed = false;
        for (size_t k = 0; k < depth; ++k) {
            // Pointers must be re-collected per level: reverseLevel
            // replaces the level's own bound vectors, and those vectors
            // are part of deeper levels' rewrite sets.
            std::vector<ir::AffineExpr *> exprs = rewriteSet(p, k);
            if (directionSign(exprs, k) < 0) {
                reverseLevel(p, k, exprs);
                ++out.reversedLevels;
                changed = true;
            }
            ir::Loop &loop = p.nest.loops()[k];
            if (!isZeroExpr(*std::min_element(
                    loop.lower.begin(), loop.lower.end(), exprLess))) {
                shiftLevelToZero(p, k, exprs);
                ++out.shiftedLevels;
                changed = true;
            }
            sortDedup(loop.lower);
            sortDedup(loop.upper);
        }
        if (!changed)
            break;
    }

    // Canonical loop-variable names c0, c1, ..., skipping any that
    // collide with a declared parameter, scalar, or array name.
    std::vector<std::string> taken;
    taken.insert(taken.end(), p.params.begin(), p.params.end());
    taken.insert(taken.end(), p.scalars.begin(), p.scalars.end());
    for (const ir::ArrayDecl &a : p.arrays)
        taken.push_back(a.name);
    size_t next = 0;
    for (size_t k = 0; k < depth; ++k) {
        std::string name;
        do {
            name = "c" + std::to_string(next++);
        } while (std::find(taken.begin(), taken.end(), name) !=
                 taken.end());
        if (p.nest.loops()[k].var != name) {
            p.nest.loops()[k].var = name;
            out.renamed = true;
        }
    }

    p.validate();
    out.text = dsl::printDsl(p);
    return out;
}

PlanKey
planKey(const CanonicalForm &canonical, const numa::MachineParams &machine,
        const core::CompileOptions &opts)
{
    Hasher128 h;
    h.update(canonical.text);
    h.update(machine.name);
    h.update(machine.localAccessTime);
    h.update(machine.remoteAccessTime);
    h.update(machine.blockStartupTime);
    h.update(machine.blockPerByteTime);
    h.update(machine.flopTime);
    h.update(machine.loopOverheadTime);
    h.update(machine.guardTime);
    h.update(machine.syncTime);
    h.update(machine.retryBackoffTime);
    h.update(machine.restartTime);
    h.updateInt(machine.elementSize);
    h.update(machine.contentionFactor);
    // Bit 2 (legality enforcement, now unconditional) is retired and
    // always 1, bit 5 is retired and always 0, so existing keys stay
    // valid.
    h.update(uint64_t(opts.identityTransform) << 0 |
             uint64_t(opts.validate) << 1 | uint64_t(1) << 2 |
             uint64_t(opts.normalize.includeInputDeps) << 3 |
             uint64_t(opts.normalize.useDistributionHint) << 4 |
             uint64_t(opts.search.enabled) << 6);
    // Search knobs select the plan, so they select the cache entry.
    // hostThreads is deliberately absent: simulator results are
    // bit-identical across host parallelism, so it cannot change the
    // winner (xform::SearchOptions documents this contract).
    const xform::SearchOptions &so = opts.search;
    h.updateInt(so.budget);
    h.updateInt(so.paramValue);
    h.updateInt(so.maxEnumerated);
    h.update(uint64_t(so.processorSweep.size()));
    for (Int p : so.processorSweep)
        h.updateInt(p);
    h.update(so.machine.name);
    h.update(so.machine.localAccessTime);
    h.update(so.machine.remoteAccessTime);
    h.update(so.machine.blockStartupTime);
    h.update(so.machine.blockPerByteTime);
    h.update(so.machine.flopTime);
    h.update(so.machine.loopOverheadTime);
    h.update(so.machine.guardTime);
    h.update(so.machine.syncTime);
    h.update(so.machine.retryBackoffTime);
    h.update(so.machine.restartTime);
    h.updateInt(so.machine.elementSize);
    h.update(so.machine.contentionFactor);
    return PlanKey{h.digest()};
}

} // namespace anc::svc
