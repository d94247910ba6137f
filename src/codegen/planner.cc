#include "codegen/planner.h"

#include <sstream>

namespace anc::codegen {

namespace {

using ir::AffineExpr;

/** True if e is exactly the loop variable u_level (no offset/params). */
bool
isLoopVariable(const AffineExpr &e, size_t level)
{
    if (!e.constantTerm().isZero())
        return false;
    for (size_t q = 0; q < e.numParams(); ++q)
        if (!e.paramCoeff(q).isZero())
            return false;
    if (e.numVars() <= level)
        return false;
    for (size_t k = 0; k < e.numVars(); ++k)
        if (e.varCoeff(k) != (k == level ? Rational(1) : Rational(0)))
            return false;
    return true;
}

bool
isOuterVariable(const AffineExpr &e)
{
    return isLoopVariable(e, 0);
}

} // namespace

numa::ExecutionPlan
planCodegen(const ir::Program &prog, const xform::NestRewrite &nest,
            const IntMatrix &dep_matrix,
            const xform::AccessMatrixInfo *access)
{
    numa::ExecutionPlan plan;
    size_t n = nest.depth();

    // --- Case (i): find an array whose (1-D) distribution-dimension
    // subscript is normal with respect to the new outermost loop.
    // Writes take precedence over reads (locality of updates matters
    // most), statement order breaks ties.
    auto consider = [&](const ir::ArrayRef &r) -> bool {
        const ir::ArrayDecl &a = prog.arrays[r.arrayId];
        if (a.dist.kind != ir::DistKind::Wrapped &&
            a.dist.kind != ir::DistKind::Blocked)
            return false;
        size_t d = a.dist.dims[0];
        if (!isOuterVariable(r.subscripts[d]))
            return false;
        plan.alignedArray = r.arrayId;
        plan.scheme = a.dist.kind == ir::DistKind::Wrapped
                          ? numa::PartitionScheme::OwnerWrapped
                          : numa::PartitionScheme::OwnerBlocked;
        plan.rationale = "case (i): outer loop is the distribution "
                         "subscript of " +
                         a.name;
        return true;
    };
    // 2-D blocks: both distribution dimensions normal with respect to
    // the two outermost loops aligns the whole processor grid.
    auto consider_2d = [&](const ir::ArrayRef &r) -> bool {
        const ir::ArrayDecl &a = prog.arrays[r.arrayId];
        if (a.dist.kind != ir::DistKind::Block2D || n < 2)
            return false;
        if (!isLoopVariable(r.subscripts[a.dist.dims[0]], 0) ||
            !isLoopVariable(r.subscripts[a.dist.dims[1]], 1))
            return false;
        plan.alignedArray = r.arrayId;
        plan.scheme = numa::PartitionScheme::OwnerBlock2D;
        plan.rationale = "case (i): outer two loops are the 2-D block "
                         "distribution subscripts of " +
                         a.name;
        return true;
    };
    // Scan every candidate (not just until the first hit) so that the
    // plan can report the tie-break that picked the winner: 2-D block
    // alignment over 1-D, writes over reads, statement order within a
    // class. consider/consider_2d overwrite the plan on success, so
    // probe on a scratch plan and re-run only the winner.
    auto probe = [&](auto &&fn, const ir::ArrayRef &r) {
        numa::ExecutionPlan scratch;
        std::swap(plan, scratch);
        bool ok = fn(r);
        std::swap(plan, scratch);
        return ok;
    };
    size_t eligible_2d = 0, eligible_writes = 0, eligible_reads = 0;
    const ir::ArrayRef *win = nullptr;
    bool win_2d = false, win_write = false;
    for (const ir::Statement &s : nest.body)
        if (probe(consider_2d, s.lhs) && !eligible_2d++) {
            win = &s.lhs;
            win_2d = win_write = true;
        }
    for (const ir::Statement &s : nest.body)
        if (probe(consider, s.lhs) && !eligible_writes++ && !win) {
            win = &s.lhs;
            win_write = true;
        }
    for (const ir::Statement &s : nest.body)
        s.rhs.forEachRef([&](const ir::ArrayRef &r) {
            if (probe(consider, r) && !eligible_reads++ && !win)
                win = &r;
        });
    bool aligned = false;
    if (win) {
        aligned = win_2d ? consider_2d(*win) : consider(*win);
        size_t total = eligible_2d + eligible_writes + eligible_reads;
        std::ostringstream tb;
        tb << "picked " << (win_2d ? "2-D block write"
                            : win_write ? "write" : "read")
           << " of " << prog.arrays[win->arrayId].name;
        if (total > 1)
            tb << " over " << (total - 1) << " other aligned candidate"
               << (total > 2 ? "s" : "")
               << (win_2d ? " (2-D grid alignment first"
                          : " (writes before reads")
               << ", statement order within a class)";
        else
            tb << " (only aligned candidate)";
        plan.tieBreak = tb.str();
    }
    if (!aligned) {
        plan.scheme = numa::PartitionScheme::RoundRobin;
        // Distinguish cases (ii) and (iii) when we know the access
        // matrix: was row 0 of T one of the access rows?
        bool from_access = false;
        if (access) {
            IntVec row0 = nest.t.row(0);
            for (const xform::AccessRow &ar : access->rows)
                if (ar.coeffs == row0)
                    from_access = true;
        }
        plan.rationale = from_access
                             ? "case (ii): outer loop is a subscript but "
                               "not in a distribution dimension"
                             : "case (iii): outer loop row came from "
                               "padding";
    }

    // A reference is provably local under owner-aligned wrapped
    // partitioning when its own wrapped distribution subscript is
    // exactly the outer loop variable: owner(u) == u mod P == p.
    auto provably_local = [&](const ir::ArrayRef &r) {
        if (plan.scheme != numa::PartitionScheme::OwnerWrapped)
            return false;
        const ir::ArrayDecl &a = prog.arrays[r.arrayId];
        return a.dist.kind == ir::DistKind::Wrapped &&
               isOuterVariable(r.subscripts[a.dist.dims[0]]);
    };

    // --- Block transfers: reads whose distribution-dimension
    // subscript(s) are invariant in at least the innermost loop.
    for (size_t si = 0; si < nest.body.size(); ++si) {
        size_t read_idx = 0;
        nest.body[si].rhs.forEachRef([&](const ir::ArrayRef &r) {
            const ir::ArrayDecl &a = prog.arrays[r.arrayId];
            if (a.dist.kind != ir::DistKind::Replicated &&
                !provably_local(r)) {
                int level = -1;
                for (size_t d : a.dist.dims)
                    level = std::max(level,
                                     r.subscripts[d].innermostVar());
                if (level < int(n) - 1)
                    plan.hoists.push_back({si, read_idx, level});
            }
            ++read_idx;
        });
    }

    // --- Synchronization: a dependence is carried by the outermost
    // loop iff the first entry of T*d is nonzero (positive, since T is
    // legal); such dependences order iterations of different
    // processors and require synchronization.
    if (dep_matrix.cols() > 0) {
        IntMatrix td = nest.t * dep_matrix;
        for (size_t c = 0; c < td.cols(); ++c)
            if (td(0, c) != 0)
                plan.outerParallel = false;
    }
    return plan;
}

std::string
describePlan(const numa::ExecutionPlan &plan, const ir::Program &prog)
{
    std::ostringstream os;
    os << "partition: ";
    switch (plan.scheme) {
      case numa::PartitionScheme::RoundRobin:
        os << "round-robin";
        break;
      case numa::PartitionScheme::OwnerWrapped:
        os << "owner-aligned (wrapped)";
        break;
      case numa::PartitionScheme::OwnerBlocked:
        os << "owner-aligned (blocked)";
        break;
      case numa::PartitionScheme::OwnerBlock2D:
        os << "owner-aligned (2-D blocks)";
        break;
    }
    os << " -- " << plan.rationale << "\n";
    if (plan.alignedArray)
        os << "aligned array: " << prog.arrays[*plan.alignedArray].name
           << "\n";
    os << "outer loop " << (plan.outerParallel ? "parallel"
                                               : "needs synchronization")
       << "\n";
    os << "block transfers: " << plan.hoists.size() << "\n";
    for (const numa::BlockHoist &h : plan.hoists) {
        os << "  statement " << h.stmt << ", read " << h.readIdx
           << ": hoist above level " << (h.level + 1) << "\n";
    }
    return os.str();
}

} // namespace anc::codegen
