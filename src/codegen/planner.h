/**
 * @file
 * NUMA code-generation planning (Section 7 of the paper).
 *
 * Given a transformed nest, decide (a) how to partition the outermost
 * loop across processors -- by data ownership when the outermost loop
 * index is a distribution-dimension subscript (case i), round-robin
 * otherwise (cases ii and iii); (b) which remote reads become hoisted
 * block transfers -- those whose distribution-dimension subscripts are
 * invariant in the inner loops; and (c) whether outer iterations need
 * synchronization (some dependence carried by the outermost loop).
 */

#ifndef ANC_CODEGEN_PLANNER_H
#define ANC_CODEGEN_PLANNER_H

#include "numa/plan.h"
#include "xform/access_matrix.h"
#include "xform/transform.h"

namespace anc::codegen {

/**
 * Build the execution plan for a transformed nest. The plan depends on
 * T and the rewritten body only, never on the loop bounds, so it takes
 * the bounds-free part (TransformedNest::rewrite(), or rewriteNest()).
 *
 * dep_matrix holds the source-space distance vectors (columns); pass
 * the access-matrix info when available so that the rationale can
 * distinguish case (ii) from case (iii).
 */
numa::ExecutionPlan
planCodegen(const ir::Program &prog, const xform::NestRewrite &nest,
            const IntMatrix &dep_matrix,
            const xform::AccessMatrixInfo *access = nullptr);

/** Human-readable rendering of a plan. */
std::string describePlan(const numa::ExecutionPlan &plan,
                         const ir::Program &prog);

} // namespace anc::codegen

#endif // ANC_CODEGEN_PLANNER_H
