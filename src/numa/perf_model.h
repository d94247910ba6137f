/**
 * @file
 * The "simple performance model" of Section 8 (the paper defers its
 * statement to the technical report): closed-form predicted execution
 * time and speedup from per-iteration access classification.
 *
 * One calibration simulation at a reference processor count measures,
 * per iteration, how many references are local, element-wise remote,
 * and block-fetched. For wrapped distributions the remote fraction of a
 * reference scales as (1 - 1/P), so the model extrapolates the counts
 * to any P and prices them with the machine constants:
 *
 *   t_iter(P) = overhead + flops*t_f
 *             + local(P)*t_l
 *             + remote(P)*t_r(P)
 *             + blocked(P)*(t_byte(P)*elem + t_l) + startups(P)
 *   T(P)      = ceil(outer/P)/outer * iterations * t_iter(P)
 *
 * The ceil factor captures the wrapped distribution's load-imbalance
 * steps, which dominate the figures' plateaus at small problem sizes.
 */

#ifndef ANC_NUMA_PERF_MODEL_H
#define ANC_NUMA_PERF_MODEL_H

#include "numa/simulator.h"

namespace anc::numa {

/** Calibrated per-iteration access mix. */
struct PerfModel
{
    MachineParams machine;
    uint64_t iterations = 0;     //!< total innermost iterations
    Int outerIterations = 0;     //!< trip count of the distributed loop
    double flopsPerIter = 0.0;
    double localPerIter = 0.0;   //!< at the calibration P
    double remotePerIter = 0.0;  //!< at the calibration P
    double blockedPerIter = 0.0; //!< block-fetched elements per iter
    double startupsPerIter = 0.0;
    Int calibrationP = 2;

    /** Predicted parallel time at any processor count. */
    double predictTime(Int processors) const;

    /** Predicted speedup over the P = 1 prediction. */
    double
    predictSpeedup(Int processors) const
    {
        return predictTime(1) / predictTime(processors);
    }
};

/**
 * Calibrate the model for a compiled program by simulating once at the
 * given reference processor count.
 */
PerfModel calibrateModel(const ir::Program &prog,
                         const xform::TransformedNest &nest,
                         const ExecutionPlan &plan, const SimOptions &opts,
                         const ir::Bindings &binds);

} // namespace anc::numa

#endif // ANC_NUMA_PERF_MODEL_H
