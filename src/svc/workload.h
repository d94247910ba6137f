/**
 * @file
 * Clustered request workloads and access-equivalent program variants.
 *
 * The service tests and perfbench's clustered_hot workload need
 * request streams that look like a real compile server's: many
 * requests, few *distinct* nests -- clients resubmit the same kernels
 * written slightly differently.
 * clusteredWorkload() builds such a stream: a set of randomly generated
 * base programs ("clusters", in the spirit of the pipeline fuzzer's
 * generator), each served many times through access-equivalent
 * disguises:
 *
 *   - renamedVariant     loop variables renamed
 *   - shiftedVariant     every level's range shifted by a constant
 *                        (i = i' - d), subscripts compensated
 *   - reversedVariant    one level's traversal rendered backwards
 *                        (i = lb+ub - i'), subscripts compensated
 *   - rescaledSource     textual rendering with bounds written as
 *                        (f*e)/f, which the exact rational parser
 *                        collapses (the DSL's step-normalization case)
 *
 * svc::canonicalize maps all of them to one canonical form, so a
 * correct cache turns the stream into mostly hits. The variant
 * builders are exported because the property tests use them directly
 * against the gallery kernels.
 */

#ifndef ANC_SVC_WORKLOAD_H
#define ANC_SVC_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop_nest.h"
#include "svc/service.h"

namespace anc::svc {

/** Rename loop variables to prefix0, prefix1, ... */
ir::Program renamedVariant(const ir::Program &prog,
                           const std::string &prefix);

/** Substitute i_k = i_k' - delta at every level: same iterations, same
 * accesses, bounds shifted up by delta. */
ir::Program shiftedVariant(const ir::Program &prog, Int delta);

/**
 * Substitute i_k = (lb + ub) - i_k' at the given level (using the
 * level's first lower and upper bound): the level reads backwards but
 * covers the same range with the same accesses per iteration point.
 */
ir::Program reversedVariant(const ir::Program &prog, size_t level);

/**
 * DSL source with every simple (non-max/min) loop bound rendered as
 * (factor*(bound))/factor. Parses back to a program whose rational
 * coefficients are identical to the original's. factor must be >= 1.
 */
std::string rescaledSource(const ir::Program &prog, Int factor);

/** Knobs for clusteredWorkload. */
struct WorkloadOptions
{
    uint64_t seed = 1;
    size_t clusters = 6;  //!< distinct base programs
    size_t requests = 60; //!< total requests in the stream
};

/** Deterministic clustered request stream (see file comment). */
std::vector<BatchRequest> clusteredWorkload(const WorkloadOptions &opts);

/** Render a request stream as an ancd batch file. */
std::string renderBatch(const std::vector<BatchRequest> &requests);

} // namespace anc::svc

#endif // ANC_SVC_WORKLOAD_H
