/**
 * @file
 * The access-normalizing NUMA compiler: the library's top-level API.
 *
 * compileResilient() runs the paper's whole pipeline on a program --
 * dependence analysis, access normalization (Sections 2-6), NUMA code
 * generation planning (Section 7) -- as a degradation ladder (full ->
 * unimodular -> identity), and returns everything a client needs: the
 * transformation record, the executable transformed nest, the SPMD
 * plan, emitted node code, and helpers to simulate the result on a
 * modeled NUMA machine (Section 8). compile() is the ladder's first
 * rung, throwing instead of degrading: on success it returns exactly
 * what compileResilient() returns for the same options.
 */

#ifndef ANC_CORE_COMPILER_H
#define ANC_CORE_COMPILER_H

#include <string>

#include "codegen/emit_c.h"
#include "codegen/planner.h"
#include "codegen/strength.h"
#include "core/cancel.h"
#include "core/diagnostics.h"
#include "numa/simulator.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "verify/verify.h"
#include "xform/normalize.h"
#include "xform/search.h"

namespace anc::core {

/** Options for one compilation. */
struct CompileOptions
{
    xform::NormalizeOptions normalize;
    /** Skip restructuring entirely: compile the original nest with
     * round-robin outer distribution (the paper's untransformed
     * "gemm"/"syr2k" baselines). */
    bool identityTransform = false;
    /** Run translation validation (verify::validate) on the result.
     * Under compile(), a validation failure throws InternalError; under
     * compileResilient(), it degrades the ladder one tier, making the
     * ladder self-checking. The report lands in
     * Compilation::validation either way. */
    bool validate = false;
    /**
     * Simulator-scored plan search (xform/search.h): when enabled, the
     * Full tier enumerates legal alternatives to the heuristic plan,
     * scores the survivors on the modeled machine, and adopts a
     * symbolically validated winner that beats the heuristic at every
     * swept machine size. Search failure always falls back to the
     * heuristic plan; it never degrades the tier and never crashes a
     * compile. All fields except hostThreads affect the selected plan
     * and are part of svc::planKey.
     */
    xform::SearchOptions search;
    /** Trace sink for wall-clock compiler-phase spans (null = off).
     * Phase wall times land in Compilation::phaseTimes regardless. */
    obs::Trace *trace = nullptr;
    /** Process track for the phase spans (see obs::Trace::process). */
    int64_t tracePid = 0;
    /**
     * Cooperative deadline (null = none): the pipeline charges one step
     * at every phase boundary it crosses, and an exhausted budget
     * throws DeadlineExceeded through every recovery boundary (it is
     * not an anc::Error, so compileResilient() cannot degrade past it).
     * The step count for a given (program, options, fault schedule) is
     * deterministic; see core/cancel.h.
     */
    CancelToken *cancel = nullptr;
};

/**
 * The rung of compileResilient()'s degradation ladder a compilation
 * came out of. Lower rungs give up optimization, never correctness.
 */
enum class CompileTier
{
    Full,       //!< full access normalization (scaling, HNF strides)
    Unimodular, //!< unimodular-only transformation (Banerjee's special
                //!< case: no scaling, no stride synthesis)
    Identity,   //!< original nest, round-robin outer distribution
};

const char *tierName(CompileTier t);

/** The result of compiling one program. */
struct Compilation
{
    ir::Program program;
    xform::NormalizeResult normalization;
    numa::ExecutionPlan plan;
    std::string nodeProgram; //!< emitted SPMD pseudo-code
    /** Induction plans for the divisions a non-unimodular T introduces
     * (empty for unimodular transformations). When non-empty,
     * nodeProgram is emitted in strength-reduced form. */
    std::vector<codegen::InductionPlan> strengthReduction;

    /** Wall-clock time of every pipeline phase that ran, in execution
     * order, annotated with the degradation-ladder rung it ran under.
     * Rungs that failed partway leave their phases here too: the record
     * answers "where did the compile time go", including time spent on
     * work that was then thrown away. */
    std::vector<obs::PhaseTime> phaseTimes;

    /** Ladder rung this result came out of. */
    CompileTier tier = CompileTier::Full;
    /** What was given up and why, with stage provenance. */
    Diagnostics diagnostics;
    /** True when the differential interpreter check ran and passed. */
    bool differentialChecked = false;
    /** Plan-search record (SearchResult::ran is false when the search
     * was disabled, skipped, or failed before enumerating). When the
     * search improved on the heuristic, `normalization` and `plan`
     * above already hold the winner. */
    xform::SearchResult search;
    /** Translation-validation verdict (empty checks list when
     * CompileOptions::validate was off). */
    verify::ValidationReport validation;
    /** True when translation validation ran and every check passed
     * (there is no skipped verdict: a plan is validated or it is not). */
    bool validated = false;

    /** True when some optimization was given up: a lower ladder rung
     * was used, or normalization conservatively fell back to the
     * identity transformation. */
    bool
    degraded() const
    {
        return tier != CompileTier::Full ||
               normalization.conservativeFallback;
    }

    const xform::TransformedNest &nest() const
    {
        return *normalization.nest;
    }

    /** Full human-readable compilation report. */
    std::string report() const;
};

/**
 * The ladder's first rung (Full, or Identity under identityTransform),
 * throwing instead of degrading: any failure a lower rung would absorb
 * propagates, and a failed translation validation throws
 * InternalError. Runs the differential check with ResilientOptions'
 * defaults whenever compileResilient() would.
 */
Compilation compile(ir::Program prog, const CompileOptions &opts = {});

/** Options for resilient compilation. */
struct ResilientOptions
{
    CompileOptions base;
    /** Per-array element cap for the differential check of degraded
     * results (see compileResilient). */
    Int differentialMaxElements = 1 << 16;
    /** Knobs for the translation-validation post-pass (only consulted
     * when base.validate is set). */
    verify::ValidateOptions validation;
};

/**
 * Never-crash compilation: walk the degradation ladder (full access
 * normalization -> unimodular-only -> identity transform), wrapping
 * every pipeline stage in a recovery boundary. Arithmetic overflow,
 * math errors, and internal invariant violations degrade the result to
 * a lower tier instead of escaping; the returned Compilation records
 * the tier reached and a diagnostic for everything given up.
 *
 * Every degraded result is verified by interpretation: the original
 * program and the emitted nest run on a small parameter binding (every
 * parameter 4, else 3, 2, 6, 1) and all array contents are compared
 * bit-for-bit. A mismatch fails the rung (the ladder continues
 * downward); an infeasible binding (arrays too large, no in-range
 * binding found) records a note and skips.
 *
 * UserError (malformed input) still propagates: bad programs are the
 * caller's to fix, and the parser rejects them with line information.
 * The guarantee is: any program that validates compiles to a correct
 * plan, or -- only if even the identity rung fails, which no
 * non-adversarial input reaches -- throws InternalError carrying the
 * full diagnostic report.
 */
Compilation compileResilient(ir::Program prog,
                             const ResilientOptions &opts = {});

/**
 * Build the plan-explainability record for a finished compilation: the
 * candidate-basis trail (what BasisMatrix kept, what LegalBasis
 * reversed or rejected and which dependence killed it, what padding
 * completed T), the partition tie-break, and per-reference stride
 * scores under the chosen T. Pure function of the Compilation; degraded
 * results yield a well-formed (possibly partial) record.
 */
obs::ExplainRecord explain(const Compilation &c);

/** Simulate a compilation on a modeled NUMA machine. */
numa::SimStats simulate(const Compilation &c, const numa::SimOptions &opts,
                        const ir::Bindings &binds);

/** Sequential (one processor, all local) time for speedup baselines. */
double sequentialTime(const Compilation &c,
                      const numa::MachineParams &machine,
                      const IntVec &params);

} // namespace anc::core

#endif // ANC_CORE_COMPILER_H
