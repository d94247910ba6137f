/**
 * @file
 * The traced replay of the served path. Service::serveSource runs its
 * layers behind one call; the replay makes the same public calls in the
 * same order from the benchmark's own code, so a span can be put around
 * each of them. Inside a compile the layers are timed by the compiler
 * itself: core::compileResilient records every phase (obs::PhaseClock),
 * and tracedCompile turns those records into spans. The replay check
 * (served.cc) then proves the replay reproduced what the service
 * served, request by request.
 */

#include "bench.h"
#include "dsl/parser.h"
#include "obs/trace.h"

namespace anc::perfbench {

namespace {

using Scope = SpanRecorder::Scope;

/**
 * The layer a compileResilient phase belongs to. Phases not named here
 * (program validation) stay in core.compile's self time.
 */
const char *
layerOfPhase(const std::string &phase)
{
    static const std::pair<const char *, const char *> layers[] = {
        {"access-matrix", "xform.normalize"},
        {"basis-matrix", "xform.normalize"},
        {"legal-basis", "xform.normalize"},
        {"legal-invertible", "xform.normalize"},
        {"padding", "xform.normalize"},
        {"apply-transform", "xform.normalize"},
        {"dependence", "deps.analyze"},
        {"plan", "codegen.plan"},
        {"plan-search", "xform.search"},
        {"strength-reduce", "codegen.strength_reduce"},
        {"emit", "codegen.emit"},
        {"differential-check", "core.differential"},
        {"translation-validate", "verify.validate"}};
    for (const auto &[name, layer] : layers)
        if (phase == name)
            return layer;
    return nullptr;
}

} // namespace

core::Compilation
tracedCompile(SpanRecorder &rec, const ir::Program &prog,
              core::ResilientOptions ropts)
{
    Scope compile(rec, "core.compile");
    // Read the recorder's clock before the phase trace starts its own,
    // so every phase span lies inside the compile span.
    const double origin = rec.nowUs();
    obs::Trace phases;
    ropts.base.trace = &phases;
    core::Compilation c = core::compileResilient(prog, ropts);
    for (const obs::TraceEvent &e : phases.events())
        if (const char *layer = layerOfPhase(e.name); layer && e.ph == 'X')
            rec.addClosed(layer, origin + e.ts, origin + e.ts + e.dur);
    return c;
}

ServedPathReplay::ServedPathReplay(const svc::ServiceOptions &opts)
    : opts_(opts), cache_(opts.cacheBytes)
{
    // As Service's constructor: search scores on the served machine.
    opts_.compile.base.search.machine = opts_.machine;
}

ReplayOutcome
ServedPathReplay::serve(SpanRecorder &rec, const std::string &source)
{
    ReplayOutcome out;
    Scope serve(rec, "svc.serve");
    try {
        dsl::ParseResult parsed;
        {
            Scope s(rec, "dsl.parse");
            parsed = dsl::parseProgramRecovering(source);
        }
        if (!parsed.program)
            return out; // shed
        svc::CanonicalForm canon;
        {
            Scope s(rec, "svc.canonicalize");
            canon = svc::canonicalize(*parsed.program);
        }
        svc::PlanKey key;
        {
            Scope s(rec, "svc.plan_key");
            key = svc::planKey(canon, opts_.machine, opts_.compile.base);
        }
        out.key = key.hex();
        const svc::CachedPlan *hit;
        {
            Scope s(rec, "svc.cache.lookup");
            hit = cache_.lookup(key);
        }
        if (hit) {
            out.verdict = svc::Verdict::Cached;
            out.facts = planFacts(hit->compilation);
            return out;
        }
        svc::CachedPlan entry;
        entry.canonicalText = canon.text;
        entry.compilation = tracedCompile(rec, canon.program, opts_.compile);
        out.compiled = true;
        out.facts = planFacts(entry.compilation);
        out.search = searchCounts(entry.compilation);
        out.verify = verifyCounts(entry.compilation);
        out.verdict = out.facts.degraded ? svc::Verdict::Degraded
                                         : svc::Verdict::Compiled;
        Scope s(rec, "svc.cache.insert");
        cache_.insert(key, std::move(entry));
    } catch (const std::exception &) {
        out.verdict = svc::Verdict::Shed;
        out.facts = PlanFacts{};
    }
    return out;
}

} // namespace anc::perfbench
