/**
 * @file
 * Automatic data layout: the Section 9 "reverse" mode. Given a program
 * with NO distribution declarations, derive a layout, compile, and
 * simulate the result -- under the derived layout every access is
 * local, so the speedup is linear in P.
 *
 *   $ ./examples/autolayout
 */

#include <cstdio>

#include "core/compiler.h"
#include "dsl/parser.h"
#include "xform/suggest.h"

int
main()
{
    using namespace anc;

    // A transposed-update kernel with no distribution annotations: the
    // programmer has not decided a layout yet.
    const char *source = R"(
param N
array X(N, N)
array Y(N, N)
for i = 0, N-1
  for j = 0, N-1
    X[j, i] = X[j, i] + Y[i, j]
)";
    ir::Program bare = dsl::parseProgram(source);

    xform::DistributionSuggestion s = xform::suggestDistributions(bare);
    std::printf("derived transformation:\n%s", s.transform.str().c_str());
    std::printf("derived distributions:\n%s\n", s.rationale.c_str());

    ir::Program laid_out = s.applyTo(bare);
    core::Compilation c = core::compile(laid_out);
    std::printf("--- node program under the derived layout ---\n%s\n",
                c.nodeProgram.c_str());

    Int n = 64;
    ir::Bindings binds{{n}, {}};
    double seq = core::sequentialTime(
        c, numa::MachineParams::butterflyGP1000(), {n});
    std::printf("%6s %16s %16s\n", "P", "simulated", "remote accesses");
    bool ok = true;
    for (Int p : {2, 4, 8, 16, 32}) {
        numa::SimOptions opts;
        opts.processors = p;
        numa::SimStats st = core::simulate(c, opts, binds);
        std::printf("%6lld %16.2f %16llu\n", static_cast<long long>(p),
                    st.speedup(seq),
                    static_cast<unsigned long long>(
                        st.totalRemoteAccesses()));
        if (st.totalRemoteAccesses() != 0)
            ok = false;
    }
    std::printf("\nthe derived layout %s every access local\n",
                ok ? "keeps" : "DOES NOT KEEP");
    return ok ? 0 : 1;
}
