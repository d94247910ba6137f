/**
 * @file
 * ancd -- the hardened batch compilation service, as a command-line
 * driver.
 *
 * ancd streams a batch of DSL programs through svc::Service: each
 * request is canonicalized, keyed, served from the plan cache when
 * possible, and otherwise compiled under the request's step deadline
 * and the service's retry/degradation policy. Every request ends in
 * exactly one verdict (compiled / cached / degraded / shed /
 * deadline-exceeded) with structured diagnostics; a poisoned request
 * can never take down the batch. Translation validation is ON by
 * default: every fresh compilation is symbolically proven equivalent
 * to its source (for all parameter values) before it is cached or
 * served, and a tier that fails to prove is degraded away
 * (--no-validate opts out). Run `ancd --help` for the option
 * list; it is generated from the same option table the parser
 * dispatches on (kOptSpecs below).
 *
 * Batch file format (see svc::parseBatch): DSL programs separated by
 * `---` lines, optionally named by a `# id: NAME` comment line.
 *
 * Exit status:
 *   0  batch completed (individual request verdicts do not fail the
 *      batch -- that is the point of a hardened service; gate on the
 *      per-request results instead)
 *   1  user error (bad arguments, unreadable file)
 *   2  internal error (a service bug; please report)
 *
 * For testing the request-isolation guarantee end to end, the
 * environment variable ANCD_INJECT_FAULT=<n> arms the deterministic
 * fault injector to throw on the n-th checked arithmetic operation of
 * the batch (ANCD_INJECT_KIND=math selects MathError instead of
 * OverflowError).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ratmath/fault.h"
#include "svc/service.h"
#include "svc/workload.h"

namespace {

using namespace anc;

struct Options
{
    std::string batch_file;
    /** SEED:CLUSTERS:REQUESTS synthetic workload instead of a file. */
    std::string generate;
    std::string results_file;
    std::string metrics_file;
    bool metrics_prom = false;
    std::string log_file;
    std::string journal_file;
    std::string replay_journal_file;
    bool quiet = false;
    svc::ServiceOptions svc;
};

/** How an option consumes a value. */
enum class Arg
{
    None,     //!< flag only
    Required, //!< --opt=VALUE or --opt VALUE
    Optional, //!< bare --opt or --opt=VALUE (never the next argv)
};

/**
 * One command-line option: the single source of truth for both the
 * parser and the --help text.
 */
struct OptSpec
{
    const char *name;
    Arg arg;
    const char *valueHint; //!< "N"; "" when Arg::None
    const char *help;
};

const OptSpec kOptSpecs[] = {
    {"--serve-batch", Arg::Required, "FILE",
     "serve the requests in FILE (same as a positional file argument)"},
    {"--generate", Arg::Required, "SEED:CLUSTERS:REQUESTS",
     "serve a synthetic clustered workload (svc::clusteredWorkload) "
     "instead of a file"},
    {"--cache-bytes", Arg::Required, "N",
     "plan-cache byte budget (default 4194304; 0 caches nothing)"},
    {"--deadline-steps", Arg::Required, "N",
     "per-request deterministic step budget (default 0 = none)"},
    {"--queue-limit", Arg::Required, "N",
     "admission control: shed requests beyond this queue depth "
     "(default 0 = no limit)"},
    {"--max-program-bytes", Arg::Required, "N",
     "admission control: shed sources larger than N bytes (default 0 "
     "= no limit)"},
    {"--retries", Arg::Required, "N",
     "transient-fault retries per request (default 2)"},
    {"--no-validate", Arg::None, "",
     "serve unvalidated plans: skip the translation validation that "
     "every fresh compilation otherwise gets (the symbolic proof "
     "covering all parameter values; on by default)"},
    {"--search", Arg::Optional, "BUDGET",
     "simulator-scored plan search on every fresh compilation: score "
     "up to BUDGET (default 24) legal alternatives on the service's "
     "machine model and serve a symbolically validated winner; every "
     "search knob is part of the plan key, so searched and unsearched "
     "plans never share a cache entry"},
    {"--machine", Arg::Required, "gp1000|ipsc860",
     "target machine model, part of every plan key (default gp1000)"},
    {"--results", Arg::Required, "FILE",
     "write per-request verdicts as a JSON array to FILE"},
    {"--metrics", Arg::Required, "FILE",
     "write the svc.* / svc.cache.* metrics snapshot to FILE"},
    {"--metrics-format", Arg::Required, "json|prom",
     "format for --metrics: json (default) or prom, the Prometheus "
     "text exposition (counters and cumulative pow2 histograms)"},
    {"--log", Arg::Required, "FILE",
     "write the structured request lifecycle log to FILE as JSON lines: "
     "one event per step (admit, parse, canonicalize, cache, compile, "
     "validate, retry, verdict), correlated by request id; sequence "
     "numbers instead of timestamps, so the log is as deterministic as "
     "the verdicts"},
    {"--journal", Arg::Required, "FILE",
     "write the plan cache's hit/miss/insert/evict journal to FILE in "
     "the durable checksummed format (the determinism witness; "
     "replayable with --replay-journal)"},
    {"--replay-journal", Arg::Required, "FILE",
     "crash recovery: replay a prior run's --journal FILE before "
     "serving, restoring cache counters and witness history (a torn "
     "final line is tolerated; corrupt lines are rejected and "
     "reported; a missing FILE means a fresh start)"},
    {"--quiet", Arg::None, "", "suppress the per-request verdict lines"},
    {"--help", Arg::None, "", "print this help and exit"},
};

/** The usage text, generated from kOptSpecs. */
std::string
usageText()
{
    std::string out = "usage: ancd [options] <batch.anb>\n\noptions:\n";
    for (const OptSpec &s : kOptSpecs) {
        std::string head = std::string("  ") + s.name;
        if (s.arg == Arg::Required)
            head += std::string(" ") + s.valueHint;
        else if (s.arg == Arg::Optional)
            head += std::string("[=") + s.valueHint + "]";
        out += head;
        const size_t indent = 24;
        out += head.size() < indent ? std::string(indent - head.size(), ' ')
                                    : "\n" + std::string(indent, ' ');
        std::string line;
        std::istringstream words(s.help);
        std::string w;
        while (words >> w) {
            if (!line.empty() && indent + line.size() + 1 + w.size() > 78) {
                out += line + "\n" + std::string(indent, ' ');
                line.clear();
            }
            if (!line.empty())
                line += " ";
            line += w;
        }
        out += line + "\n";
    }
    return out;
}

[[noreturn]] void
usage(const char *msg = nullptr)
{
    if (msg)
        std::fprintf(stderr, "ancd: %s\n", msg);
    std::fprintf(stderr, "%s", usageText().c_str());
    std::exit(1);
}

const OptSpec *
findSpec(const std::string &name)
{
    for (const OptSpec &s : kOptSpecs)
        if (name == s.name)
            return &s;
    return nullptr;
}

uint64_t
parseCount(const std::string &name, const std::string &value)
{
    char *end = nullptr;
    uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (!end || *end != '\0' || value.empty())
        usage((name + " needs an unsigned integer").c_str());
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.empty() || a[0] != '-') {
            if (!o.batch_file.empty())
                usage("multiple batch files");
            o.batch_file = a;
            continue;
        }
        size_t eq = a.find('=');
        std::string name = eq == std::string::npos ? a : a.substr(0, eq);
        bool has_inline = eq != std::string::npos;
        std::string value = has_inline ? a.substr(eq + 1) : "";
        const OptSpec *spec = findSpec(name);
        if (!spec)
            usage(("unknown option " + name).c_str());
        if (spec->arg == Arg::None && has_inline)
            usage((name + " takes no value").c_str());
        if (spec->arg == Arg::Required && !has_inline) {
            if (i + 1 >= argc)
                usage((name + " needs " + spec->valueHint).c_str());
            value = argv[++i];
        }

        if (name == "--help") {
            std::printf("%s", usageText().c_str());
            std::exit(0);
        } else if (name == "--serve-batch") {
            if (!o.batch_file.empty())
                usage("multiple batch files");
            o.batch_file = value;
        } else if (name == "--generate") {
            o.generate = value;
        } else if (name == "--cache-bytes") {
            o.svc.cacheBytes = size_t(parseCount(name, value));
        } else if (name == "--deadline-steps") {
            o.svc.deadlineSteps = parseCount(name, value);
        } else if (name == "--queue-limit") {
            o.svc.queueLimit = size_t(parseCount(name, value));
        } else if (name == "--max-program-bytes") {
            o.svc.maxProgramBytes = size_t(parseCount(name, value));
        } else if (name == "--retries") {
            o.svc.maxRetries = int(parseCount(name, value));
        } else if (name == "--no-validate") {
            o.svc.compile.base.validate = false;
        } else if (name == "--search") {
            o.svc.compile.base.search.enabled = true;
            if (!value.empty()) {
                uint64_t budget = parseCount(name, value);
                if (budget == 0)
                    usage("--search budget must be positive");
                o.svc.compile.base.search.budget = Int(budget);
            }
        } else if (name == "--machine") {
            if (value == "gp1000")
                o.svc.machine = numa::MachineParams::butterflyGP1000();
            else if (value == "ipsc860")
                o.svc.machine = numa::MachineParams::ipsc860();
            else
                usage("unknown machine");
        } else if (name == "--results") {
            o.results_file = value;
        } else if (name == "--metrics") {
            o.metrics_file = value;
        } else if (name == "--metrics-format") {
            if (value == "json")
                o.metrics_prom = false;
            else if (value == "prom")
                o.metrics_prom = true;
            else
                usage("--metrics-format needs json or prom");
        } else if (name == "--log") {
            o.log_file = value;
        } else if (name == "--journal") {
            o.journal_file = value;
        } else if (name == "--replay-journal") {
            o.replay_journal_file = value;
        } else if (name == "--quiet") {
            o.quiet = true;
        }
    }
    if (o.batch_file.empty() && o.generate.empty())
        usage("no batch file (and no --generate)");
    if (!o.batch_file.empty() && !o.generate.empty())
        usage("--generate conflicts with a batch file");
    return o;
}

/** Arm the deterministic fault injector from the environment (testing
 * hook for request isolation; see the file comment). */
void
armInjectorFromEnv()
{
    const char *n = std::getenv("ANCD_INJECT_FAULT");
    if (!n || !*n)
        return;
    const char *k = std::getenv("ANCD_INJECT_KIND");
    fault::armAt(std::strtoull(n, nullptr, 10),
                 k && std::strcmp(k, "math") == 0 ? fault::Kind::Math
                                                  : fault::Kind::Overflow);
}

std::vector<svc::BatchRequest>
loadBatch(const Options &o)
{
    if (!o.generate.empty()) {
        svc::WorkloadOptions w;
        unsigned long long seed = 0, clusters = 0, requests = 0;
        if (std::sscanf(o.generate.c_str(), "%llu:%llu:%llu", &seed,
                        &clusters, &requests) != 3 ||
            clusters == 0 || requests == 0)
            usage("--generate needs SEED:CLUSTERS:REQUESTS");
        w.seed = seed;
        w.clusters = size_t(clusters);
        w.requests = size_t(requests);
        return svc::clusteredWorkload(w);
    }
    std::ifstream in(o.batch_file);
    if (!in)
        throw UserError("cannot open '" + o.batch_file + "'");
    std::stringstream buf;
    buf << in.rdbuf();
    return svc::parseBatch(buf.str());
}

void
writeFileOrDie(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    out << content;
    if (!out)
        throw UserError("cannot write '" + path + "'");
}

int
run(const Options &o)
{
    std::vector<svc::BatchRequest> batch = loadBatch(o);

    svc::EventLog log;
    svc::ServiceOptions sopts = o.svc;
    if (!o.log_file.empty())
        sopts.events = &log;
    svc::Service service(sopts);
    if (!o.replay_journal_file.empty()) {
        // Crash recovery: a missing file is a fresh start; anything
        // readable is replayed with per-line checksum verification.
        std::ifstream in(o.replay_journal_file);
        if (in) {
            std::stringstream buf;
            buf << in.rdbuf();
            svc::JournalReplay rep =
                service.restoreCacheJournal(buf.str());
            std::printf("journal replay: %zu events restored, %zu "
                        "corrupt lines rejected%s\n",
                        rep.events.size(), rep.corruptLines,
                        rep.truncatedTail
                            ? ", torn final line dropped"
                            : "");
        }
    }
    armInjectorFromEnv();
    std::vector<svc::Response> responses = service.runBatch(batch);
    fault::disarm();

    if (!o.quiet)
        for (const svc::Response &r : responses)
            std::printf("%-32s %-18s %-12s %-12s steps=%llu retries=%d\n",
                        r.id.c_str(), svc::verdictName(r.verdict),
                        r.tier.empty() ? "-" : r.tier.c_str(),
                        r.validated ? "validated" : "unvalidated",
                        static_cast<unsigned long long>(r.steps),
                        r.retries);

    const svc::PlanCache &cache = service.cache();
    std::printf("batch: %zu requests\n", responses.size());
    std::printf("verdicts: compiled %llu cached %llu degraded %llu "
                "shed %llu deadline-exceeded %llu\n",
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Compiled)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Cached)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Degraded)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::Shed)),
                static_cast<unsigned long long>(
                    service.verdictCount(svc::Verdict::DeadlineExceeded)));
    std::printf("validation: passed %llu failed %llu off %llu\n",
                static_cast<unsigned long long>(
                    service.validationsPassed()),
                static_cast<unsigned long long>(
                    service.validationsFailed()),
                static_cast<unsigned long long>(
                    service.validationsOff()));
    std::printf("cache: hits %llu misses %llu evictions %llu entries "
                "%zu bytes %zu\n",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.evictions()),
                cache.size(), cache.bytes());

    if (!o.results_file.empty()) {
        std::string out = "[";
        for (size_t i = 0; i < responses.size(); ++i)
            out += (i ? ",\n " : "\n ") + responses[i].renderJson();
        out += "\n]\n";
        writeFileOrDie(o.results_file, out);
    }
    if (!o.metrics_file.empty()) {
        obs::MetricsRegistry reg;
        service.fillMetrics(reg);
        writeFileOrDie(o.metrics_file, o.metrics_prom
                                           ? reg.renderExposition()
                                           : reg.renderJson());
    }
    if (!o.log_file.empty())
        writeFileOrDie(o.log_file, log.text());
    if (!o.journal_file.empty())
        writeFileOrDie(o.journal_file, cache.durableJournalText());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const UserError &e) {
        std::fprintf(stderr, "ancd: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr,
                     "ancd: internal error: %s\n"
                     "ancd: this is a bug in the service; please report "
                     "it together with the batch input\n",
                     e.what());
        return 2;
    }
}
