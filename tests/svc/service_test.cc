/**
 * @file
 * The service's hard guarantees: every request ends in exactly one of
 * the five verdicts, no exception ever escapes the entry points (the
 * fault injector is swept over every checked-arithmetic site reachable
 * from serve()), admission-control refusals name both the limit and the
 * observed value, and a batch replay -- including one with an armed
 * fault schedule -- reproduces verdicts and cache journal bit for bit.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ir/gallery.h"
#include "ratmath/fault.h"
#include "svc/service.h"
#include "svc/workload.h"

namespace anc::svc {
namespace {

const char *kGemmSource = R"(param N
array C(N, N) distribute wrapped(1)
array A(N, N) distribute wrapped(1)
array B(N, N) distribute wrapped(1)

for i = 0, N-1
  for j = 0, N-1
    for k = 0, N-1
      C[i, j] = C[i, j] + A[i, k] * B[k, j]
)";

const char *kGarbageSource = R"(param N
array A(N
for i = 0,
  A[i] ===
)";

class ServiceTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarm(); }
};

TEST_F(ServiceTest, FreshCompileThenCacheHit)
{
    Service s(ServiceOptions{});
    Response first = s.serve("a", ir::gallery::gemm());
    EXPECT_EQ(first.verdict, Verdict::Compiled);
    EXPECT_TRUE(first.hasKey);
    EXPECT_FALSE(first.tier.empty());
    EXPECT_FALSE(first.degradedPlan);

    // Validation is on by default: the fresh plan was proven before
    // caching, and the cached hit carries the stored verdict.
    EXPECT_TRUE(first.validated);

    Response second = s.serve("b", ir::gallery::gemm());
    EXPECT_EQ(second.verdict, Verdict::Cached);
    EXPECT_EQ(second.key, first.key);
    EXPECT_EQ(second.tier, first.tier);
    EXPECT_TRUE(second.validated);
    EXPECT_EQ(s.cache().hits(), 1u);
    EXPECT_EQ(s.verdictCount(Verdict::Compiled), 1u);
    EXPECT_EQ(s.verdictCount(Verdict::Cached), 1u);
    EXPECT_EQ(s.validationsPassed(), 1u);
    EXPECT_EQ(s.validationsFailed(), 0u);
    EXPECT_EQ(s.validationsOff(), 0u);
}

TEST_F(ServiceTest, NoValidateOptOutIsExplicitNeverSkipped)
{
    // Opting out of validation is a configuration, not a "skipped"
    // verdict: the response says unvalidated, and the svc.validate.off
    // counter records that the operator chose this.
    ServiceOptions o;
    o.compile.base.validate = false;
    Service s(o);
    Response r = s.serve("a", ir::gallery::gemm());
    EXPECT_EQ(r.verdict, Verdict::Compiled);
    EXPECT_FALSE(r.validated);
    EXPECT_EQ(s.validationsOff(), 1u);
    EXPECT_EQ(s.validationsPassed(), 0u);
}

TEST_F(ServiceTest, DegradedPlansAreStillValidated)
{
    // A mid-compile fault degrades the ladder; whatever tier survives
    // must still carry a passing validation report -- the service
    // never serves an unproven plan when validation is on.
    ServiceOptions o;
    o.maxRetries = 0;
    Service s(o);
    fault::armAt(50);
    Response r = s.serve("deg", ir::gallery::gemm());
    fault::disarm();
    ASSERT_EQ(r.verdict, Verdict::Degraded);
    EXPECT_TRUE(r.validated);
    EXPECT_EQ(s.validationsPassed(), 1u);
}

TEST_F(ServiceTest, RestoreCacheJournalContinuesTheWitness)
{
    ServiceOptions o;
    Service first(o);
    first.serve("a", ir::gallery::gemm());
    first.serve("b", ir::gallery::gemm());
    std::string durable = first.cache().durableJournalText();

    // Simulate a crash mid-append: the torn tail is dropped, every
    // complete line is restored, and the restarted service's counters
    // continue from the replayed history.
    Service second(o);
    JournalReplay rep =
        second.restoreCacheJournal(durable.substr(0, durable.size() - 7));
    EXPECT_TRUE(rep.truncatedTail);
    EXPECT_EQ(rep.corruptLines, 0u);
    EXPECT_EQ(second.cache().misses(), first.cache().misses());
    EXPECT_EQ(second.cache().insertions(), first.cache().insertions());
    // The journal the restarted service writes extends the old one.
    second.serve("c", ir::gallery::gemm());
    std::string grown = second.cache().durableJournalText();
    JournalReplay all = PlanCache::replayJournal(grown);
    EXPECT_EQ(all.corruptLines, 0u);
    EXPECT_GT(all.events.size(), rep.events.size());
}

TEST_F(ServiceTest, EquivalentDisguisesHitTheSameCacheLine)
{
    Service s(ServiceOptions{});
    ir::Program gemm = ir::gallery::gemm();
    s.serve("base", gemm);
    EXPECT_EQ(s.serve("ren", renamedVariant(gemm, "z")).verdict,
              Verdict::Cached);
    EXPECT_EQ(s.serve("shift", shiftedVariant(gemm, 3)).verdict,
              Verdict::Cached);
    EXPECT_EQ(s.serve("rev", reversedVariant(gemm, 0)).verdict,
              Verdict::Cached);
    EXPECT_EQ(s.cache().size(), 1u);
}

TEST_F(ServiceTest, GarbageSourceIsShedWithParseDiagnostics)
{
    Service s(ServiceOptions{});
    Response r = s.serveSource("bad", kGarbageSource);
    EXPECT_EQ(r.verdict, Verdict::Shed);
    EXPECT_FALSE(r.hasKey);
    EXPECT_FALSE(r.diagnostics.empty());
    // The batch keeps going: the next request is unaffected.
    EXPECT_EQ(s.serveSource("ok", kGemmSource).verdict,
              Verdict::Compiled);
}

TEST_F(ServiceTest, DeadlineVerdictNamesLimitAndObserved)
{
    ServiceOptions o;
    o.deadlineSteps = 1;
    Service s(o);
    Response r = s.serveSource("slow", kGemmSource);
    EXPECT_EQ(r.verdict, Verdict::DeadlineExceeded);
    EXPECT_GE(r.steps, o.deadlineSteps);
    bool named = false;
    for (const core::Diagnostic &d : r.diagnostics.all())
        if (d.message.find("limit 1") != std::string::npos &&
            d.message.find("observed") != std::string::npos)
            named = true;
    EXPECT_TRUE(named) << r.diagnostics.render();
}

TEST_F(ServiceTest, ProgramSizeOverrunNamesLimitAndObserved)
{
    ServiceOptions o;
    o.maxProgramBytes = 10;
    Service s(o);
    std::string source = kGemmSource;
    Response r = s.serveSource("big", source);
    EXPECT_EQ(r.verdict, Verdict::Shed);
    std::string wantLimit = "limit 10 bytes";
    std::string wantObserved =
        "observed " + std::to_string(source.size()) + " bytes";
    bool named = false;
    for (const core::Diagnostic &d : r.diagnostics.all())
        if (d.message.find(wantLimit) != std::string::npos &&
            d.message.find(wantObserved) != std::string::npos)
            named = true;
    EXPECT_TRUE(named) << r.diagnostics.render();
}

TEST_F(ServiceTest, QueueOverrunNamesLimitAndObserved)
{
    ServiceOptions o;
    o.queueLimit = 2;
    Service s(o);
    std::vector<BatchRequest> batch(4);
    for (size_t i = 0; i < batch.size(); ++i) {
        batch[i].id = "q" + std::to_string(i);
        batch[i].source = kGemmSource;
    }
    std::vector<Response> rs = s.runBatch(batch);
    ASSERT_EQ(rs.size(), 4u);
    EXPECT_EQ(rs[0].verdict, Verdict::Compiled);
    EXPECT_EQ(rs[1].verdict, Verdict::Cached);
    for (size_t i = 2; i < 4; ++i) {
        EXPECT_EQ(rs[i].verdict, Verdict::Shed);
        bool named = false;
        for (const core::Diagnostic &d : rs[i].diagnostics.all())
            if (d.message.find("queue limit 2 requests") !=
                    std::string::npos &&
                d.message.find("observed 4 requests") != std::string::npos)
                named = true;
        EXPECT_TRUE(named) << rs[i].diagnostics.render();
    }
}

TEST_F(ServiceTest, TransientFaultBeforeCompileIsRetried)
{
    // Checked-arithmetic faults during canonicalization/keying escape
    // as Error (there is no ladder there); the service retries and the
    // one-shot injector lets the second attempt through.
    Service s(ServiceOptions{});
    ir::Program gemm = ir::gallery::gemm();
    fault::armAt(1);
    Response r = s.serve("retry", gemm);
    EXPECT_EQ(r.verdict, Verdict::Compiled);
    EXPECT_GE(r.retries, 1);
    bool warned = false;
    for (const core::Diagnostic &d : r.diagnostics.all())
        if (d.message.find("retrying") != std::string::npos)
            warned = true;
    EXPECT_TRUE(warned) << r.diagnostics.render();
}

TEST_F(ServiceTest, PersistentFaultExhaustsRetriesAndSheds)
{
    ServiceOptions o;
    o.maxRetries = 2;
    Service s(o);
    ir::Program gemm = ir::gallery::gemm();
    // Fault every checked operation: each attempt (and each ladder
    // rung inside compileResilient) fails, so the request is shed
    // after exactly maxRetries retries -- and the process survives.
    std::vector<uint64_t> everything;
    for (uint64_t k = 1; k <= 200000; ++k)
        everything.push_back(k);
    fault::arm(std::move(everything));
    Response r;
    ASSERT_NO_THROW(r = s.serve("doomed", gemm));
    fault::disarm();
    EXPECT_EQ(r.verdict, Verdict::Shed);
    EXPECT_EQ(r.retries, o.maxRetries);
    EXPECT_FALSE(r.diagnostics.empty());
}

TEST_F(ServiceTest, MidCompileFaultDegradesInsteadOfFailing)
{
    ServiceOptions o;
    o.maxRetries = 0;
    Service s(o);
    fault::armAt(50); // known (from the resilience suite) to land in
                      // the full rung of compileResilient
    Response r = s.serve("deg", ir::gallery::gemm());
    fault::disarm();
    EXPECT_EQ(r.verdict, Verdict::Degraded);
    EXPECT_TRUE(r.degradedPlan);
    EXPECT_TRUE(r.hasKey);
}

TEST_F(ServiceTest, EveryFaultSiteLeavesTheServiceStanding)
{
    // The isolation acceptance sweep: arm a fault at EVERY checked
    // operation reachable from a cold serve() and require (a) no
    // exception escapes, (b) the verdict is one of the five, (c) the
    // service still serves the next request normally.
    ir::Program prog = ir::gallery::scalingExample();
    fault::startCounting();
    Service(ServiceOptions{}).serve("count", prog);
    uint64_t total = fault::opCount();
    fault::disarm();
    ASSERT_GT(total, 0u);

    for (uint64_t k = 1; k <= total; ++k) {
        Service s(ServiceOptions{});
        fault::armAt(k);
        Response r;
        ASSERT_NO_THROW(r = s.serve("victim", prog)) << "fault #" << k;
        fault::disarm();
        EXPECT_TRUE(r.verdict == Verdict::Compiled ||
                    r.verdict == Verdict::Cached ||
                    r.verdict == Verdict::Degraded ||
                    r.verdict == Verdict::Shed ||
                    r.verdict == Verdict::DeadlineExceeded)
            << "fault #" << k;
        Response next;
        ASSERT_NO_THROW(next = s.serve("next", prog)) << "fault #" << k;
        EXPECT_TRUE(next.verdict == Verdict::Compiled ||
                    next.verdict == Verdict::Cached)
            << "fault #" << k << " poisoned the following request";
        EXPECT_EQ(s.requestsServed(), 2u);
    }
}

std::string
signature(const std::vector<Response> &rs)
{
    std::string sig;
    for (const Response &r : rs) {
        sig += r.id;
        sig += '=';
        sig += verdictName(r.verdict);
        sig += r.hasKey ? "/" + r.key.hex() : "/-";
        sig += '/';
        sig += std::to_string(r.steps);
        sig += '\n';
    }
    return sig;
}

TEST_F(ServiceTest, BatchReplayIsBitIdentical)
{
    WorkloadOptions w;
    w.seed = 3;
    w.clusters = 3;
    w.requests = 30;
    std::vector<BatchRequest> batch = clusteredWorkload(w);

    ServiceOptions o;
    o.deadlineSteps = 10000;
    Service a(o), b(o);
    std::vector<Response> ra = a.runBatch(batch);
    std::vector<Response> rb = b.runBatch(batch);
    EXPECT_EQ(signature(ra), signature(rb));
    EXPECT_EQ(a.cache().journalText(), b.cache().journalText());
    EXPECT_GT(a.cache().hits(), 0u);
}

TEST_F(ServiceTest, ClusteredStreamCountsArePinned)
{
    // The 240-request clustered stream (seed 20260808, 8 clusters)
    // through a 1 MiB cache: every count below is deterministic, so the
    // gate is exact. A hit lost means canonicalization stopped folding
    // equivalent requests; a step gained on the slowest request means
    // the miss path grew.
    WorkloadOptions w;
    w.seed = 20260808;
    w.clusters = 8;
    w.requests = 240;
    std::vector<BatchRequest> batch = clusteredWorkload(w);
    ASSERT_EQ(batch.size(), 240u);
    ServiceOptions o;
    o.cacheBytes = size_t(1) << 20;
    o.deadlineSteps = 10000;

    Service s(o);
    std::vector<Response> rs = s.runBatch(batch);
    EXPECT_EQ(s.cache().hits(), 232u);
    EXPECT_EQ(s.cache().misses(), 8u);
    EXPECT_EQ(s.verdictCount(Verdict::Shed), 0u);
    EXPECT_EQ(s.verdictCount(Verdict::DeadlineExceeded), 0u);
    uint64_t served = 0, unvalidated = 0;
    for (const Response &r : rs) {
        if (r.verdict != Verdict::Compiled && r.verdict != Verdict::Cached &&
            r.verdict != Verdict::Degraded)
            continue;
        ++served;
        unvalidated += !r.validated;
    }
    EXPECT_EQ(served, 240u);
    EXPECT_EQ(unvalidated, 0u);
    obs::MetricsRegistry m;
    s.fillMetrics(m);
    uint64_t p99 = 0;
    for (const auto &[name, hist] : m.histograms())
        if (name == "svc.steps")
            p99 = hist.quantileUpperBound(0.99);
    EXPECT_EQ(p99, 80u);

    Service replay(o);
    EXPECT_EQ(signature(replay.runBatch(batch)), signature(rs));
    EXPECT_EQ(replay.cache().journalText(), s.cache().journalText());

    // Request isolation: faults armed at a spread of operation indices
    // over the stream's first 24 requests never crash the batch.
    std::vector<BatchRequest> slice(batch.begin(), batch.begin() + 24);
    uint64_t runs = 0, crashed = 0;
    for (uint64_t nth = 5; nth <= 2000; nth += 95) {
        ++runs;
        try {
            Service f(o);
            fault::armAt(nth, nth % 190 == 0 ? fault::Kind::Math
                                             : fault::Kind::Overflow);
            std::vector<Response> frs = f.runBatch(slice);
            fault::disarm();
            crashed += frs.size() != slice.size();
        } catch (...) {
            fault::disarm();
            ++crashed;
        }
    }
    EXPECT_EQ(runs, 22u);
    EXPECT_EQ(crashed, 0u);
}

TEST_F(ServiceTest, FaultScheduleReplayIsBitIdentical)
{
    // Determinism must hold under injected faults too: the same fault
    // schedule against the same stream reproduces every verdict,
    // retry count, and journal byte.
    WorkloadOptions w;
    w.seed = 5;
    w.clusters = 2;
    w.requests = 12;
    std::vector<BatchRequest> batch = clusteredWorkload(w);

    auto run = [&]() {
        Service s((ServiceOptions()));
        fault::armAt(700);
        std::vector<Response> rs = s.runBatch(batch);
        fault::disarm();
        return signature(rs) + "---\n" + s.cache().journalText();
    };
    EXPECT_EQ(run(), run());
}

TEST_F(ServiceTest, ZeroCacheBudgetStillServes)
{
    ServiceOptions o;
    o.cacheBytes = 0;
    Service s(o);
    EXPECT_EQ(s.serveSource("a", kGemmSource).verdict, Verdict::Compiled);
    EXPECT_EQ(s.serveSource("b", kGemmSource).verdict, Verdict::Compiled);
    EXPECT_EQ(s.cache().hits(), 0u);
    EXPECT_EQ(s.cache().rejections(), 2u);
}

TEST_F(ServiceTest, ParseBatchSplitsNamesAndNumbersRequests)
{
    std::string text = "# id: first\nparam N\narray A(N)\nfor i = 0, "
                       "N-1\n  A[i] = i\n---\n\n   \n---\nparam M\n"
                       "array B(M)\nfor j = 0, M-1\n  B[j] = j\n";
    std::vector<BatchRequest> batch = parseBatch(text);
    ASSERT_EQ(batch.size(), 2u); // the blank chunk is skipped
    EXPECT_EQ(batch[0].id, "first");
    EXPECT_EQ(batch[0].line, 1);
    EXPECT_EQ(batch[1].id, "r1"); // default id numbers by position
    EXPECT_EQ(batch[1].line, 10);
    EXPECT_NE(batch[1].source.find("param M"), std::string::npos);

    EXPECT_TRUE(parseBatch("").empty());
    EXPECT_TRUE(parseBatch("---\n---\n  \n").empty());
    // Indented separator and "# id:" with extra whitespace both parse.
    std::vector<BatchRequest> b2 =
        parseBatch("  #  id:   padded  \nparam N\n  ---  \nparam M\n");
    ASSERT_EQ(b2.size(), 2u);
    EXPECT_EQ(b2[0].id, "padded");
}

TEST_F(ServiceTest, ResponseJsonHasStableShape)
{
    Service s(ServiceOptions{});
    Response r = s.serveSource("q\"1", kGemmSource);
    std::string json = r.renderJson();
    const char *keys[] = {"\"id\"",      "\"verdict\"",   "\"key\"",
                          "\"tier\"",    "\"validated\"", "\"steps\"",
                          "\"retries\"", "\"diagnostics\""};
    size_t pos = 0;
    for (const char *k : keys) {
        size_t at = json.find(k, pos);
        ASSERT_NE(at, std::string::npos) << k << " in " << json;
        pos = at;
    }
    EXPECT_NE(json.find("\"q\\\"1\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"compiled\""), std::string::npos) << json;
}

TEST_F(ServiceTest, MetricsExportCountsEveryVerdict)
{
    ServiceOptions o;
    o.deadlineSteps = 10000;
    Service s(o);
    s.serveSource("a", kGemmSource);
    s.serveSource("b", kGemmSource);
    s.serveSource("c", kGarbageSource);
    obs::MetricsRegistry m;
    s.fillMetrics(m);
    EXPECT_EQ(m.value("svc.requests"), 3u);
    EXPECT_EQ(m.value("svc.compiled"), 1u);
    EXPECT_EQ(m.value("svc.cached"), 1u);
    EXPECT_EQ(m.value("svc.shed"), 1u);
    EXPECT_EQ(m.value("svc.deadline_exceeded"), 0u);
    EXPECT_EQ(m.value("svc.validate.passed"), 1u);
    EXPECT_EQ(m.value("svc.validate.failed"), 0u);
    EXPECT_EQ(m.value("svc.validate.off"), 0u);
    bool hasSteps = false;
    for (const auto &[name, hist] : m.histograms())
        if (name == "svc.steps" && hist.count() == 3)
            hasSteps = true;
    EXPECT_TRUE(hasSteps);
}

TEST_F(ServiceTest, DiagnosticsCarryRequestIdProvenance)
{
    Service s(ServiceOptions{});
    s.serveSource("warm", kGemmSource);
    Response hit = s.serveSource("req-42", kGemmSource);
    ASSERT_EQ(hit.verdict, Verdict::Cached);
    ASSERT_FALSE(hit.diagnostics.empty());
    for (const core::Diagnostic &d : hit.diagnostics.all())
        EXPECT_EQ(d.origin, "req-42") << d.render();
    // The provenance travels into the stable JSON rendering too.
    EXPECT_NE(hit.renderJson().find("\"origin\": \"req-42\""),
              std::string::npos)
        << hit.renderJson();

    Response shed = s.serveSource("bad-7", kGarbageSource);
    ASSERT_EQ(shed.verdict, Verdict::Shed);
    for (const core::Diagnostic &d : shed.diagnostics.all())
        EXPECT_EQ(d.origin, "bad-7") << d.render();
}

TEST_F(ServiceTest, EventLogCorrelatesTheWholeRequestLifecycle)
{
    EventLog log;
    ServiceOptions o;
    o.events = &log;
    Service s(o);
    s.serveSource("fresh", kGemmSource);
    s.serveSource("hit", kGemmSource);
    s.serveSource("bad", kGarbageSource);

    // One verdict event per request, and the fresh/cached/shed paths
    // each leave their distinguishing step records.
    auto count = [&](const std::string &needle) {
        size_t n = 0;
        for (size_t at = log.text().find(needle); at != std::string::npos;
             at = log.text().find(needle, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"event\": \"verdict\""), 3u) << log.text();
    EXPECT_EQ(count("\"event\": \"admit\""), 3u) << log.text();
    EXPECT_EQ(count("\"request\": \"fresh\""), 7u) << log.text();
    EXPECT_EQ(count("\"request\": \"hit\""), 5u) << log.text();
    EXPECT_EQ(count("\"outcome\": \"miss\""), 1u) << log.text();
    EXPECT_EQ(count("\"outcome\": \"hit\""), 1u) << log.text();
    EXPECT_EQ(count("\"outcome\": \"rejected\""), 1u) << log.text();

    // Every line is one JSON object with the fixed leading keys, and
    // seq numbers the lines 0..n-1 (no timestamps anywhere).
    std::istringstream in(log.text());
    std::string line;
    uint64_t seq = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.find("{\"seq\": " + std::to_string(seq) +
                            ", \"request\": "),
                  0u)
            << line;
        EXPECT_EQ(line.back(), '}') << line;
        ++seq;
    }
    EXPECT_EQ(seq, log.events());

    // Determinism: a fresh service serving the same stream renders the
    // byte-identical log.
    EventLog replay;
    ServiceOptions o2;
    o2.events = &replay;
    Service s2(o2);
    s2.serveSource("fresh", kGemmSource);
    s2.serveSource("hit", kGemmSource);
    s2.serveSource("bad", kGarbageSource);
    EXPECT_EQ(log.text(), replay.text());
}

TEST_F(ServiceTest, EventLogRecordsRetriesAndAdmissionSheds)
{
    EventLog log;
    ServiceOptions o;
    o.events = &log;
    o.maxProgramBytes = 16;
    o.queueLimit = 1;
    Service s(o);
    std::vector<BatchRequest> batch;
    batch.push_back({"big", std::string(64, 'x'), 1});
    batch.push_back({"overflow", kGemmSource, 2});
    s.runBatch(batch);
    EXPECT_NE(log.text().find("\"request\": \"big\", \"event\": \"admit\", "
                              "\"outcome\": \"shed\", \"reason\": "
                              "\"program-size\", \"bytes\": 64"),
              std::string::npos)
        << log.text();
    EXPECT_NE(log.text().find("\"request\": \"overflow\", \"event\": "
                              "\"admit\", \"outcome\": \"shed\", "
                              "\"reason\": \"queue-limit\""),
              std::string::npos)
        << log.text();

    // A transient injected fault leaves a correlated retry event.
    EventLog rlog;
    ServiceOptions ro;
    ro.events = &rlog;
    Service rs(ro);
    fault::armAt(40, fault::Kind::Overflow);
    Response r = rs.serve("flaky", ir::gallery::gemm());
    fault::disarm();
    if (r.retries > 0) {
        EXPECT_NE(rlog.text().find("\"request\": \"flaky\", \"event\": "
                                   "\"retry\", \"attempt\": 1"),
                  std::string::npos)
            << rlog.text();
    }
}

TEST_F(ServiceTest, VerdictNamesAreStable)
{
    EXPECT_STREQ(verdictName(Verdict::Compiled), "compiled");
    EXPECT_STREQ(verdictName(Verdict::Cached), "cached");
    EXPECT_STREQ(verdictName(Verdict::Degraded), "degraded");
    EXPECT_STREQ(verdictName(Verdict::Shed), "shed");
    EXPECT_STREQ(verdictName(Verdict::DeadlineExceeded),
                 "deadline-exceeded");
}

} // namespace
} // namespace anc::svc
