#include "obs/explain.h"

#include <sstream>

#include "obs/trace.h"

namespace anc::obs {

namespace {

const char *
boolStr(bool b)
{
    return b ? "true" : "false";
}

double
totalOf(const std::vector<double> &v)
{
    double t = 0;
    for (double x : v)
        t += x;
    return t;
}

std::string
candidateJson(const ExplainCandidate &c)
{
    std::string s = "{\"accessRow\":" + jsonNum(c.accessRow);
    s += ",\"coeffs\":" + jsonStr(c.coeffs);
    s += ",\"origin\":" + jsonStr(c.origin);
    s += ",\"count\":" + jsonNum(c.count);
    s += ",\"distDim\":";
    s += boolStr(c.distDim);
    s += ",\"stage\":" + jsonStr(c.stage);
    s += ",\"verdict\":" + jsonStr(c.verdict);
    s += ",\"reason\":" + jsonStr(c.reason);
    s += ",\"violatedDep\":" + jsonNum(c.violatedDep);
    s += ",\"depsCarried\":" + jsonNum(c.depsCarried);
    s += "}";
    return s;
}

std::string
refJson(const ExplainRefScore &r)
{
    std::string s = "{\"ref\":" + jsonStr(r.ref);
    s += ",\"strides\":" + jsonStr(r.strides);
    s += ",\"constantStride\":";
    s += boolStr(r.constantStride);
    s += ",\"singleDimension\":";
    s += boolStr(r.singleDimension);
    s += ",\"verdict\":" + jsonStr(r.verdict);
    s += "}";
    return s;
}

template <class T>
std::string
numArrayJson(const std::vector<T> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i) {
        if (i)
            s += ",";
        s += jsonNum(v[i]);
    }
    s += "]";
    return s;
}

std::string
searchScoreJson(const ExplainSearchScore &t)
{
    std::string s = "{\"transform\":" + jsonStr(t.transform);
    s += ",\"origin\":" + jsonStr(t.origin);
    s += ",\"scheme\":" + jsonStr(t.scheme);
    s += ",\"locality\":" + jsonNum(t.locality);
    s += ",\"simTimesUs\":" + numArrayJson(t.simTimesUs);
    s += ",\"totalUs\":" + jsonNum(t.totalUs);
    s += ",\"verdict\":" + jsonStr(t.verdict);
    s += ",\"detail\":" + jsonStr(t.detail);
    s += "}";
    return s;
}

std::string
searchJson(const ExplainSearch &se)
{
    std::string s = "{\"ran\":";
    s += boolStr(se.ran);
    s += ",\"improved\":";
    s += boolStr(se.improved);
    s += ",\"enumerated\":" + jsonNum(se.enumerated);
    s += ",\"scored\":" + jsonNum(se.scored);
    s += ",\"pruned\":" + jsonNum(se.pruned);
    s += ",\"bounded\":" + jsonNum(se.bounded);
    s += ",\"processorSweep\":" + numArrayJson(se.processorSweep);
    s += ",\"heuristicTimesUs\":" + numArrayJson(se.heuristicTimesUs);
    s += ",\"winnerTimesUs\":" + numArrayJson(se.winnerTimesUs);
    s += ",\"winnerOrigin\":" + jsonStr(se.winnerOrigin);
    s += ",\"tieBreak\":" + jsonStr(se.tieBreak);
    s += ",\"trail\":[";
    for (size_t i = 0; i < se.trail.size(); ++i) {
        if (i)
            s += ",";
        s += searchScoreJson(se.trail[i]);
    }
    s += "]}";
    return s;
}

} // namespace

std::string
ExplainRecord::renderJson() const
{
    std::string s = "{\"tier\":" + jsonStr(tier);
    s += ",\"degraded\":";
    s += boolStr(degraded);
    s += ",\"partial\":";
    s += boolStr(partial);
    s += ",\"transform\":" + jsonStr(transform);
    s += ",\"unimodular\":";
    s += boolStr(unimodular);
    s += ",\"plan\":{\"scheme\":" + jsonStr(scheme);
    s += ",\"rationale\":" + jsonStr(planRationale);
    s += ",\"tieBreak\":" + jsonStr(tieBreak);
    s += ",\"outerParallel\":";
    s += boolStr(outerParallel);
    s += ",\"hoists\":" + jsonNum(hoists);
    s += "},\"search\":" + searchJson(search);
    s += ",\"candidates\":[";
    for (size_t i = 0; i < candidates.size(); ++i) {
        if (i)
            s += ",";
        s += candidateJson(candidates[i]);
    }
    s += "],\"refs\":[";
    for (size_t i = 0; i < refs.size(); ++i) {
        if (i)
            s += ",";
        s += refJson(refs[i]);
    }
    s += "],\"notes\":[";
    for (size_t i = 0; i < notes.size(); ++i) {
        if (i)
            s += ",";
        s += jsonStr(notes[i]);
    }
    s += "]}";
    return s;
}

std::string
ExplainRecord::renderText() const
{
    std::ostringstream os;
    os << "plan explanation (tier=" << tier
       << (degraded ? ", degraded" : "") << (partial ? ", partial" : "")
       << ")\n";
    os << "chosen T: " << transform
       << (unimodular ? "  (unimodular)" : "") << "\n";
    os << "candidate rows:\n";
    for (const ExplainCandidate &c : candidates) {
        os << "  ";
        if (c.accessRow >= 0)
            os << "row " << c.accessRow << " ";
        os << c.coeffs << "  " << c.origin;
        if (c.count)
            os << "  x" << c.count;
        if (c.distDim)
            os << "  dist";
        os << "  [" << c.stage << "] " << c.verdict;
        if (!c.reason.empty())
            os << ": " << c.reason;
        if (c.violatedDep >= 0)
            os << " (dependence column " << c.violatedDep << ")";
        if (c.depsCarried)
            os << " (carries " << c.depsCarried << " dependence"
               << (c.depsCarried == 1 ? "" : "s") << ")";
        os << "\n";
    }
    os << "partition: " << scheme << " -- " << planRationale << "\n";
    if (!tieBreak.empty())
        os << "tie-break: " << tieBreak << "\n";
    os << "outer loop: "
       << (outerParallel ? "parallel" : "needs synchronization") << "\n";
    os << "block transfers: " << hoists << "\n";
    if (search.ran) {
        os << "plan search: " << search.enumerated << " candidate"
           << (search.enumerated == 1 ? "" : "s") << ", " << search.scored
           << " scored, " << search.pruned << " pruned, "
           << search.bounded << " bounded\n";
        os << "  heuristic total " << jsonNum(totalOf(search.heuristicTimesUs))
           << " us; winner '" << search.winnerOrigin << "' total "
           << jsonNum(totalOf(search.winnerTimesUs)) << " us ("
           << (search.improved ? "improved" : "no improvement") << ")\n";
        if (!search.tieBreak.empty())
            os << "  search tie-break: " << search.tieBreak << "\n";
        for (const ExplainSearchScore &t : search.trail) {
            os << "  " << t.transform << "  " << t.origin;
            if (!t.scheme.empty())
                os << "  " << t.scheme;
            if (t.totalUs >= 0)
                os << "  total " << jsonNum(t.totalUs) << " us";
            os << "  -> " << t.verdict;
            if (!t.detail.empty())
                os << ": " << t.detail;
            os << "\n";
        }
    }
    if (!refs.empty()) {
        os << "reference scores (innermost strides under T):\n";
        for (const ExplainRefScore &r : refs) {
            os << "  " << r.ref << "  " << r.strides;
            if (r.constantStride)
                os << "  const-stride";
            if (r.singleDimension)
                os << "  single-dim";
            os << "  -> " << r.verdict << "\n";
        }
    }
    for (const std::string &n : notes)
        os << "note: " << n << "\n";
    return os.str();
}

} // namespace anc::obs
