/**
 * @file
 * Canonical JSON encodings of RunStats, ConvSpec and Unroll.
 */

#include "sim/json.hh"

#include <sstream>

#include "util/logging.hh"
#include "util/strings.hh"

namespace ganacc {
namespace sim {

std::string
toJson(const RunStats &st)
{
    // Ten counters of at most 20 digits plus 144 bytes of names.
    util::FixedText<384> os;
    os << "{\"cycles\":" << st.cycles << ",\"nPes\":" << st.nPes
       << ",\"effectiveMacs\":" << st.effectiveMacs
       << ",\"ineffectualMacs\":" << st.ineffectualMacs
       << ",\"idlePeSlots\":" << st.idlePeSlots
       << ",\"gatedSlots\":" << st.gatedSlots
       << ",\"weightLoads\":" << st.weightLoads
       << ",\"inputLoads\":" << st.inputLoads
       << ",\"outputReads\":" << st.outputReads
       << ",\"outputWrites\":" << st.outputWrites << "}";
    return os.str();
}

RunStats
runStatsFromJson(const util::json::Value &v)
{
    const util::json::Object &o = v.asObject();
    RunStats st;
    st.cycles = o.at("cycles").asUint64();
    st.nPes = o.at("nPes").asUint64();
    st.effectiveMacs = o.at("effectiveMacs").asUint64();
    st.ineffectualMacs = o.at("ineffectualMacs").asUint64();
    st.idlePeSlots = o.at("idlePeSlots").asUint64();
    st.gatedSlots = o.at("gatedSlots").asUint64();
    st.weightLoads = o.at("weightLoads").asUint64();
    st.inputLoads = o.at("inputLoads").asUint64();
    st.outputReads = o.at("outputReads").asUint64();
    st.outputWrites = o.at("outputWrites").asUint64();
    return st;
}

std::string
toJson(const Unroll &u)
{
    util::FixedText<128> os; // six ints of at most 11 characters
    os << "{\"pIf\":" << u.pIf << ",\"pOf\":" << u.pOf
       << ",\"pKx\":" << u.pKx << ",\"pKy\":" << u.pKy
       << ",\"pOx\":" << u.pOx << ",\"pOy\":" << u.pOy << "}";
    return os.str();
}

Unroll
unrollFromJson(const util::json::Value &v)
{
    const util::json::Object &o = v.asObject();
    Unroll u;
    u.pIf = o.at("pIf").asInt();
    u.pOf = o.at("pOf").asInt();
    u.pKx = o.at("pKx").asInt();
    u.pKy = o.at("pKy").asInt();
    u.pOx = o.at("pOx").asInt();
    u.pOy = o.at("pOy").asInt();
    return u;
}

std::string
toJson(const ConvSpec &s)
{
    std::ostringstream os;
    os << "{\"label\":\"" << util::escapeJson(s.label) << "\""
       << ",\"nif\":" << s.nif << ",\"nof\":" << s.nof
       << ",\"ih\":" << s.ih << ",\"iw\":" << s.iw
       << ",\"kh\":" << s.kh << ",\"kw\":" << s.kw
       << ",\"oh\":" << s.oh << ",\"ow\":" << s.ow
       << ",\"stride\":" << s.stride << ",\"pad\":" << s.pad
       << ",\"inZeroStride\":" << s.inZeroStride
       << ",\"inOrigH\":" << s.inOrigH << ",\"inOrigW\":" << s.inOrigW
       << ",\"kZeroStride\":" << s.kZeroStride
       << ",\"kOrigH\":" << s.kOrigH << ",\"kOrigW\":" << s.kOrigW
       << ",\"fourDimOutput\":"
       << (s.fourDimOutput ? "true" : "false") << "}";
    return os.str();
}

namespace {

/** Signed fields (the -1 "dense" sentinels) need asInt through the
 *  double path; util::json stores negative integers as doubles. */
int
signedInt(const util::json::Object &o, const char *key)
{
    return o.at(key).asInt();
}

} // namespace

ConvSpec
convSpecFromJson(const util::json::Value &v)
{
    const util::json::Object &o = v.asObject();
    ConvSpec s;
    s.label = o.at("label").asString();
    s.nif = signedInt(o, "nif");
    s.nof = signedInt(o, "nof");
    s.ih = signedInt(o, "ih");
    s.iw = signedInt(o, "iw");
    s.kh = signedInt(o, "kh");
    s.kw = signedInt(o, "kw");
    s.oh = signedInt(o, "oh");
    s.ow = signedInt(o, "ow");
    s.stride = signedInt(o, "stride");
    s.pad = signedInt(o, "pad");
    s.inZeroStride = signedInt(o, "inZeroStride");
    s.inOrigH = signedInt(o, "inOrigH");
    s.inOrigW = signedInt(o, "inOrigW");
    s.kZeroStride = signedInt(o, "kZeroStride");
    s.kOrigH = signedInt(o, "kOrigH");
    s.kOrigW = signedInt(o, "kOrigW");
    s.fourDimOutput = o.at("fourDimOutput").asBool();
    return s;
}

std::string
specShapeKey(const ConvSpec &s)
{
    ConvSpec shape = s;
    shape.label.clear();
    return toJson(shape);
}

} // namespace sim
} // namespace ganacc
