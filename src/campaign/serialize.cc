#include "campaign/serialize.hh"

#include <cmath>
#include <cstdlib>
#include <limits>

namespace rfl::campaign
{

namespace
{

Json
sampleToJson(const Sample &s)
{
    Json arr = Json::makeArray();
    for (double v : s.values())
        arr.push(Json::makeNumber(v));
    return arr;
}

Sample
sampleFromJson(const Json &j)
{
    Sample s;
    for (const Json &v : j.asArray())
        s.add(v.asNumber());
    return s;
}

/** @return a count as an int; JsonError when it is not a number
 *  inside int range (converting one outside is undefined). */
int
intFromJson(const Json &j)
{
    const double v = j.asNumber();
    if (!(v > std::numeric_limits<int>::min() - 1.0 &&
          v < std::numeric_limits<int>::max() + 1.0))
        throw JsonError("count outside int range");
    return static_cast<int>(v);
}

} // namespace

std::string
encodeMeasurement(const roofline::Measurement &m)
{
    Json j = Json::makeObject();
    j.set("kernel", Json::makeString(m.kernel));
    j.set("size", Json::makeString(m.sizeLabel));
    j.set("protocol", Json::makeString(m.protocol));
    j.set("cores", Json::makeNumber(m.cores));
    j.set("lanes", Json::makeNumber(m.lanes));
    j.set("flops", Json::makeNumber(m.flops));
    j.set("traffic_bytes", Json::makeNumber(m.trafficBytes));
    j.set("seconds", Json::makeNumber(m.seconds));
    j.set("expected_flops", Json::makeNumber(m.expectedFlops));
    j.set("expected_traffic_bytes",
          Json::makeNumber(m.expectedTrafficBytes));
    j.set("flops_sample", sampleToJson(m.flopsSample));
    j.set("traffic_sample", sampleToJson(m.trafficSample));
    j.set("seconds_sample", sampleToJson(m.secondsSample));
    // Appended after every pre-existing key so older payloads decode
    // with defaults and sim payload prefixes are unchanged.
    j.set("backend", Json::makeString(m.backend));
    j.set("quality", Json::makeNumber(m.quality));
    j.set("available", Json::makeBool(m.available));
    return j.dump();
}

roofline::Measurement
decodeMeasurement(const std::string &payload)
{
    const Json j = Json::parse(payload);
    roofline::Measurement m;
    m.kernel = j.at("kernel").asString();
    m.sizeLabel = j.at("size").asString();
    m.protocol = j.at("protocol").asString();
    m.cores = intFromJson(j.at("cores"));
    m.lanes = intFromJson(j.at("lanes"));
    m.flops = j.at("flops").asNumber();
    m.trafficBytes = j.at("traffic_bytes").asNumber();
    m.seconds = j.at("seconds").asNumber();
    m.expectedFlops = j.at("expected_flops").asNumber();
    m.expectedTrafficBytes = j.at("expected_traffic_bytes").asNumber();
    m.flopsSample = sampleFromJson(j.at("flops_sample"));
    m.trafficSample = sampleFromJson(j.at("traffic_sample"));
    m.secondsSample = sampleFromJson(j.at("seconds_sample"));
    // Pre-backend cache entries (all sim) lack these keys.
    if (j.has("backend"))
        m.backend = j.at("backend").asString();
    if (j.has("quality"))
        m.quality = j.at("quality").asNumber();
    if (j.has("available"))
        m.available = j.at("available").asBool();
    return m;
}

Json
ceilingsToJson(const std::vector<roofline::Ceiling> &ceilings)
{
    Json arr = Json::makeArray();
    for (const roofline::Ceiling &c : ceilings) {
        Json obj = Json::makeObject();
        obj.set("name", Json::makeString(c.name));
        obj.set("value", Json::makeNumber(c.value));
        arr.push(std::move(obj));
    }
    return arr;
}

std::string
encodeModel(const roofline::RooflineModel &model)
{
    Json j = Json::makeObject();
    j.set("compute", ceilingsToJson(model.computeCeilings()));
    j.set("bandwidth", ceilingsToJson(model.bandwidthCeilings()));
    return j.dump();
}

namespace
{

/** @return a ceiling's value; JsonError unless finite and > 0. */
double
ceilingValue(const Json &c)
{
    const double v = c.at("value").asNumber();
    if (!(std::isfinite(v) && v > 0.0))
        throw JsonError("ceiling value not finite and > 0");
    return v;
}

} // namespace

roofline::RooflineModel
modelFromJson(const Json &compute, const Json &bandwidth)
{
    roofline::RooflineModel model;
    for (const Json &c : compute.asArray())
        model.addComputeCeiling(c.at("name").asString(), ceilingValue(c));
    for (const Json &c : bandwidth.asArray())
        model.addBandwidthCeiling(c.at("name").asString(),
                                  ceilingValue(c));
    return model;
}

roofline::RooflineModel
decodeModel(const std::string &payload)
{
    const Json j = Json::parse(payload);
    return modelFromJson(j.at("compute"), j.at("bandwidth"));
}

namespace
{

/** u64 as a decimal string: JSON numbers are doubles here and would
 *  round counters and the content hash above 2^53. */
Json
u64Field(uint64_t v)
{
    return Json::makeString(std::to_string(v));
}

uint64_t
u64FromField(const Json &j)
{
    return std::strtoull(j.asString().c_str(), nullptr, 10);
}

} // namespace

std::string
encodeTraceInfo(const TraceInfo &info)
{
    const trace::TraceSummary &s = info.summary;
    Json j = Json::makeObject();
    j.set("path", Json::makeString(info.path));
    j.set("records", u64Field(s.records));
    j.set("loads", u64Field(s.loads));
    j.set("stores", u64Field(s.stores));
    j.set("nt_stores", u64Field(s.ntStores));
    j.set("fp_ops", u64Field(s.fpOps));
    j.set("other_uops", u64Field(s.otherUops));
    j.set("flops", u64Field(s.flops));
    j.set("mem_bytes", u64Field(s.memBytes));
    j.set("min_addr", u64Field(s.minAddr));
    j.set("max_addr", u64Field(s.maxAddr));
    j.set("flags", u64Field(s.flags));
    j.set("hash", u64Field(s.hash));
    return j.dump();
}

TraceInfo
decodeTraceInfo(const std::string &payload)
{
    const Json j = Json::parse(payload);
    TraceInfo info;
    info.path = j.at("path").asString();
    trace::TraceSummary &s = info.summary;
    s.records = u64FromField(j.at("records"));
    s.loads = u64FromField(j.at("loads"));
    s.stores = u64FromField(j.at("stores"));
    s.ntStores = u64FromField(j.at("nt_stores"));
    s.fpOps = u64FromField(j.at("fp_ops"));
    s.otherUops = u64FromField(j.at("other_uops"));
    s.flops = u64FromField(j.at("flops"));
    s.memBytes = u64FromField(j.at("mem_bytes"));
    s.minAddr = u64FromField(j.at("min_addr"));
    s.maxAddr = u64FromField(j.at("max_addr"));
    s.flags = u64FromField(j.at("flags"));
    s.hash = u64FromField(j.at("hash"));
    return info;
}

std::string
encodePhaseTrajectory(const analysis::PhaseTrajectory &t)
{
    Json j = Json::makeObject();
    j.set("kernel", Json::makeString(t.kernel));
    j.set("size", Json::makeString(t.sizeLabel));
    j.set("protocol", Json::makeString(t.protocol));
    j.set("period", u64Field(t.period));
    j.set("total_flops", Json::makeNumber(t.totalFlops));
    j.set("total_traffic_bytes", Json::makeNumber(t.totalTrafficBytes));
    j.set("total_seconds", Json::makeNumber(t.totalSeconds));
    Json points = Json::makeArray();
    for (const analysis::PhasePoint &p : t.points) {
        // oi/perf are derived from the stored deltas on decode; the
        // spill line stays minimal.
        Json pj = Json::makeObject();
        pj.set("flops", Json::makeNumber(p.flops));
        pj.set("traffic_bytes", Json::makeNumber(p.trafficBytes));
        pj.set("seconds", Json::makeNumber(p.seconds));
        points.push(std::move(pj));
    }
    j.set("points", std::move(points));
    return j.dump();
}

analysis::PhaseTrajectory
decodePhaseTrajectory(const std::string &payload)
{
    const Json j = Json::parse(payload);
    analysis::PhaseTrajectory t;
    t.kernel = j.at("kernel").asString();
    t.sizeLabel = j.at("size").asString();
    t.protocol = j.at("protocol").asString();
    t.period = u64FromField(j.at("period"));
    t.totalFlops = j.at("total_flops").asNumber();
    t.totalTrafficBytes = j.at("total_traffic_bytes").asNumber();
    t.totalSeconds = j.at("total_seconds").asNumber();
    for (const Json &pj : j.at("points").asArray()) {
        analysis::PhasePoint p;
        p.flops = pj.at("flops").asNumber();
        p.trafficBytes = pj.at("traffic_bytes").asNumber();
        p.seconds = pj.at("seconds").asNumber();
        p.oi = p.trafficBytes > 0
                   ? p.flops / p.trafficBytes
                   : std::numeric_limits<double>::infinity();
        p.perf = p.seconds > 0 ? p.flops / p.seconds : 0.0;
        t.points.push_back(p);
    }
    return t;
}

} // namespace rfl::campaign
