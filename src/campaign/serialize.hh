/**
 * @file
 * Payload encoders and decoders for the result cache's JSONL spill.
 *
 * Each campaign result kind (measurement, roofline model, trace
 * recording, phase trajectory) becomes one compact JSON object built
 * with the shared codec in support/json.hh. Numbers keep every bit
 * ("%.17g", NaN and infinity as the codec's nan/inf tokens), so a
 * cached result decodes to exactly what the simulator produced. Keys
 * added later are appended after the older ones and decode with
 * defaults when absent, so older spill files stay readable.
 */

#ifndef RFL_CAMPAIGN_SERIALIZE_HH
#define RFL_CAMPAIGN_SERIALIZE_HH

#include <string>
#include <vector>

#include "analysis/phase.hh"
#include "roofline/measurement.hh"
#include "roofline/model.hh"
#include "support/json.hh"
#include "trace/trace_file.hh"

namespace rfl::campaign
{

/**
 * The codec lives in support/ so telemetry/ can use it too; this alias
 * keeps the `campaign::Json` spelling that perfbench/ sources use.
 */
using Json = rfl::Json;

/** Encode a measurement as a one-line JSON object. */
std::string encodeMeasurement(const roofline::Measurement &m);

/** Decode a measurement; fatal() on malformed payload. */
roofline::Measurement decodeMeasurement(const std::string &payload);

/** Ceilings as [{"name":..,"value":..},...]: model payloads and
 *  analysis.json share this shape. */
Json ceilingsToJson(const std::vector<roofline::Ceiling> &ceilings);

/** Model of two ceilingsToJson() arrays; JsonError on a ceiling value
 *  that is not finite and > 0, which the model cannot hold. */
roofline::RooflineModel modelFromJson(const Json &compute,
                                      const Json &bandwidth);

/** Encode a roofline model (its named ceilings) as one-line JSON. */
std::string encodeModel(const roofline::RooflineModel &model);

/** Decode a roofline model; JsonError on a payload of another shape
 *  or with a ceiling value modelFromJson() rejects. */
roofline::RooflineModel decodeModel(const std::string &payload);

/** Outcome of a trace-record job (persisted in the result cache). */
struct TraceInfo
{
    std::string path; ///< content-addressed trace file location
    trace::TraceSummary summary;
};

/**
 * Encode a trace recording's outcome. The 64-bit summary fields are
 * emitted as decimal strings (the JSON number path is double-based and
 * would round the content hash).
 */
std::string encodeTraceInfo(const TraceInfo &info);

/** Decode a trace recording's outcome; fatal() on malformed payload. */
TraceInfo decodeTraceInfo(const std::string &payload);

/** Encode a phase-sample trajectory as one-line JSON. */
std::string encodePhaseTrajectory(const analysis::PhaseTrajectory &t);

/** Decode a phase-sample trajectory; fatal() on malformed payload. */
analysis::PhaseTrajectory
decodePhaseTrajectory(const std::string &payload);

} // namespace rfl::campaign

#endif // RFL_CAMPAIGN_SERIALIZE_HH
