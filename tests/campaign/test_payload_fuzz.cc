/**
 * @file
 * Seeded mutation fuzz over the result-cache payload decoders
 * (campaign/serialize.hh). A spill line is untrusted input: a torn
 * write, another schema or a hand edit can put anything there. Every
 * mutated payload that is still JSON (the cache parses the line before
 * a decoder sees it) must either be rejected with JsonError or decode
 * to a value whose encoding decodes back to the same encoding. Inputs
 * that once broke a decoder are kept as regression inputs.
 */

#include <cmath>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/serialize.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl;
using namespace rfl::campaign;

/** encode(decode(payload)) for one payload kind. */
struct Codec
{
    const char *name;
    std::function<std::string(const std::string &)> roundTrip;
    std::vector<std::string> corpus;
};

roofline::Measurement
sampleMeasurement()
{
    roofline::Measurement m;
    m.kernel = "triad";
    m.sizeLabel = "n=4096";
    m.protocol = "cold";
    m.cores = 2;
    m.lanes = 4;
    m.flops = 8192;
    m.trafficBytes = std::numeric_limits<double>::quiet_NaN();
    m.seconds = 1.2345678901234567e-05;
    m.expectedFlops = 8192;
    m.expectedTrafficBytes = 98304;
    m.flopsSample.add(8192);
    m.secondsSample.add(1.2e-05);
    m.secondsSample.add(1.3e-05);
    return m;
}

std::vector<Codec>
codecs()
{
    roofline::RooflineModel model;
    model.addComputeCeiling("AVX+FMA", 4e10);
    model.addComputeCeiling("scalar", 2.5e9);
    model.addBandwidthCeiling("read", 13241280991.8232);
    model.addBandwidthCeiling("triad", 1.1e10);

    TraceInfo trace;
    trace.path = "traces/dd4087d7bfb5fc78.rfltrace";
    trace.summary.records = 3074;
    trace.summary.loads = 2048;
    trace.summary.stores = 1024;
    trace.summary.flops = 8192;
    trace.summary.minAddr = 4294967296ull;
    trace.summary.maxAddr = 4297097216ull;
    trace.summary.hash = 15942892041595649144ull;

    analysis::PhaseTrajectory phases;
    phases.kernel = "fft";
    phases.sizeLabel = "n=65536";
    phases.protocol = "cold";
    phases.period = 4096;
    phases.totalFlops = 5.2e6;
    phases.totalTrafficBytes = 1.6e6;
    phases.totalSeconds = 2.5e-4;
    for (int i = 0; i < 3; ++i) {
        analysis::PhasePoint p;
        p.flops = 1e5 * (i + 1);
        p.trafficBytes = i == 1 ? 0.0 : 3e4;
        p.seconds = 1e-5;
        phases.points.push_back(p);
    }

    return {
        {"measurement",
         [](const std::string &p) {
             return encodeMeasurement(decodeMeasurement(p));
         },
         {encodeMeasurement(sampleMeasurement()),
          // Regression: a count far outside int used to be converted
          // with undefined behavior.
          R"({"kernel":"k","size":"","protocol":"cold","cores":1e308,)"
          R"("lanes":nan,"flops":0,"traffic_bytes":0,"seconds":0,)"
          R"("expected_flops":0,"expected_traffic_bytes":0,)"
          R"("flops_sample":[],"traffic_sample":[],"seconds_sample":[]})"}},
        {"model",
         [](const std::string &p) { return encodeModel(decodeModel(p)); },
         {encodeModel(model)}},
        {"trace-info",
         [](const std::string &p) {
             return encodeTraceInfo(decodeTraceInfo(p));
         },
         {encodeTraceInfo(trace)}},
        {"phase-trajectory",
         [](const std::string &p) {
             return encodePhaseTrajectory(decodePhaseTrajectory(p));
         },
         {encodePhaseTrajectory(phases)}},
    };
}

/** One random edit of @p s: byte flip, token insert, delete,
 *  duplicate, or a whole value replaced by a token. */
void
mutate(std::string &s, Rng &rng)
{
    static const std::string kTokens[] = {
        "{", "}", "[", "]", "\"", ":", ",", "0", "-1", "-0", "1e308",
        "-1e308", "2147483648", "nan", "inf", "-inf", "null", "true",
        "[]", "{}", "\"\"", "\"-5\"", "\"18446744073709551616\"",
        "\"x\"", "4.5", "1e-320", "[1,2]", "[nan]",
    };
    const size_t pos = s.empty() ? 0 : rng.nextBounded(s.size());
    const std::string &token = kTokens[rng.nextBounded(std::size(kTokens))];
    switch (rng.nextBounded(5)) {
      case 0:
        if (!s.empty())
            s[pos] = static_cast<char>(rng.nextBounded(256));
        break;
      case 1:
        s.insert(pos, token);
        break;
      case 2:
        s.erase(pos, rng.nextBounded(8) + 1);
        break;
      case 3:
        s.insert(pos, s.substr(pos, rng.nextBounded(32) + 1));
        break;
      case 4: {
        // Keep the document well formed: swap the value after a ':'
        // for a token, so the decoder (not the parser) sees the edit.
        const size_t colon = s.find(':', pos);
        if (colon == std::string::npos)
            break;
        const size_t end = s.find_first_of(",}", colon + 1);
        if (end == std::string::npos)
            break;
        s.replace(colon + 1, end - colon - 1, token);
        break;
      }
    }
}

TEST(PayloadFuzz, EveryPayloadIsRejectedOrReachesAFixedPoint)
{
    Rng rng(20261021);
    for (const Codec &codec : codecs()) {
        int decoded = 0;
        for (int iter = 0; iter < 5000; ++iter) {
            std::string input =
                codec.corpus[rng.nextBounded(codec.corpus.size())];
            const int edits = static_cast<int>(rng.nextBounded(3));
            for (int e = 0; e < edits; ++e)
                mutate(input, rng);
            // The cache hands decoders the payload of a spill line it
            // has already parsed, so every input is well-formed JSON.
            Json parsed;
            if (!Json::tryParse(input, &parsed))
                continue;
            std::string once;
            try {
                once = codec.roundTrip(input);
            } catch (const JsonError &) {
                continue;
            }
            ++decoded;
            std::string twice;
            ASSERT_NO_THROW(twice = codec.roundTrip(once))
                << codec.name << " input: " << input;
            ASSERT_EQ(twice, once) << codec.name << " input: " << input;
        }
        // The budget must exercise the decode path, not only rejection.
        EXPECT_GT(decoded, 1000) << codec.name;
    }
}

TEST(PayloadFuzz, OutOfRangeCountsAreRejected)
{
    for (const char *cores : {"1e308", "-1e308", "nan", "inf",
                              "2147483648", "-2147483649"}) {
        const std::string payload =
            std::string(R"({"kernel":"k","size":"","protocol":"cold",)") +
            R"("cores":)" + cores +
            R"(,"lanes":4,"flops":0,"traffic_bytes":0,"seconds":0,)"
            R"("expected_flops":0,"expected_traffic_bytes":0,)"
            R"("flops_sample":[],"traffic_sample":[],"seconds_sample":[]})";
        EXPECT_THROW(decodeMeasurement(payload), JsonError) << cores;
    }
    const roofline::Measurement m = sampleMeasurement();
    EXPECT_EQ(decodeMeasurement(encodeMeasurement(m)).cores, m.cores);
}

} // namespace
