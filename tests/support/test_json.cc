/**
 * @file
 * Unit tests for the shared JSON codec (support/json.hh): round trips
 * of every kind, bit-exact doubles, every ASCII byte and multi-byte
 * UTF-8, rejection of malformed and over-deep input, and a
 * deterministic mutation fuzz over the three document shapes the
 * system reads back (spill line, analysis.json, service envelope).
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace
{

using rfl::Json;

uint64_t
bitsOf(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(rfl::jsonEscape("plain"), "plain");
    EXPECT_EQ(rfl::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(rfl::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(rfl::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(rfl::jsonEscape(std::string("a\x01" "b")), "a\\u0001b");
}

TEST(JsonNumber, StrictJsonWritesNullForNonFinite)
{
    EXPECT_EQ(rfl::jsonNumber(0.5), "0.5");
    EXPECT_EQ(rfl::jsonNumber(0.1), "0.10000000000000001");
    EXPECT_EQ(rfl::jsonNumber(std::nan("")), "null");
    EXPECT_EQ(rfl::jsonNumber(HUGE_VAL), "null");
    EXPECT_EQ(rfl::jsonNumber(-HUGE_VAL), "null");
}

TEST(EscapeXml, EscapesMarkupAndQuotes)
{
    EXPECT_EQ(rfl::escapeXml("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c'");
}

TEST(Json, EveryKindRoundTrips)
{
    Json doc = Json::makeObject();
    doc.set("null", Json());
    doc.set("yes", Json::makeBool(true));
    doc.set("no", Json::makeBool(false));
    doc.set("num", Json::makeNumber(-12.5e-3));
    doc.set("str", Json::makeString("a \"quoted\" \\ line\n"));
    Json arr = Json::makeArray();
    arr.push(Json::makeNumber(1));
    arr.push(Json::makeArray());
    arr.push(Json::makeObject());
    doc.set("arr", std::move(arr));
    const std::string text = doc.dump();
    EXPECT_EQ(text,
              "{\"null\":null,\"yes\":true,\"no\":false,"
              "\"num\":-0.012500000000000001,"
              "\"str\":\"a \\\"quoted\\\" \\\\ line\\n\","
              "\"arr\":[1,[],{}]}");

    const Json back = Json::parse(text);
    EXPECT_EQ(back.dump(), text);
    EXPECT_EQ(back.at("null").kind(), Json::Kind::Null);
    EXPECT_TRUE(back.at("yes").asBool());
    EXPECT_FALSE(back.at("no").asBool());
    EXPECT_EQ(back.at("num").asNumber(), -12.5e-3);
    EXPECT_EQ(back.at("str").asString(), "a \"quoted\" \\ line\n");
    ASSERT_EQ(back.at("arr").asArray().size(), 3u);
    EXPECT_EQ(back.at("arr").asArray()[1].kind(), Json::Kind::Array);
    EXPECT_EQ(back.at("arr").asArray()[2].kind(), Json::Kind::Object);
    EXPECT_FALSE(back.has("missing"));
}

TEST(Json, DoublesRoundTripBitExactlyIncludingSpillTokens)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        -2.5,
        1e300,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::epsilon(),
        std::nan(""),
        HUGE_VAL,
        -HUGE_VAL,
    };
    rfl::Rng rng(42);
    while (values.size() < 2000) {
        const uint64_t bits = rng.next();
        double v = 0;
        std::memcpy(&v, &bits, sizeof(v));
        if (std::isfinite(v))
            values.push_back(v);
    }
    for (double v : values) {
        const std::string text = Json::makeNumber(v).dump();
        const double back = Json::parse(text).asNumber();
        EXPECT_EQ(bitsOf(back), bitsOf(v)) << text;
    }
    EXPECT_EQ(Json::makeNumber(std::nan("")).dump(), "nan");
    EXPECT_EQ(Json::makeNumber(HUGE_VAL).dump(), "inf");
    EXPECT_EQ(Json::makeNumber(-HUGE_VAL).dump(), "-inf");
}

TEST(Json, EveryAsciiByteAndMultiByteUtf8RoundTrip)
{
    std::string ascii;
    for (int c = 0; c <= 0x7f; ++c)
        ascii += static_cast<char>(c);
    const std::vector<std::string> strings = {
        ascii,
        "caf\xc3\xa9",                 // 2-byte
        "\xe6\x97\xa5\xe6\x9c\xac",     // 3-byte
        "smile \xf0\x9f\x99\x82 end",  // 4-byte
    };
    for (const std::string &s : strings) {
        const std::string text = Json::makeString(s).dump();
        EXPECT_EQ(Json::parse(text).asString(), s) << text;
    }
}

TEST(Json, DecodesStandardEscapesAndSurrogatePairs)
{
    EXPECT_EQ(Json::parse(R"("\/\b\f\n\r\t\"\\")").asString(),
              "/\b\f\n\r\t\"\\");
    EXPECT_EQ(Json::parse(R"("\u0041\u00e9\u65E5\u0000")").asString(),
              std::string("A\xc3\xa9\xe6\x97\xa5\0", 7));
    EXPECT_EQ(Json::parse(R"("\ud83d\ude42")").asString(),
              "\xf0\x9f\x99\x82");
    // Python json.dumps({"spec": "# café\n"}) with its defaults.
    const Json env = Json::parse(R"({"spec": "# caf\u00e9\n"})");
    EXPECT_EQ(env.at("spec").asString(), "# caf\xc3\xa9\n");
}

TEST(Json, AcceptsWhatOlderSpillLinesContain)
{
    // Raw control bytes inside strings and the nan/inf tokens.
    const Json v = Json::parse(
        "{\"k\":\"a\x01\x1f" "b\",\"n\":[nan,inf,-inf]}");
    EXPECT_EQ(v.at("k").asString(), "a\x01\x1f" "b");
    const std::vector<Json> &n = v.at("n").asArray();
    EXPECT_TRUE(std::isnan(n[0].asNumber()));
    EXPECT_EQ(n[1].asNumber(), HUGE_VAL);
    EXPECT_EQ(n[2].asNumber(), -HUGE_VAL);
}

TEST(Json, MalformedInputIsRejected)
{
    const std::vector<std::string> bad = {
        "", " ", "{", "}", "[1,", "[1,]", "[1 2]", "{\"a\"}",
        "{\"a\":}", "{\"a\":1,}", "{1:2}", "{'a':1}", "tru", "nul",
        "fals", "01", "1.", ".5", "+1", "-", "1e", "1e+", "0x10",
        "NaN", "Infinity", "nan1", "1 2", "\"abc", "\"\\x\"",
        "\"\\u12\"", "\"\\u12g4\"", "\"\\ud800\"", "\"\\udc00\"",
        "\"\\ud800\\u0041\"", "\"\\", "[\"a\"]]", "{\"a\":1}x",
    };
    for (const std::string &text : bad) {
        Json v;
        EXPECT_FALSE(Json::tryParse(text, &v)) << text;
    }
    const bool wasThrowing = rfl::setFatalThrows(true);
    EXPECT_THROW(Json::parse("[1,"), rfl::FatalError);
    rfl::setFatalThrows(wasThrowing);
}

TEST(Json, NestingDeeperThanTheBoundIsRejected)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<size_t>(depth), '[') +
               std::string(static_cast<size_t>(depth), ']');
    };
    Json v;
    EXPECT_TRUE(Json::tryParse(nested(Json::kMaxDepth), &v));
    EXPECT_FALSE(Json::tryParse(nested(Json::kMaxDepth + 1), &v));
    // Far past what an 8 MiB stack survives without the bound.
    EXPECT_FALSE(Json::tryParse(
        "{\"spec\":" + std::string(100000, '['), &v));
}

TEST(Json, DuplicateKeysLastWinsAndLargeObjectsParse)
{
    const Json v = Json::parse(R"({"a":1,"b":2,"a":3})");
    EXPECT_EQ(v.at("a").asNumber(), 3);
    // A body-limit-sized object of distinct keys parses in linear time.
    std::string text = "{\"k\":0";
    for (int i = 0; i < 100000; ++i)
        text += ",\"" + std::to_string(i) + "\":0";
    text += "}";
    Json big;
    ASSERT_TRUE(Json::tryParse(text, &big));
    EXPECT_TRUE(big.has("99999"));
}

/** One random edit of @p s: byte flip, insert, delete or duplicate. */
void
mutate(std::string &s, rfl::Rng &rng)
{
    static const std::string kTokens[] = {
        "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\ud83d",
        "\\ude42", "0", "-", ".", "e", "nan", "inf", "-inf", "null",
        "true", "1e308", "\x01", "\xc3\xa9", std::string(70, '['),
    };
    const size_t pos = s.empty() ? 0 : rng.nextBounded(s.size());
    switch (rng.nextBounded(4)) {
      case 0:
        if (!s.empty())
            s[pos] = static_cast<char>(rng.nextBounded(256));
        break;
      case 1:
        s.insert(pos, kTokens[rng.nextBounded(std::size(kTokens))]);
        break;
      case 2:
        s.erase(pos, rng.nextBounded(8) + 1);
        break;
      case 3:
        s.insert(pos, s.substr(pos, rng.nextBounded(32) + 1));
        break;
    }
}

TEST(JsonFuzz, EveryInputIsRejectedOrReachesAFixedPoint)
{
    const std::vector<std::string> corpus = {
        // Result-cache spill line (measurement payload, NaN traffic).
        R"({"key":"measure|9f3c|triad:n=4096|protocol=cold","payload":)"
        R"({"kernel":"triad","size":"n=4096","protocol":"cold",)"
        R"("cores":1,"lanes":4,"flops":8192,"traffic_bytes":nan,)"
        R"("seconds":1.2345678901234567e-05,"expected_flops":8192,)"
        R"("flops_sample":[8192,8192],"traffic_sample":[],)"
        R"("seconds_sample":[1.2e-05],"backend":"sim","quality":1,)"
        R"("available":true}})",
        // analysis.json (schema v4 shape, strict JSON).
        R"({"kind":"rfl-analysis","schema_version":4,"campaign":"gate",)"
        R"("scenarios":[{"machine":"small","variant":"cold-1c",)"
        R"("peak_flops":40000000000,"ridge":2.8571428571428572,)"
        R"("compute_ceilings":[{"name":"AVX+FMA","value":4e10}],)"
        R"("bandwidth_ceilings":[{"name":"read","value":13241280991.8232}]}],)"
        R"("kernels":[{"kernel":"sum","oi":null,"perf":1654348232.7981515,)"
        R"("bound":"memory","available":false}],"phases":[]})",
        // Service submit envelope, as a standard client escapes it.
        R"({"spec": "name = fuzz\nmachine = small\n# caf\u00e9 \/ )"
        R"(\ud83d\ude42\nkernel = daxpy:n=4096\n"})",
    };
    rfl::Rng rng(20261019);
    int accepted = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        std::string input = corpus[rng.nextBounded(corpus.size())];
        const int edits = static_cast<int>(rng.nextBounded(8)) + 1;
        for (int e = 0; e < edits; ++e)
            mutate(input, rng);
        Json v;
        if (!Json::tryParse(input, &v))
            continue;
        ++accepted;
        const std::string once = v.dump();
        Json again;
        ASSERT_TRUE(Json::tryParse(once, &again)) << "input: " << input;
        ASSERT_EQ(again.dump(), once) << "input: " << input;
    }
    // The budget must exercise the accept path, not only rejection.
    EXPECT_GT(accepted, 1000);
}

} // namespace
