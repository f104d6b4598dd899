/**
 * @file
 * Seeded mutation fuzz over the two environment-map parsers:
 * PerfEventBackend::parseEventMap (RFL_PERF_EVENTS) and failpoint::arm
 * (one RFL_FAILPOINTS entry). Each mutated input must either be
 * rejected, or be accepted with what it says: every perf type fits the
 * 32 bits of perf_event_attr.type without wrapping or truncation,
 * every failpoint probability lies in [0,1], and no failpoint count or
 * sleep saturated. The oracle re-reads the
 * accepted text independently of the parser. Inputs that the parsers
 * once accepted as another value are kept as regression inputs.
 */

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pmu/perf_backend.hh"
#include "support/failpoint.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl;

/** Valid RFL_PERF_EVENTS values. */
const char *const kEventCorpus[] = {
    "cycles=0:0",
    "fp_scalar_double=4:0x02c7,imc_cas_reads=21:0x304",
    " l3_misses = 3 : 0x10002 , instructions=0:1 ",
    "fp_256b_packed_double=4:0x20c7,,imc_cas_writes=4294967295:0xc04",
};

/** Valid failpoint action specs. */
const char *const kFailpointCorpus[] = {
    "error", "throw", "off", "sleep(25)", "error:p=0.5:count=3",
    "throw:count=1", "sleep(0):p=1", "error:p=0",
};

/** Inputs each parser once accepted as another value. */
const char *const kEventRegressions[] = {
    // strtoull accepts a sign and wraps it.
    "cycles=-1:0x3c",
    "cycles=0:-1",
    // The type was cast to 32 bits: this one mapped to type 0.
    "cycles=4294967296:0x3c",
};
const char *const kFailpointRegressions[] = {
    // NaN compares false against both bounds of [0,1].
    "error:p=nan",
    // strtol saturates out-of-range numbers to LONG_MAX.
    "error:count=99999999999999999999",
    "sleep(99999999999999999999)",
};

/** One random edit of @p s: byte flip, token insert, delete,
 *  duplicate, or a number replaced by a token. */
void
mutate(std::string &s, Rng &rng)
{
    static const std::string kTokens[] = {
        "=", ":", ",", "(", ")", " ", "-", "+", "0", "1", "-1", "0x",
        "0xffffffff", "4294967295", "4294967296", "9223372036854775808",
        "18446744073709551616", "99999999999999999999", "nan", "-nan",
        "inf", "1e400", "0.5", "1.0000001", "-0", "p=", "count=", "sleep(",
        "cycles=", "l3_misses=", "error", "throw",
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
        s.erase(pos, rng.nextBounded(4) + 1);
        break;
      case 3:
        s.insert(pos, s.substr(pos, rng.nextBounded(16) + 1));
        break;
      case 4: {
        // Swap the value after a '=' or ':' for a token, so the edit
        // reaches a number parser rather than the entry grammar.
        const size_t sep = s.find_first_of("=:", pos);
        if (sep == std::string::npos)
            break;
        const size_t end = s.find_first_of(",:", sep + 1);
        s.replace(sep + 1, end == std::string::npos ? end : end - sep - 1,
                  token);
        break;
      }
    }
}

/** @return @p s without leading and trailing spaces and tabs. */
std::string
trim(const std::string &s)
{
    const size_t b = s.find_first_not_of(" \t");
    if (b == std::string::npos)
        return "";
    return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/**
 * Check that @p number (a field of the accepted @p text) is an
 * unsigned number that fits 64 bits. @return its value.
 */
uint64_t
expectUnsigned(const std::string &number, const std::string &text)
{
    EXPECT_TRUE(!number.empty() && number[0] >= '0' && number[0] <= '9')
        << "input: " << text;
    errno = 0;
    const uint64_t v = std::strtoull(number.c_str(), nullptr, 0);
    EXPECT_EQ(errno, 0) << "input: " << text;
    return v;
}

/**
 * Check that the map @p text was accepted as what it says: one entry
 * per non-empty comma field, each type a number below 2^32 and each
 * config a number below 2^64, equal to the parsed ones.
 */
void
expectFaithfulEventMap(const std::string &text,
                       const std::vector<pmu::EventMapping> &out)
{
    size_t entry = 0, pos = 0;
    while (pos <= text.size()) {
        const size_t comma = text.find(',', pos);
        const std::string field = trim(text.substr(
            pos, comma == std::string::npos ? comma : comma - pos));
        pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
        if (field.empty())
            continue;
        ASSERT_LT(entry, out.size()) << "input: " << text;
        const size_t eq = field.find('=');
        const size_t colon = field.find(':', eq + 1);
        const uint64_t type = expectUnsigned(
            trim(field.substr(eq + 1, colon - eq - 1)), text);
        const uint64_t config =
            expectUnsigned(trim(field.substr(colon + 1)), text);
        if (::testing::Test::HasFailure())
            return;
        ASSERT_LE(type, UINT32_MAX) << "input: " << text;
        ASSERT_EQ(type, out[entry].type) << "input: " << text;
        ASSERT_EQ(config, out[entry].config) << "input: " << text;
        ++entry;
    }
    ASSERT_EQ(entry, out.size()) << "input: " << text;
}

/**
 * Check that the accepted @p spec says what it was taken as: every p=
 * modifier in [0,1], and every count= and sleep() number in range
 * (strtol saturates, setting ERANGE).
 */
void
expectModifiersInRange(const std::string &spec)
{
    const auto inRange = [](const std::string &number) {
        errno = 0;
        std::strtol(number.c_str(), nullptr, 10);
        return errno == 0;
    };
    if (spec.rfind("sleep(", 0) == 0)
        ASSERT_TRUE(inRange(spec.substr(6))) << "input: " << spec;
    size_t colon = spec.find(':');
    while (colon != std::string::npos) {
        const size_t begin = colon + 1;
        colon = spec.find(':', begin);
        const std::string mod = spec.substr(
            begin, colon == std::string::npos ? colon : colon - begin);
        if (mod.rfind("count=", 0) == 0)
            ASSERT_TRUE(inRange(mod.substr(6))) << "input: " << spec;
        if (mod.rfind("p=", 0) != 0)
            continue;
        const double p = std::strtod(mod.c_str() + 2, nullptr);
        ASSERT_TRUE(p >= 0.0 && p <= 1.0) << "input: " << spec;
    }
}

constexpr const char *kFuzzName = "fuzz.env_map";

/** @return whether failpoint::arm accepts @p spec (left disarmed). */
bool
arms(const std::string &spec)
{
    const bool ok = failpoint::arm(kFuzzName, spec);
    failpoint::disarm(kFuzzName);
    return ok;
}

constexpr int kIterations = 20000;

TEST(EnvMapFuzz, EventMapIsRejectedOrFaithful)
{
    Rng rng(20261023);
    int accepted = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        std::string input =
            kEventCorpus[rng.nextBounded(std::size(kEventCorpus))];
        const int edits = static_cast<int>(rng.nextBounded(2)) + 1;
        for (int e = 0; e < edits; ++e)
            mutate(input, rng);
        std::vector<pmu::EventMapping> out;
        if (!pmu::PerfEventBackend::parseEventMap(input, out))
            continue;
        ++accepted;
        expectFaithfulEventMap(input, out);
        if (HasFailure())
            return;
    }
    // The budget must reach accepted maps, not only rejections.
    EXPECT_GT(accepted, 1000) << accepted;
}

TEST(EnvMapFuzz, FailpointSpecIsRejectedOrInRange)
{
    Rng rng(20261024);
    int accepted = 0;
    for (int iter = 0; iter < kIterations; ++iter) {
        std::string input =
            kFailpointCorpus[rng.nextBounded(std::size(kFailpointCorpus))];
        const int edits = static_cast<int>(rng.nextBounded(2)) + 1;
        for (int e = 0; e < edits; ++e)
            mutate(input, rng);
        if (!arms(input))
            continue;
        ++accepted;
        expectModifiersInRange(input);
        if (HasFailure())
            return;
    }
    EXPECT_GT(accepted, 1000) << accepted;
}

TEST(EnvMapFuzz, CorpusIsAccepted)
{
    for (const char *input : kEventCorpus) {
        std::vector<pmu::EventMapping> out;
        EXPECT_TRUE(pmu::PerfEventBackend::parseEventMap(input, out))
            << input;
    }
    for (const char *input : kFailpointCorpus)
        EXPECT_TRUE(arms(input)) << input;
}

TEST(EnvMapFuzz, RegressionInputsAreRejected)
{
    for (const char *input : kEventRegressions) {
        std::vector<pmu::EventMapping> out;
        EXPECT_FALSE(pmu::PerfEventBackend::parseEventMap(input, out))
            << input;
    }
    for (const char *input : kFailpointRegressions)
        EXPECT_FALSE(arms(input)) << input;
}

} // namespace
