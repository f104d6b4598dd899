/**
 * @file
 * Seeded mutation fuzz over the campaign spec parser
 * (campaign/spec.hh). A spec is untrusted input: POST /v1/campaigns
 * hands the request body to parseCampaignSpec() in a daemon that runs
 * with fatal() throwing. Every mutated spec must either be rejected
 * with FatalError or parse to a spec whose stableHash() a second parse
 * of the same text reproduces. Inputs that once broke the parser are
 * kept as regression inputs.
 */

#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "campaign/spec.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace
{

using namespace rfl;
using namespace rfl::campaign;

/** Valid specs that between them use every key and variant option. */
const char *const kCorpus[] = {
    "name = fuzz\n"
    "machine = small\n"
    "kernel = daxpy:n=4096\n"
    "kernel = sum:n=4096\n"
    "variant = cold-1c: protocol=cold cores=0 reps=1\n"
    "variant = warm-1c: protocol=warm cores=0 reps=2 warmups=1\n",

    "name = grid # comment\n"
    "machine = default\n"
    "machine = small\n"
    "timeout = 2.5\n"
    "kernel = dgemm-blocked:n=64,block=16\n"
    "kernel = spmv-csr:rows=256,nnz=4\n"
    "trace = triad:n=1024\n"
    "phase = daxpy:n=2048 period=256\n"
    "variant = v: protocol=cold cores=0-1 reps=3 lanes=2 fma=off "
    "flush=on overhead=no seed=7 numa=socket0 prefetch=off\n"
    "backend = sim\n"
    "backend = perf\n",

    "machine = scalar\n"
    "kernel = pointer-chase:nodes=64,hops=0\n"
    "phase = fft:n=1024\n"
    "variant = i: cores=0 numa=interleave prefetch=1 seed=0x10\n",

    "machine = small\n"
    "kernel = dot:n=512\n"
    "phase = stencil3:n=256 period=64\n"
    "variant = i: cores=0,1 warmups=0 lanes=0\n",
};

/**
 * Inputs that once broke the parser, or that it accepted and a run then
 * aborted on; each must now be rejected.
 */
const char *const kRegressions[] = {
    // A core range was expanded one id at a time before any bound was
    // checked: 2^31 ids asked for 8 GiB and threw std::bad_alloc.
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=00-2147483647\n",
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=0-99999999999\n",
    // Ranges that each pass the id bound still may not add up past it.
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=0-40000,0-40000\n",
    // Accepted, then the measure job failed an assertion: a panic,
    // which aborts the daemon too.
    "machine = small\nkernel = sum:n=64\nvariant = v: cores=0 reps=0\n",
    "machine = small\nkernel = sum:n=64\nvariant = v: cores=0 lanes=-3\n",
    "machine = small\nkernel = sum:n=64\nvariant = v: cores=0 lanes=3\n",
    // Accepted, then the run's deadline overflowed and every job failed
    // with "deadline exceeded".
    "machine = small\ntimeout = inf\nkernel = sum:n=64\n"
    "variant = v: cores=0\n",
    // Accepted as another value: reps=1, and seed=LONG_MAX.
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=0 reps=4294967297\n",
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=0 seed=99999999999999999999\n",
    // Accepted and run as if the key were absent.
    "machine = small\ntimeout = nan\nkernel = sum:n=64\n"
    "variant = v: cores=0\n",
    "machine = small\nkernel = sum:n=64\n"
    "variant = v: cores=0 warmups=-1\n",
};

/** One random edit of @p s: byte flip, token insert, delete,
 *  duplicate, or a value replaced by a token. */
void
mutate(std::string &s, Rng &rng)
{
    static const std::string kTokens[] = {
        "=", ":", "#", "\n", ",", "-", " ", "0", "-1", "1", "0x7f",
        "4294967296", "99999999999", "-9223372036854775808", "nan",
        "inf", "1e400", "0-3", "0-2147483647", "3-0", "on", "off",
        "cold", "warm", "socket0", "n=", "period=", "cores=", "reps=",
        "lanes=", "trace:", "machine = small\n", "kernel = dot:n=8\n",
        "variant = x: cores=0\n", "name = \n", "backend = perf\n",
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
        s.insert(pos, s.substr(pos, rng.nextBounded(48) + 1));
        break;
      case 4: {
        // Swap the value after a '=' for a token, so the edit reaches
        // a value parser rather than the line grammar.
        const size_t eq = s.find('=', pos);
        if (eq == std::string::npos)
            break;
        const size_t end = s.find_first_of(" \n,", eq + 1);
        s.replace(eq + 1, end == std::string::npos ? end : end - eq - 1,
                  token);
        break;
      }
    }
}

/** @return whether @p text parses; its hash goes to @p hash. */
bool
parses(const std::string &text, uint64_t *hash)
{
    try {
        *hash = parseCampaignSpec(text).stableHash();
        return true;
    } catch (const FatalError &) {
        return false;
    }
}

class SpecFuzz : public ::testing::Test
{
  protected:
    // The service parses specs with fatal() throwing.
    void SetUp() override { previous_ = setFatalThrows(true); }
    void TearDown() override { setFatalThrows(previous_); }

  private:
    bool previous_ = false;
};

TEST_F(SpecFuzz, EverySpecIsRejectedOrHashesStably)
{
    Rng rng(20261022);
    int parsed = 0;
    constexpr int kIterations = 20000;
    for (int iter = 0; iter < kIterations; ++iter) {
        std::string input = kCorpus[rng.nextBounded(std::size(kCorpus))];
        const int edits = static_cast<int>(rng.nextBounded(2)) + 1;
        for (int e = 0; e < edits; ++e)
            mutate(input, rng);
        uint64_t first = 0;
        bool ok = false;
        ASSERT_NO_THROW(ok = parses(input, &first)) << "input: " << input;
        if (!ok)
            continue;
        ++parsed;
        uint64_t second = 0;
        ASSERT_TRUE(parses(input, &second)) << "input: " << input;
        ASSERT_EQ(first, second) << "input: " << input;
    }
    // The budget must reach accepted specs, not only rejections (most
    // single edits break a line of the grammar).
    EXPECT_GT(parsed, 400) << parsed;
}

TEST_F(SpecFuzz, CorpusParses)
{
    for (const char *input : kCorpus) {
        uint64_t hash = 0;
        EXPECT_TRUE(parses(input, &hash)) << input;
    }
}

TEST_F(SpecFuzz, RegressionInputsAreRejected)
{
    for (const char *input : kRegressions) {
        uint64_t hash = 0;
        EXPECT_FALSE(parses(input, &hash)) << input;
    }
}

} // namespace
