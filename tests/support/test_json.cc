/** @file Unit tests for the shared JSON string escaper. */

#include <gtest/gtest.h>

#include "support/json.hh"

namespace
{

TEST(JsonEscape, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(rfl::jsonEscape("plain"), "plain");
    EXPECT_EQ(rfl::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(rfl::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(rfl::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(rfl::jsonEscape(std::string("a\x01" "b")), "a\\u0001b");
}

} // namespace
