/**
 * @file
 * JSON string escaping shared by every hand-written JSON emitter.
 */

#ifndef RFL_SUPPORT_JSON_HH
#define RFL_SUPPORT_JSON_HH

#include <string>

namespace rfl
{

/**
 * Escape @p s for embedding in a JSON double-quoted string: quote,
 * backslash, \n, \t and \r get their short escapes, every other
 * control character becomes \u00XX. Other bytes pass through, so UTF-8
 * stays UTF-8.
 */
std::string jsonEscape(const std::string &s);

} // namespace rfl

#endif // RFL_SUPPORT_JSON_HH
