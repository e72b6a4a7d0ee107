/**
 * @file
 * Driver output: the one checked path from a rendered document to a
 * file, and the CSV row every CSV output is rendered with.
 */

#ifndef CRYOWIRE_UTIL_OUTPUT_HH
#define CRYOWIRE_UTIL_OUTPUT_HH

#include <string>
#include <string_view>
#include <vector>

namespace cryo
{

/**
 * Create or truncate @p path, write @p bytes and close it. When the
 * open, a write or the close fails, fatal() naming the path and the
 * OS reason, so a full disk or a missing directory never passes for
 * a written file.
 */
void writeFile(const std::string &path, std::string_view bytes);

/**
 * One CSV record: @p cells joined by commas and ended by '\n'. A cell
 * holding a comma, a double quote or a newline is quoted, with its
 * quotes doubled (RFC 4180); any other cell is written as it is.
 */
std::string csvRow(const std::vector<std::string> &cells);

} // namespace cryo

#endif // CRYOWIRE_UTIL_OUTPUT_HH
