// Shared CSV field quoting (RFC-4180): one rule for every CSV emitter.
//
// The console-table printer and the fleet report builder each grew their own
// quoting lambda with subtly different trigger sets (the table quoted
// newlines, the fleet did not). Every emitter now goes through csv_escape:
// a field containing a comma, a double quote, or a newline is wrapped in
// quotes with embedded quotes doubled; anything else passes through
// untouched, so existing numeric output is byte-identical.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace enviromic::util {

/// Returns `s` quoted per RFC 4180 when it contains ',', '"', '\r', or
/// '\n'; returns it unchanged otherwise.
std::string csv_escape(const std::string& s);

/// Split at every ',' with no unquoting: for cells that are never quoted
/// (gauge names, number literals) and k=v lists. "" yields one empty cell.
std::vector<std::string> split_commas(std::string_view s);

}  // namespace enviromic::util
