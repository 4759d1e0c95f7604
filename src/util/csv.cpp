#include "util/csv.h"

#include <algorithm>

namespace enviromic::util {

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\r\n") == std::string::npos) return s;
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::vector<std::string> split_commas(std::string_view s) {
  std::vector<std::string> cells;
  for (std::size_t pos = 0; pos <= s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    cells.emplace_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return cells;
}

}  // namespace enviromic::util
