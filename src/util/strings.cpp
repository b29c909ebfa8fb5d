#include "util/strings.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/assert.h"

namespace manet::util {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      return out;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

std::string join(const std::vector<std::string>& items, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += items[i];
  }
  return out;
}

std::vector<double> parse_double_list(std::string_view s) {
  std::vector<double> out;
  for (const auto& part : split(s, ',')) {
    const auto t = trim(part);
    MANET_CHECK(!t.empty(), "empty item in list '" << s << "'");
    const std::string item(t);
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    MANET_CHECK(end == item.c_str() + item.size(),
                "not a number: '" << item << "' in '" << s << "'");
    out.push_back(v);
  }
  return out;
}

std::optional<double> parse_finite(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

}  // namespace manet::util
