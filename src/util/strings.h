// Small string helpers shared by config parsing and reporting code.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace manet::util {

/// Splits on a delimiter; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> split(std::string_view s, char delim);

/// Strips leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Lower-cases ASCII.
std::string to_lower(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// Joins items with a separator.
std::string join(const std::vector<std::string>& items, std::string_view sep);

/// Parses a comma-separated list of doubles ("10,25.5,50"). Throws CheckError
/// on malformed input.
std::vector<double> parse_double_list(std::string_view s);

/// Parses all of `s` as a finite number (strtod syntax); nullopt for empty,
/// partial ("1x"), infinite or NaN input. The one rule for numbers read
/// from outside the program — flags, config and mobility files — where an
/// infinite horizon never ends and a NaN coordinate poisons every result.
std::optional<double> parse_finite(const std::string& s);

}  // namespace manet::util
