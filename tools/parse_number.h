// Strict decimal parsing for the command-line tools' numeric arguments.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace lw::tools {

// The value of `text` if all of it is a decimal integer in [min, max];
// nullopt if it is empty, has anything after the digits, or is out of
// range.
inline std::optional<long> ParseNumber(std::string_view text, long min,
                                       long max) {
  long value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

}  // namespace lw::tools
