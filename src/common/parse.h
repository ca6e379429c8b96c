// Checked number parsing for untrusted text: command-line flags and
// environment knobs go through the same whole-token, in-range test.
#ifndef NUMALP_SRC_COMMON_PARSE_H_
#define NUMALP_SRC_COMMON_PARSE_H_

#include <charconv>
#include <cstring>
#include <optional>
#include <system_error>

namespace numalp {

// `text` as a T when the whole token is one number (no sign on unsigned
// types, no whitespace, no trailing characters) within [lo, hi]; nullopt
// otherwise.
template <typename T>
std::optional<T> ParseNumber(const char* text, T lo, T hi) {
  const char* end = text + std::strlen(text);
  T value{};
  const auto [stop, error] = std::from_chars(text, end, value);
  if (error != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace numalp

#endif  // NUMALP_SRC_COMMON_PARSE_H_
