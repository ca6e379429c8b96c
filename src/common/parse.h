// Checked number parsing for untrusted text: command-line flags,
// environment knobs, result rows and summary files all go through the same
// whole-token test.
#ifndef NUMALP_SRC_COMMON_PARSE_H_
#define NUMALP_SRC_COMMON_PARSE_H_

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace numalp {

// `text` as a T when the whole token is one number (no sign on unsigned
// types, no leading '+', no whitespace, no trailing characters); nullopt
// otherwise. Floating-point tokens may be "inf" or "nan", the forms
// std::to_chars writes.
template <typename T>
std::optional<T> ParseToken(std::string_view text) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) {
    return std::nullopt;
  }
  return value;
}

// ParseToken, further limited to [lo, hi].
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T lo, T hi) {
  const std::optional<T> value = ParseToken<T>(text);
  if (!value || !(*value >= lo && *value <= hi)) {
    return std::nullopt;
  }
  return value;
}

// Stores a ParseToken/ParseNumber result in `out`; false, leaving `out`
// unchanged, when parsing failed.
template <typename T>
bool AssignParsed(const std::optional<T>& parsed, T& out) {
  if (parsed) {
    out = *parsed;
  }
  return parsed.has_value();
}

}  // namespace numalp

#endif  // NUMALP_SRC_COMMON_PARSE_H_
