// Whole-token number parsing, shared by the CLI options (cli/args.hpp)
// and the bench knobs in the environment (ScenarioConfig::from_env): a
// value is a number only if all of it is, so "4x", "-1" for a count or
// "5000000000" for a 32-bit field never parse to something else.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <string_view>
#include <type_traits>

namespace vp::util {

/// The whole of `text` as a number: nullopt for "two", "4x", "", an
/// out-of-range value, NaN or an infinity. Unsigned types refuse "-1".
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  const char* end = text.data() + text.size();
  T value{};
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || last != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

/// `text` as a count, depth or port: a whole number in [0, max].
template <std::integral T>
std::optional<T> parse_count(std::string_view text,
                             T max = std::numeric_limits<T>::max()) {
  using Unsigned = std::make_unsigned_t<T>;
  const auto value = parse_number<Unsigned>(text);
  if (!value || *value > static_cast<Unsigned>(max)) return std::nullopt;
  return static_cast<T>(*value);
}

}  // namespace vp::util
