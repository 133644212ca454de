#pragma once

// Strict numeric parsing for untrusted text: CLI flag values, dimension
// specs, circuit files, and mqsp_serve protocol lines all route through
// these helpers instead of raw std::stoull/std::stod. The contract is
// whole-token or nothing — leading signs on unsigned fields, trailing
// junk, embedded whitespace, and empty tokens are all rejected instead of
// being wrapped, truncated, or surfaced as bare stdlib exceptions.

#include "mqsp/support/error.hpp"

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace mqsp::parse {

/// Parse `text` as a base-10 non-negative integer consuming the whole
/// token. Returns nullopt on empty input, any sign character, trailing
/// junk, or overflow past 64 bits.
[[nodiscard]] inline std::optional<std::uint64_t> tryUint64(std::string_view text) noexcept {
    if (text.empty() || text.front() == '-' || text.front() == '+') {
        return std::nullopt;
    }
    std::uint64_t value = 0;
    const auto* first = text.data();
    const auto* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value, 10);
    if (ec != std::errc{} || ptr != last) {
        return std::nullopt;
    }
    return value;
}

/// Parse `text` as a floating-point number consuming the whole token.
/// Accepts the usual fixed/scientific spellings (including a leading
/// sign); returns nullopt on empty input, trailing junk, or range errors.
[[nodiscard]] inline std::optional<double> tryDouble(std::string_view text) noexcept {
    if (text.empty()) {
        return std::nullopt;
    }
    double value = 0.0;
    const auto* first = text.data();
    const auto* last = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last) {
        return std::nullopt;
    }
    return value;
}

/// Truncate overlong untrusted text and mask control bytes before quoting
/// it in an error message: a pathological input must not balloon the
/// diagnostic, and an embedded newline or escape sequence must not break a
/// line-oriented reply (mqsp_serve answers exactly one line per command)
/// or garble a terminal.
[[nodiscard]] inline std::string clipForMessage(std::string_view text,
                                                std::size_t maxLength = 96) {
    std::string out(text.substr(0, maxLength));
    for (char& ch : out) {
        const auto byte = static_cast<unsigned char>(ch);
        if (byte < 0x20 || byte == 0x7F) {
            ch = '?';
        }
    }
    if (text.size() > maxLength) {
        out += "...";
    }
    return out;
}

/// Throw the refusal of a malformed field: "<context> expects <expected>,
/// got '<text, clipped>'". Every parse:: refusal is worded this way.
[[noreturn]] inline void refuse(std::string_view context, std::string_view expected,
                                std::string_view text) {
    std::string message(context);
    message += " expects ";
    message += expected;
    message += ", got '";
    message += clipForMessage(text);
    message += '\'';
    detail::throwInvalidArgument(message);
}

/// Throwing wrapper around tryUint64: `context` names the field (flag,
/// spec entry, protocol option) for the error message, which is built only
/// when the parse fails — a passing parse allocates nothing.
[[nodiscard]] inline std::uint64_t uint64(std::string_view text, std::string_view context) {
    const auto value = tryUint64(text);
    if (!value) {
        refuse(context, "a non-negative integer", text);
    }
    return *value;
}

/// Throwing wrapper around tryDouble; `context` names the field.
[[nodiscard]] inline double real(std::string_view text, std::string_view context) {
    const auto value = tryDouble(text);
    if (!value) {
        refuse(context, "a number", text);
    }
    return *value;
}

} // namespace mqsp::parse
