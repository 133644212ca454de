#include "mqsp/support/mixed_radix.hpp"

#include "mqsp/support/error.hpp"
#include "mqsp/support/parse.hpp"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <limits>
#include <sstream>
#include <string_view>

namespace mqsp {

MixedRadix::MixedRadix(Dimensions dimensions) : dimensions_(std::move(dimensions)) {
    requireThat(!dimensions_.empty(), "MixedRadix: dimension list must not be empty");
    strides_.assign(dimensions_.size(), 1);
    // Strides are computed least-significant-first; stride of the last qudit is 1.
    for (std::size_t i = dimensions_.size(); i-- > 0;) {
        const auto dim = dimensions_[i];
        requireThat(dim >= 2, "MixedRadix: every qudit dimension must be >= 2");
        if (i + 1 < dimensions_.size()) {
            strides_[i] = strides_[i + 1] * dimensions_[i + 1];
        }
        const auto maxTotal = std::numeric_limits<std::uint64_t>::max();
        requireThat(total_ <= maxTotal / dim, "MixedRadix: total dimension overflows 64 bits");
        total_ *= dim;
    }
}

Dimension MixedRadix::dimensionAt(std::size_t site) const {
    requireThat(site < dimensions_.size(), "MixedRadix::dimensionAt: site out of range");
    return dimensions_[site];
}

std::uint64_t MixedRadix::strideAt(std::size_t site) const {
    requireThat(site < strides_.size(), "MixedRadix::strideAt: site out of range");
    return strides_[site];
}

std::uint64_t MixedRadix::indexOf(const Digits& digits) const {
    requireThat(digits.size() == dimensions_.size(),
                "MixedRadix::indexOf: digit count does not match qudit count");
    std::uint64_t index = 0;
    for (std::size_t i = 0; i < digits.size(); ++i) {
        requireThat(digits[i] < dimensions_[i], "MixedRadix::indexOf: digit exceeds dimension");
        index += static_cast<std::uint64_t>(digits[i]) * strides_[i];
    }
    return index;
}

Digits MixedRadix::digitsOf(std::uint64_t index) const {
    requireThat(index < total_, "MixedRadix::digitsOf: index out of range");
    Digits digits(dimensions_.size(), 0);
    for (std::size_t i = 0; i < dimensions_.size(); ++i) {
        digits[i] = static_cast<Level>(index / strides_[i]);
        index %= strides_[i];
    }
    return digits;
}

Level MixedRadix::digitAt(std::uint64_t index, std::size_t site) const {
    requireThat(index < total_, "MixedRadix::digitAt: index out of range");
    requireThat(site < dimensions_.size(), "MixedRadix::digitAt: site out of range");
    return static_cast<Level>((index / strides_[site]) % dimensions_[site]);
}

bool MixedRadix::increment(Digits& digits) const {
    requireThat(digits.size() == dimensions_.size(),
                "MixedRadix::increment: digit count does not match qudit count");
    for (std::size_t i = digits.size(); i-- > 0;) {
        if (++digits[i] < dimensions_[i]) {
            return true;
        }
        digits[i] = 0;
    }
    return false;
}

std::string MixedRadix::toKetString(const Digits& digits) {
    std::ostringstream out;
    out << '|';
    for (std::size_t i = 0; i < digits.size(); ++i) {
        if (i > 0) {
            out << ' ';
        }
        out << digits[i];
    }
    out << '>';
    return out.str();
}

bool MixedRadix::isUniform() const noexcept {
    for (const auto dim : dimensions_) {
        if (dim != dimensions_.front()) {
            return false;
        }
    }
    return true;
}

namespace {

/// Characters a dimension spec may carry anywhere and that parsing drops.
[[nodiscard]] bool isIgnorable(char ch) noexcept {
    return ch == '[' || ch == ']' || std::isspace(static_cast<unsigned char>(ch)) != 0;
}

/// "parseDimensionSpec: <what> in entry '<entry>'", for the failure paths.
[[nodiscard]] std::string inEntry(std::string_view what, std::string_view entry) {
    std::string message("parseDimensionSpec: ");
    message += what;
    message += " in entry '";
    message += parse::clipForMessage(entry);
    message += '\'';
    return message;
}

} // namespace

Dimensions parseDimensionSpec(const std::string& spec) {
    // Parsed in place when the spec has nothing to drop; every message is
    // built only on the path that throws it.
    std::string stripped;
    std::string_view cleaned = spec;
    if (std::any_of(spec.begin(), spec.end(), isIgnorable)) {
        std::copy_if(spec.begin(), spec.end(), std::back_inserter(stripped),
                     [](char ch) { return !isIgnorable(ch); });
        cleaned = stripped;
    }
    requireThat(!cleaned.empty(), "parseDimensionSpec: empty specification");

    // Untrusted text: both fields parse strictly (whole token, no sign
    // wrapping) and bound-check before they size anything, so "2xq",
    // "-3x2", or "9999999999x2" all fail with an actionable message
    // instead of a bare stoull exception or a wrapped allocation.
    // Entries are split at commas; a single trailing comma ends the list.
    constexpr std::uint64_t kMaxQudits = 1U << 20U;
    Dimensions dims;
    for (std::size_t begin = 0; begin < cleaned.size();) {
        const std::size_t comma = std::min(cleaned.find(',', begin), cleaned.size());
        const std::string_view entry = cleaned.substr(begin, comma - begin);
        begin = comma + 1;
        requireThat(!entry.empty(), "parseDimensionSpec: empty entry in specification");
        const auto cross = entry.find_first_of("xX*");
        std::uint64_t count = 1;
        std::string_view dimText = entry;
        if (cross != std::string_view::npos) {
            const std::string_view countText = entry.substr(0, cross);
            dimText = entry.substr(cross + 1);
            if (countText.empty() || dimText.empty()) {
                detail::throwInvalidArgument("parseDimensionSpec: malformed CountxDimension entry '" +
                                             parse::clipForMessage(entry) +
                                             "' (expected Count x Dimension)");
            }
            const auto parsedCount = parse::tryUint64(countText);
            if (!parsedCount) {
                parse::refuse(inEntry("count", entry), "a non-negative integer", countText);
            }
            count = *parsedCount;
            if (count < 1) {
                detail::throwInvalidArgument(inEntry("count must be >= 1", entry));
            }
        }
        const auto dim = parse::tryUint64(dimText);
        if (!dim) {
            parse::refuse(inEntry("dimension", entry), "a non-negative integer", dimText);
        }
        if (*dim < 2) {
            detail::throwInvalidArgument(inEntry("dimension must be >= 2", entry));
        }
        if (*dim > std::numeric_limits<Dimension>::max()) {
            detail::throwInvalidArgument(inEntry("dimension overflows", entry));
        }
        if (count > kMaxQudits || dims.size() + count > kMaxQudits) {
            detail::throwInvalidArgument(inEntry(
                "register exceeds " + std::to_string(kMaxQudits) + " qudits", entry));
        }
        dims.insert(dims.end(), static_cast<std::size_t>(count), static_cast<Dimension>(*dim));
    }
    requireThat(!dims.empty(), "parseDimensionSpec: no dimensions parsed");
    return dims;
}

std::string formatDimensionSpec(const Dimensions& dimensions) {
    std::ostringstream out;
    out << '[';
    std::size_t i = 0;
    bool first = true;
    while (i < dimensions.size()) {
        std::size_t j = i;
        while (j < dimensions.size() && dimensions[j] == dimensions[i]) {
            ++j;
        }
        if (!first) {
            out << ',';
        }
        out << (j - i) << 'x' << dimensions[i];
        first = false;
        i = j;
    }
    out << ']';
    return out.str();
}

} // namespace mqsp
