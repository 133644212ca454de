#pragma once

// FNV-1a over 64-bit words, byte by byte: the digest the identity suites
// pin whole outputs with.

#include <bit>
#include <cstdint>

namespace mqsp {

class Fnv1a {
public:
    void add(std::uint64_t word) noexcept {
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (word >> (8 * byte)) & 0xFFU;
            hash_ *= 0x100000001b3ULL;
        }
    }
    /// A double by its bit pattern.
    void add(double value) noexcept { add(std::bit_cast<std::uint64_t>(value)); }

    [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

} // namespace mqsp
