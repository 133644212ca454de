#pragma once

// Minimal shared command-line helpers for the mqsp executables (the CLI
// tools and the benchmark harness). Flags are matched literally; values
// follow their flag as the next argv entry. Numeric parsers delegate to
// mqsp::parse — whole-token validation naming the offending flag instead
// of dying with a bare std::stoull exception.

#include "mqsp/support/error.hpp"
#include "mqsp/support/parallel.hpp"
#include "mqsp/support/parse.hpp"

#include <cstdint>
#include <optional>
#include <string>

namespace mqsp::cli {

/// The value following `flag`, or nullopt when the flag is absent. The last
/// occurrence wins so that appended overrides behave as expected.
inline std::optional<std::string> argValue(int argc, char** argv, const std::string& flag) {
    std::optional<std::string> value;
    for (int i = 1; i + 1 < argc; ++i) {
        if (flag == argv[i]) {
            value = std::string(argv[i + 1]);
        }
    }
    return value;
}

/// True when `flag` appears anywhere on the command line.
inline bool argFlag(int argc, char** argv, const std::string& flag) {
    for (int i = 1; i < argc; ++i) {
        if (flag == argv[i]) {
            return true;
        }
    }
    return false;
}

/// Parse a non-negative integer value for `flag`, or `fallback` when absent.
/// Throws InvalidArgumentError naming the flag on malformed input.
inline std::uint64_t argUint(int argc, char** argv, const std::string& flag,
                             std::uint64_t fallback) {
    const auto text = argValue(argc, argv, flag);
    if (!text) {
        return fallback;
    }
    return parse::uint64(*text, flag);
}

/// Parse a floating-point value for `flag`, or `fallback` when absent.
/// Throws InvalidArgumentError naming the flag on malformed input.
inline double argDouble(int argc, char** argv, const std::string& flag, double fallback) {
    const auto text = argValue(argc, argv, flag);
    if (!text) {
        return fallback;
    }
    return parse::real(*text, flag);
}

/// Parse `--threads N` (0 or absent = automatic; at most
/// parallel::kMaxThreads). Shared by the CLI tools and the bench harness so
/// the flag spells and validates identically everywhere.
inline unsigned argThreads(int argc, char** argv) {
    const auto text = argValue(argc, argv, "--threads");
    return text ? parallel::parseThreadCount(*text, "--threads") : 0;
}

/// Resolve and install the process-wide worker-thread count: `--threads N`
/// wins, else the MQSP_THREADS environment variable, else the hardware
/// concurrency. Returns the resolved count. Call once at tool startup,
/// before any simulation work.
inline unsigned configureThreads(int argc, char** argv) {
    parallel::setGlobalThreads(argThreads(argc, argv));
    return parallel::globalThreads();
}

} // namespace mqsp::cli
