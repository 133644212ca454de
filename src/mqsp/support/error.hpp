#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace mqsp {

/// Base class for all errors raised by the mqsp library.
class Error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// Raised when an argument violates a documented precondition
/// (e.g. a qudit dimension < 2, a state vector of mismatched length).
class InvalidArgumentError : public Error {
public:
    using Error::Error;
};

/// Raised when an internal invariant is violated. Seeing this exception
/// indicates a bug in the library, not in the caller.
class InternalError : public Error {
public:
    using Error::Error;
};

namespace detail {
[[noreturn]] inline void throwInvalidArgument(std::string_view message) {
    throw InvalidArgumentError(std::string(message));
}
[[noreturn]] inline void throwInternal(std::string_view message) {
    throw InternalError(std::string(message));
}
} // namespace detail

/// Check a caller-facing precondition; throws InvalidArgumentError on failure.
///
/// The message is a view: the owning string is built only on the throwing
/// path, so a passing check with a string literal costs one branch. Checks
/// on hot paths (per-element accessors, per-amplitude kernels) must pass a
/// literal; a concatenated message is built by the caller on every call,
/// pass or fail.
inline void requireThat(bool condition, std::string_view message) {
    if (!condition) {
        detail::throwInvalidArgument(message);
    }
}

/// Check an internal invariant; throws InternalError on failure. The
/// message contract is the same as requireThat's.
inline void ensureThat(bool condition, std::string_view message) {
    if (!condition) {
        detail::throwInternal(message);
    }
}

} // namespace mqsp
