#pragma once

#include "mqsp/circuit/circuit.hpp"

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>

namespace mqsp {

/// Emit a circuit in the mqsp QASM dialect — a human-readable, line-oriented
/// format in the spirit of the qudit dialects used by qudit toolkits:
///
/// ```
/// MQSPQASM 1.0;
/// // optional comments
/// qreg q[3] = [3, 6, 2];            // most significant site first
/// rxy q[0] (0, 1, 1.9106, 0.0);     // Givens R_{0,1}(theta, phi)
/// rz  q[1] (2, 3, -0.7854);         // two-level phase Z_{2,3}(theta)
/// h   q[0];                         // generalized Hadamard
/// x   q[2] (+1);                    // cyclic shift
/// swp q[1] (0, 4);                  // exact two-level transposition
/// rxy q[1] (0, 1, 3.1416, 1.5708) ctl q[0]=2, q[2]=1;
/// ```
///
/// Angles are finite and printed as printf's "%.17g", so they round-trip
/// exactly, subnormals included. Writes toQasm(circuit); the stream's
/// formatting flags are left as they were.
void emitQasm(std::ostream& out, const Circuit& circuit);

/// The dialect text of `circuit`.
[[nodiscard]] std::string toQasm(const Circuit& circuit);

/// Incremental MQSP-QASM reader: the streaming counterpart of parseQasm.
///
/// Construction consumes the header and the qreg declaration eagerly (so
/// dimensions() is available immediately and a malformed preamble fails
/// fast); each next() call then reads exactly one gate statement from the
/// underlying stream. State is one line of text plus the register geometry
/// — O(1) in the circuit length — so circuits whose full text exceeds
/// memory replay gate-by-gate straight off a pipe or socket.
///
/// Every yielded operation is validated against the declared register
/// (validateOperation) before it is returned. Errors — syntax, numeric
/// range, and register-admissibility alike — throw InvalidArgumentError
/// with the same line-numbered "parseQasm: line N: ..." messages the
/// whole-circuit parser produces.
class GateStream final : public OperationSource {
public:
    /// Parse the header + qreg preamble of `in`; the stream must outlive
    /// this reader.
    explicit GateStream(std::istream& in);

    /// The declared register.
    [[nodiscard]] const Dimensions& dimensions() const override { return radix_.dimensions(); }
    [[nodiscard]] const MixedRadix& radix() const noexcept { return radix_; }

    /// Parse and validate the next gate statement; nullopt once the stream
    /// is exhausted (eof() turns true).
    [[nodiscard]] std::optional<Operation> next() override;

    /// True once the underlying stream has run out of statements.
    [[nodiscard]] bool eof() const noexcept { return eof_; }

    /// Gates successfully yielded so far.
    [[nodiscard]] std::uint64_t opsRead() const noexcept { return opsRead_; }

    /// 1-based number of the last line read (error messages cite it).
    [[nodiscard]] std::size_t lineNumber() const noexcept { return lineNumber_; }

private:
    /// Read the next line that still has content after comment stripping
    /// into the line buffer (which keeps its capacity from line to line)
    /// and return that content as a view into it; empty at the end.
    std::string_view nextStatement();

    std::istream* in_;
    MixedRadix radix_;
    std::string line_;
    std::size_t lineNumber_ = 0;
    std::uint64_t opsRead_ = 0;
    bool eof_ = false;
};

/// Parse the dialect emitted by emitQasm. Accepts arbitrary whitespace,
/// full-line and trailing `//` comments, and validates every site, level
/// and control against the declared register. Throws InvalidArgumentError
/// with a line-numbered message on malformed input. Implemented as a thin
/// drain of a GateStream — the incremental reader is the parser.
[[nodiscard]] Circuit parseQasm(std::istream& in);

/// Parse from a string.
[[nodiscard]] Circuit parseQasmString(const std::string& text);

/// Parse ONE gate statement (no header, no qreg) against an already-known
/// register — the entry point for delta surfaces such as the serve APPEND
/// verb, where single gates arrive long after the register was declared.
/// `lineNumber` seeds the "parseQasm: line N: ..." error prefix (default 1
/// for standalone statements). The returned operation has been validated
/// against `radix`.
[[nodiscard]] Operation parseQasmStatement(const std::string& text, const MixedRadix& radix,
                                           std::size_t lineNumber = 1);

} // namespace mqsp
