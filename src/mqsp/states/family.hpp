#pragma once

// The named state families the front ends build by name — `mqsp_prep
// --state` and serve's `PREP:<family>` — with their defaults and both of
// their builders, so the two front ends map every name to the same dense
// vector and the same diagram. Each front end keeps its own parameter
// syntax and error wording.

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/statevec/state_vector.hpp"
#include "mqsp/support/rng.hpp"

#include <cstdint>
#include <optional>
#include <string_view>

namespace mqsp::states {

enum class Family : std::uint8_t { Ghz, W, EmbW, Uniform, Dicke, Cyclic, Random };

/// The family called `name` ("ghz", "w", "embw", "uniform", "dicke",
/// "cyclic", "random"), or nullopt.
[[nodiscard]] std::optional<Family> familyNamed(std::string_view name) noexcept;

/// A family with its parameters resolved against one register.
struct FamilySpec {
    Family family = Family::Ghz;
    std::uint64_t weight = 0;               ///< Dicke excitation weight
    std::uint32_t count = 0;                ///< cyclic shift count
    std::uint64_t seed = Rng::kDefaultSeed; ///< random amplitudes
};

/// `family` with its defaults on `dims`: Dicke weight min(2,
/// maxDickeWeight(dims)) — which keeps the term count, and with it the
/// circuit, quadratic in the register size — every distinct cyclic shift
/// of |0...0>, and the library seed.
[[nodiscard]] FamilySpec defaultSpec(Family family, const Dimensions& dims);

/// The family's dense amplitude vector.
[[nodiscard]] StateVector makeDenseState(const FamilySpec& spec, const Dimensions& dims);

/// The family's diagram on `session`'s store when one is given, else on a
/// fresh store at the default tolerance. Structured families are built
/// natively (never through a dense vector); Random splits its dense vector
/// through DecisionDiagram::fromStateVector, so it needs the dense vector
/// to fit in memory.
[[nodiscard]] DecisionDiagram makeDiagram(const FamilySpec& spec, const Dimensions& dims,
                                          const dd::DdSession* session = nullptr);

} // namespace mqsp::states
