#include "mqsp/states/family.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"

#include <algorithm>
#include <array>
#include <utility>

namespace mqsp::states {

std::optional<Family> familyNamed(std::string_view name) noexcept {
    static constexpr std::array<std::pair<std::string_view, Family>, 7> kNames{{
        {"ghz", Family::Ghz},
        {"w", Family::W},
        {"embw", Family::EmbW},
        {"uniform", Family::Uniform},
        {"dicke", Family::Dicke},
        {"cyclic", Family::Cyclic},
        {"random", Family::Random},
    }};
    for (const auto& [known, family] : kNames) {
        if (name == known) {
            return family;
        }
    }
    return std::nullopt;
}

FamilySpec defaultSpec(Family family, const Dimensions& dims) {
    FamilySpec spec;
    spec.family = family;
    spec.weight = std::min<std::uint64_t>(2, maxDickeWeight(dims));
    spec.count = distinctCyclicShifts(dims);
    return spec;
}

StateVector makeDenseState(const FamilySpec& spec, const Dimensions& dims) {
    switch (spec.family) {
    case Family::Ghz:
        return ghz(dims);
    case Family::W:
        return wState(dims);
    case Family::EmbW:
        return embeddedWState(dims);
    case Family::Uniform:
        return uniform(dims);
    case Family::Dicke:
        return dicke(dims, spec.weight);
    case Family::Cyclic:
        return cyclic(dims, Digits(dims.size(), 0), spec.count);
    case Family::Random: {
        Rng rng(spec.seed);
        return random(dims, rng);
    }
    }
    detail::throwInternal("makeDenseState: unhandled family");
}

DecisionDiagram makeDiagram(const FamilySpec& spec, const Dimensions& dims,
                            const dd::DdSession* session) {
    switch (spec.family) {
    case Family::Ghz:
        return DecisionDiagram::ghzState(dims, session);
    case Family::W:
        return DecisionDiagram::wState(dims, session);
    case Family::EmbW:
        return DecisionDiagram::embeddedWState(dims, session);
    case Family::Uniform:
        return DecisionDiagram::uniformState(dims, session);
    case Family::Dicke:
        return DecisionDiagram::dickeState(dims, spec.weight, session);
    case Family::Cyclic:
        return DecisionDiagram::cyclicState(dims, Digits(dims.size(), 0), spec.count, session);
    case Family::Random:
        return DecisionDiagram::fromStateVector(makeDenseState(spec, dims),
                                                Tolerance::kDefault, session);
    }
    detail::throwInternal("makeDiagram: unhandled family");
}

} // namespace mqsp::states
