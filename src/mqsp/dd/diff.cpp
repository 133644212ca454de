#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/support/error.hpp"

#include <vector>

namespace mqsp::dd {

DiagramDiffStats diffDiagrams(const DecisionDiagram& a, const DecisionDiagram& b) {
    requireThat(a.sharesStoreWith(b),
                "diffDiagrams: diagrams live on different stores — NodeRefs are only "
                "comparable within one session");
    const std::size_t pool = std::max(a.poolSize(), b.poolSize());
    std::vector<bool> inA(pool, false);
    std::vector<bool> inB(pool, false);
    for (const NodeRef ref : a.reachableNodes()) {
        inA[ref] = true;
    }
    for (const NodeRef ref : b.reachableNodes()) {
        inB[ref] = true;
    }
    DiagramDiffStats stats;
    for (std::size_t ref = 0; ref < pool; ++ref) {
        if (inA[ref]) {
            ++stats.nodesA;
        }
        if (inB[ref]) {
            ++stats.nodesB;
        }
        if (inA[ref] && inB[ref]) {
            ++stats.shared;
        } else if (inB[ref]) {
            ++stats.added;
        } else if (inA[ref]) {
            ++stats.removed;
        }
    }
    return stats;
}

} // namespace mqsp::dd
