// DD-native construction of the structured benchmark families (§5 of the
// paper): GHZ, W, embedded W, basis, uniform, cyclic and Dicke states
// assembled directly as decision diagrams. No dense amplitude vector is ever
// allocated, so these run on registers whose total dimension exceeds memory
// by orders of magnitude — the target-construction half of breaking the
// dense O(∏dims) verification ceiling (the simulation half is
// DecisionDiagram::applyOperation, replayed on a session by the backend
// layer in sim/backend.hpp).
//
// Each builder computes its weights in the splitter's order: its leaf edges
// carry the dense amplitude exactly as `states::` computes it (1/sqrt of
// the term count), and every node is normalized bottom-up by the splitter's
// own DecisionDiagram::normalizedNode — squares summed in index order, then
// the same divisions. On a session a builder therefore returns bit for bit
// the diagram `fromStateVector` returns on the family's dense vector, root
// weight included, and synthesis from either source emits the same circuit
// (pinned by the cross-validation suite and the dd-backend golden CLI
// fixtures). uniformState, cyclicState and dickeState plan their reduced
// (DAG) form directly: their tree forms are combinatorial (the full dense
// tree / one chain per shift / one leaf per fixed-weight term), so they
// never ask the store to merge them.
//
// Each family has one builder, and it takes an optional session. With one
// the diagram is built on the session's shared store, so identical
// sub-trees are built once per session, whatever diagram asked first
// (dd/unique_table.hpp); without one it gets a fresh store at the default
// tolerance and comes out exactly as on a fresh session. W and embedded W
// share one body, wFamilyState.

#include "mqsp/dd/decision_diagram.hpp"

#include "mqsp/states/states.hpp"
#include "mqsp/support/error.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace mqsp {

namespace {

/// The store a builder allocates on: the session's, or a fresh one at the
/// default tolerance (a fresh session's) without a session.
[[nodiscard]] std::shared_ptr<dd::DdNodeStore> storeOf(const dd::DdSession* session) {
    return session != nullptr ? session->store()
                              : std::make_shared<dd::DdNodeStore>(Tolerance::kDefault);
}

/// Number of excitation levels each qudit contributes to a W-family state:
/// levels 1..d_i-1 for the full W state, level 1 only for the embedded one.
[[nodiscard]] Dimension excitationLevels(bool embedded, Dimension dim) {
    return embedded ? Dimension{1} : dim - 1;
}

/// The terminal edge of one term of an equal superposition of `terms`
/// basis states: the amplitude `states::` gives it, 1/sqrt(terms).
[[nodiscard]] DDEdge termLeaf(std::uint64_t terms) {
    return DDEdge{/*terminal=*/0, Complex{1.0 / std::sqrt(static_cast<double>(terms)), 0.0}};
}

} // namespace

DecisionDiagram DecisionDiagram::basisState(const Dimensions& dims, const Digits& digits,
                                            const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);
    requireThat(digits.size() == dd.radix_.numQudits(),
                "DecisionDiagram::basisState: digit count mismatch");

    // Weight-1 chain, built bottom-up: site n-1 points at the terminal.
    DDEdge below = termLeaf(1);
    for (std::size_t site = dd.radix_.numQudits(); site-- > 0;) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        requireThat(digits[site] < dim,
                    "DecisionDiagram::basisState: digit exceeds dimension");
        std::vector<DDEdge> edges(dim);
        edges[digits[site]] = below;
        below = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
    }
    dd.root_ = below.node;
    dd.rootWeight_ = below.weight;
    return dd;
}

DecisionDiagram DecisionDiagram::ghzState(const Dimensions& dims, const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);
    const std::size_t n = dd.radix_.numQudits();
    const Dimension m = *std::min_element(dims.begin(), dims.end());

    // One chain |k k ... k> per branch k < m; the chains differ per k, so
    // the store merges nothing here.
    std::vector<DDEdge> rootEdges(dd.radix_.dimensionAt(0));
    for (Dimension k = 0; k < m; ++k) {
        DDEdge below = termLeaf(m);
        for (std::size_t site = n; site-- > 1;) {
            std::vector<DDEdge> edges(dd.radix_.dimensionAt(site));
            edges[k] = below;
            below = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
        }
        rootEdges[k] = below;
    }
    const DDEdge root = dd.normalizedNode(0, rootEdges);
    dd.root_ = root.node;
    dd.rootWeight_ = root.weight;
    return dd;
}

/// Shared W-family builder. With T_i the number of W terms contributed by
/// sites i..n-1, the node at site i carries edge 0 -> (W sub-state on the
/// suffix, a zero stub when T_{i+1} = 0) and one edge per excitation level
/// l -> an all-|0> chain ending in one term's amplitude.
DecisionDiagram DecisionDiagram::wFamilyState(const Dimensions& dims, bool embedded,
                                              const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);
    const std::size_t n = dd.radix_.numQudits();

    // Suffix term counts T_i (T_n = 0).
    std::vector<std::uint64_t> suffixTerms(n + 1, 0);
    for (std::size_t site = n; site-- > 0;) {
        suffixTerms[site] =
            suffixTerms[site + 1] + excitationLevels(embedded, dd.radix_.dimensionAt(site));
    }
    const DDEdge leaf = termLeaf(suffixTerms[0]);

    // All-|0> suffix chain below `site`; the store interns every later
    // request for the same suffix into the first one's nodes.
    const auto zeroChain = [&dd, n, leaf](std::size_t site) -> DDEdge {
        DDEdge below = leaf;
        for (std::size_t s = n; s-- > site;) {
            std::vector<DDEdge> edges(dd.radix_.dimensionAt(s));
            edges[0] = below;
            below = dd.normalizedNode(static_cast<std::uint32_t>(s), edges);
        }
        return below;
    };

    // Build the W spine bottom-up.
    DDEdge spine{};
    for (std::size_t site = n; site-- > 0;) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        std::vector<DDEdge> edges(dim);
        edges[0] = spine;
        for (Dimension l = 1; l <= excitationLevels(embedded, dim); ++l) {
            edges[l] = zeroChain(site + 1);
        }
        spine = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
    }
    dd.root_ = spine.node;
    dd.rootWeight_ = spine.weight;
    return dd;
}

DecisionDiagram DecisionDiagram::wState(const Dimensions& dims, const dd::DdSession* session) {
    return wFamilyState(dims, /*embedded=*/false, session);
}

DecisionDiagram DecisionDiagram::embeddedWState(const Dimensions& dims,
                                                const dd::DdSession* session) {
    return wFamilyState(dims, /*embedded=*/true, session);
}

DecisionDiagram DecisionDiagram::uniformState(const Dimensions& dims,
                                              const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);

    // One shared chain: the node at site s has d_s edges, all pointing at
    // the same child — already the reduced (DAG) form.
    DDEdge below = termLeaf(dd.radix_.totalDimension());
    for (std::size_t site = dd.radix_.numQudits(); site-- > 0;) {
        std::vector<DDEdge> edges(dd.radix_.dimensionAt(site), below);
        below = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
    }
    dd.root_ = below.node;
    dd.rootWeight_ = below.weight;
    return dd;
}

/// Cyclic state as a DAG. Shift k produces the word ((start_i + k) mod
/// d_i)_i; shifts congruent modulo lcm(dims) produce the same word, so the
/// distinct shifts are 0..K-1 with K = min(count, lcm). The node deciding
/// site s for a surviving shift set S partitions S by the digit the shifts
/// put there and points edge v at the node of the part S_v; each distinct
/// word ends in one term's amplitude. Each level holds one node per
/// distinct surviving shift set, so the reduced tree and this DAG coincide
/// (the store also merges sets whose suffix words agree, as it does for the
/// split dense vector).
DecisionDiagram DecisionDiagram::cyclicState(const Dimensions& dims, const Digits& start,
                                             std::uint32_t count, const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);
    const std::size_t n = dd.radix_.numQudits();
    requireThat(start.size() == n, "DecisionDiagram::cyclicState: start word size mismatch");
    requireThat(count >= 1, "DecisionDiagram::cyclicState: need at least one shift");
    for (std::size_t site = 0; site < n; ++site) {
        requireThat(start[site] < dd.radix_.dimensionAt(site),
                    "DecisionDiagram::cyclicState: start digit exceeds dimension");
    }

    // Distinct shifts: the requested count, capped at lcm(dims).
    const std::uint32_t numShifts = std::min(count, states::distinctCyclicShifts(dims));

    std::vector<std::uint32_t> allShifts(numShifts);
    for (std::uint32_t k = 0; k < numShifts; ++k) {
        allShifts[k] = k;
    }

    // Level-synchronous build: each level partitions its distinct shift
    // sets by the digit the shifts put there and deduplicates the parts
    // first-seen, then the nodes are allocated bottom-up in that canonical
    // order — so a session's allocation order, and with it every downstream
    // NodeRef-keyed metric, is a function of the state alone.
    std::vector<std::vector<std::uint32_t>> sets{std::move(allShifts)};
    // plans[s][i][v]: child set index at level s+1; kNoNode = structural zero.
    std::vector<std::vector<std::vector<std::uint32_t>>> plans(n);
    for (std::size_t site = 0; site < n; ++site) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        std::map<std::vector<std::uint32_t>, std::uint32_t> index;
        std::vector<std::vector<std::uint32_t>> next;
        plans[site].resize(sets.size());
        for (std::size_t i = 0; i < sets.size(); ++i) {
            std::vector<std::vector<std::uint32_t>> parts(dim);
            for (const std::uint32_t k : sets[i]) {
                parts[(start[site] + k) % dim].push_back(k);
            }
            plans[site][i].assign(dim, kNoNode);
            for (Dimension v = 0; v < dim; ++v) {
                std::vector<std::uint32_t>& part = parts[v];
                if (part.empty()) {
                    continue;
                }
                const auto [it, inserted] =
                    index.try_emplace(part, static_cast<std::uint32_t>(next.size()));
                if (inserted) {
                    next.push_back(std::move(part));
                }
                plans[site][i][v] = it->second;
            }
        }
        sets = std::move(next);
    }
    // Bottom-up allocation: every surviving set at level n is one word,
    // ending in the terminal.
    std::vector<DDEdge> below(sets.size(), termLeaf(numShifts));
    for (std::size_t site = n; site-- > 0;) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        std::vector<DDEdge> nodes(plans[site].size());
        for (std::size_t i = 0; i < plans[site].size(); ++i) {
            std::vector<DDEdge> edges(dim);
            for (Dimension v = 0; v < dim; ++v) {
                if (const std::uint32_t child = plans[site][i][v]; child != kNoNode) {
                    edges[v] = below[child];
                }
            }
            nodes[i] = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
        }
        below = std::move(nodes);
    }
    dd.root_ = below[0].node;
    dd.rootWeight_ = below[0].weight;
    return dd;
}

/// Dicke state as the standard (site, remaining-weight) DAG: the node for
/// (s, w) decides site s with w excitation weight still to place; edge l
/// points at (s+1, w-l) whenever N(s+1, w-l) > 0, where N(s, w) counts the
/// suffix digit-strings of sum w, and each of the N(0, weight) terms ends in
/// one term's amplitude. Every tree node of the
/// dense construction whose prefix sums to the same value is structurally
/// identical, so the reduced tree collapses to exactly this DAG — the
/// family where cross-diagram sharing pays most, since replay intermediates
/// revisit the same (s, w) blocks.
DecisionDiagram DecisionDiagram::dickeState(const Dimensions& dims, std::uint64_t weight,
                                            const dd::DdSession* session) {
    DecisionDiagram dd(storeOf(session), dims);
    const std::size_t n = dd.radix_.numQudits();

    // Reject unreachable weights before sizing the DP tables by `weight`.
    requireThat(weight <= states::maxDickeWeight(dims),
                "DecisionDiagram::dickeState: no basis state has the requested weight");

    // N(s, w) for w <= weight, bottom-up. N(n, 0) = 1.
    std::vector<std::vector<std::uint64_t>> counts(n + 1,
                                                   std::vector<std::uint64_t>(weight + 1, 0));
    counts[n][0] = 1;
    for (std::size_t site = n; site-- > 0;) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        for (std::uint64_t w = 0; w <= weight; ++w) {
            std::uint64_t total = 0;
            for (Dimension level = 0; level < dim && level <= w; ++level) {
                total += counts[site + 1][w - level];
            }
            counts[site][w] = total;
        }
    }
    requireThat(counts[0][weight] > 0,
                "DecisionDiagram::dickeState: no basis state has the requested weight");

    // Level-synchronous build: the reachable remaining-weight sets are
    // computed forward from the root, then the nodes are allocated
    // bottom-up in ascending-weight order within each level — a canonical
    // order fixed by the state alone.
    std::vector<std::vector<std::uint64_t>> reach(n + 1);
    reach[0] = {weight};
    for (std::size_t site = 0; site < n; ++site) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        std::vector<char> mark(weight + 1, 0);
        for (const std::uint64_t w : reach[site]) {
            for (Dimension level = 0; level < dim && level <= w; ++level) {
                if (counts[site + 1][w - level] > 0) {
                    mark[w - level] = 1;
                }
            }
        }
        for (std::uint64_t w = 0; w <= weight; ++w) {
            if (mark[w] != 0) {
                reach[site + 1].push_back(w);
            }
        }
    }
    // Level n: the terminal, reached by every term.
    std::vector<DDEdge> below(reach[n].size(), termLeaf(counts[0][weight]));
    for (std::size_t site = n; site-- > 0;) {
        const Dimension dim = dd.radix_.dimensionAt(site);
        std::vector<std::uint32_t> childIndex(weight + 1,
                                              std::numeric_limits<std::uint32_t>::max());
        for (std::size_t i = 0; i < reach[site + 1].size(); ++i) {
            childIndex[reach[site + 1][i]] = static_cast<std::uint32_t>(i);
        }
        std::vector<DDEdge> nodes(reach[site].size());
        for (std::size_t i = 0; i < reach[site].size(); ++i) {
            const std::uint64_t w = reach[site][i];
            std::vector<DDEdge> edges(dim);
            for (Dimension level = 0; level < dim && level <= w; ++level) {
                if (counts[site + 1][w - level] > 0) {
                    edges[level] = below[childIndex[w - level]];
                }
            }
            nodes[i] = dd.normalizedNode(static_cast<std::uint32_t>(site), edges);
        }
        below = std::move(nodes);
    }
    dd.root_ = below[0].node;
    dd.rootWeight_ = below[0].weight;
    return dd;
}

} // namespace mqsp
