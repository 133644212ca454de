#include "mqsp/dd/unique_table.hpp"

#include "mqsp/dd/decision_diagram.hpp"
#include "mqsp/support/error.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <new>
#include <unordered_set>
#include <utility>

#if defined(__SANITIZE_ADDRESS__)
#define MQSP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MQSP_ASAN 1
#endif
#endif
#if defined(MQSP_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mqsp::dd {

// --- spare blocks ----------------------------------------------------------

namespace {

void poison([[maybe_unused]] void* block, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(MQSP_ASAN)
    __asan_poison_memory_region(block, bytes);
#endif
}

void unpoison([[maybe_unused]] void* block, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(MQSP_ASAN)
    __asan_unpoison_memory_region(block, bytes);
#endif
}

struct SpareList;

/// The 16 bytes in front of every block: the list of the thread that took
/// it, and the link while it waits on that list.
struct BlockHeader {
    SpareList* owner;
    BlockHeader* next;
};
static_assert(sizeof(BlockHeader) == 16, "blocks stay 16-byte aligned");

[[nodiscard]] BlockHeader* headerOf(void* block) noexcept {
    return static_cast<BlockHeader*>(block) - 1;
}

/// One thread's retired blocks, binned by exact size (each bin a LIFO list
/// linked through the block headers). Trivially destructible, so it stays
/// readable while other thread-locals and statics are destroyed;
/// `SpareReaper` frees the blocks at thread exit and closes the list.
struct SpareList {
    struct Bin {
        std::size_t bytes = 0;
        BlockHeader* head = nullptr;
    };
    /// Distinct block sizes kept: pool blocks double, edge blocks have one
    /// size (or one per operator arity past a block), caches one per slot
    /// count. A block whose size no bin holds while every bin is taken is
    /// freed.
    static constexpr std::size_t kBins = 32;

    std::array<Bin, kBins> bins{};
    detail::SpareBlockStats stats{};
    bool closed = false;
};
thread_local SpareList tlsSpare;

struct SpareReaper {
    SpareReaper() = default;
    SpareReaper(const SpareReaper&) = delete;
    SpareReaper& operator=(const SpareReaper&) = delete;
    ~SpareReaper() {
        for (SpareList::Bin& bin : tlsSpare.bins) {
            while (bin.head != nullptr) {
                BlockHeader* header = bin.head;
                bin.head = header->next;
                unpoison(header + 1, bin.bytes);
                ::operator delete(header);
            }
        }
        tlsSpare.stats.heldBytes = 0;
        tlsSpare.closed = true;
    }
};

} // namespace

void* detail::takeBlock(std::size_t bytes) {
    SpareList& list = tlsSpare;
    for (SpareList::Bin& bin : list.bins) {
        if (bin.bytes == bytes && bin.head != nullptr) {
            BlockHeader* header = bin.head;
            bin.head = header->next;
            unpoison(header + 1, bytes);
            list.stats.heldBytes -= bytes;
            ++list.stats.reused;
            return header + 1;
        }
    }
    ++list.stats.allocated;
    auto* header = static_cast<BlockHeader*>(::operator new(sizeof(BlockHeader) + bytes));
    header->owner = &list;
    return header + 1;
}

void detail::retireBlock(void* block, std::size_t bytes) noexcept {
    SpareList& list = tlsSpare;
    BlockHeader* header = headerOf(block);
    // Only the taking thread keeps a block: a thread that retires what
    // others took (a serve GC collecting its workers' nodes) would hold
    // blocks it never takes again.
    if (header->owner == &list && !list.closed &&
        list.stats.heldBytes + bytes <= kSpareBlockCapBytes) {
        // Registers the thread-exit cleanup with the first retired block.
        thread_local SpareReaper reaper;
        SpareList::Bin* home = nullptr;
        for (SpareList::Bin& bin : list.bins) {
            if (bin.bytes == bytes) {
                home = &bin;
                break;
            }
            if (home == nullptr && bin.head == nullptr) {
                home = &bin; // an empty bin, claimed unless one of this size follows
            }
        }
        if (home != nullptr) {
            home->bytes = bytes;
            header->next = home->head;
            home->head = header;
            list.stats.heldBytes += bytes;
            poison(block, bytes);
            return;
        }
    }
    ::operator delete(header);
}

detail::SpareBlockStats detail::spareBlockStats() noexcept {
    return tlsSpare.stats;
}

// --- UniqueTable -----------------------------------------------------------

namespace {

/// splitmix64-style finalizer: cheap, well-distributed for sequential refs.
[[nodiscard]] std::uint64_t mix64(std::uint64_t v) noexcept {
    v += 0x9e3779b97f4a7c15ULL;
    v = (v ^ (v >> 30U)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27U)) * 0x94d049bb133111ebULL;
    return v ^ (v >> 31U);
}

/// One key edge folded into the running key hash: the edge's three fields
/// spread by independent multiplies (off the dependency chain), then one
/// multiply-xorshift round of the running hash. The finalizer in
/// `bucketKey` supplies the avalanche, so this round only has to keep
/// distinct edge sequences apart.
[[nodiscard]] std::uint64_t foldEdge(std::uint64_t h, NodeRef child, std::int64_t re,
                                     std::int64_t im) noexcept {
    const std::uint64_t word = child ^ (static_cast<std::uint64_t>(re) * 0xd6e8feb86659fd93ULL) ^
                               (static_cast<std::uint64_t>(im) * 0xc2b2ae3d27d4eb4fULL);
    h = (h ^ word) * 0x9fb21c651e98df25ULL;
    return h ^ (h >> 28U);
}

/// Quotients below this magnitude name a bucket (see ComputeCache).
constexpr double kBucketLimit = 0x1p62;

[[nodiscard]] std::size_t roundUpPowerOfTwo(std::size_t v) noexcept {
    std::size_t cap = 1;
    while (cap < v) {
        cap <<= 1U;
    }
    return cap;
}

} // namespace

UniqueTable::UniqueTable(double tolerance) : tolerance_(tolerance) {
    requireThat(tolerance > 0.0, "UniqueTable: tolerance must be positive");
}

std::int64_t UniqueTable::bucketOf(double value, double tolerance) {
    return static_cast<std::int64_t>(std::llround(value / tolerance));
}

std::vector<UniqueTable::KeyEdge>& UniqueTable::scratchKey() noexcept {
    thread_local std::vector<KeyEdge> key;
    return key;
}

std::uint64_t UniqueTable::bucketKey(std::uint32_t site,
                                     std::span<const DDEdge> edges) const {
    std::vector<KeyEdge>& key = scratchKey();
    key.resize(edges.size());
    std::uint64_t h = site;
    for (std::size_t k = 0; k < edges.size(); ++k) {
        const KeyEdge edge{edges[k].node, bucketOf(edges[k].weight.real(), tolerance_),
                           bucketOf(edges[k].weight.imag(), tolerance_)};
        key[k] = edge;
        h = foldEdge(h, edge.child, edge.re, edge.im);
    }
    return mix64(h ^ (static_cast<std::uint64_t>(edges.size()) << 32U));
}

void UniqueTable::insert(Shard& shard, std::uint64_t hash, std::uint32_t site,
                         const KeyEdge* key, std::size_t arity, NodeRef value) {
    if (shard.slots.empty() || (shard.entries.size() + 1) * 10 >= shard.slots.size() * 7) {
        const std::size_t capacity =
            shard.slots.empty() ? kInitialShardCapacity : shard.slots.size() * 2;
        if (!shard.slots.empty()) {
            ++shard.stats.grows;
        }
        shard.slots.assign(capacity, 0);
        for (std::uint32_t index = 0; index < shard.entries.size(); ++index) {
            shard.slots[freeSlot(shard, shard.entries[index].hash)] = index + 1;
        }
    }
    const std::size_t offset = shard.keys.size();
    ensureThat(offset + arity <= std::numeric_limits<std::uint32_t>::max(),
               "UniqueTable: shard key storage exhausted");
    shard.keys.insert(shard.keys.end(), key, key + arity);
    shard.entries.push_back(Entry{hash, static_cast<std::uint32_t>(offset), site,
                                  static_cast<std::uint32_t>(arity), value});
    shard.slots[freeSlot(shard, hash)] = static_cast<std::uint32_t>(shard.entries.size());
}

std::size_t UniqueTable::freeSlot(const Shard& shard, std::uint64_t hash) noexcept {
    const std::size_t mask = shard.slots.size() - 1;
    std::size_t slot = static_cast<std::size_t>(hash) & mask;
    while (shard.slots[slot] != 0) {
        slot = (slot + 1) & mask;
    }
    return slot;
}

NodeRef UniqueTable::findOrInsert(std::uint32_t site, std::span<const DDEdge> edges,
                                  const detail::MakeNodeFnRef& makeFresh) {
    const std::uint64_t hash = bucketKey(site, edges);
    const KeyEdge* key = scratchKey().data();
    const std::size_t arity = edges.size();
    const std::size_t shardIndex = shardIndexOf(hash);
    Shard& shard = shards_[shardIndex];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ++shard.stats.lookups;
    if (!shard.slots.empty()) {
        const std::size_t mask = shard.slots.size() - 1;
        for (std::size_t slot = static_cast<std::size_t>(hash) & mask; shard.slots[slot] != 0;
             slot = (slot + 1) & mask) {
            const Entry& entry = shard.entries[shard.slots[slot] - 1];
            // KeyEdge has no padding, so equal keys are equal bytes.
            if (entry.hash == hash && entry.site == site && entry.arity == arity &&
                std::memcmp(&shard.keys[entry.keyOffset], key, arity * sizeof(KeyEdge)) == 0) {
                ++shard.stats.hits;
                return entry.value;
            }
            ++shard.stats.probeSteps;
        }
    }
    ++shard.stats.misses;
    // Allocate under the shard lock and record the key before the lock is
    // released, so the next prober of this key sees the canonical entry.
    const NodeRef value = makeFresh(shardIndex);
    insert(shard, hash, site, key, arity, value);
    return value;
}

void UniqueTable::clear() {
    for (Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        // Keep the slot capacity (the rebuild re-inserts into a table of
        // comparable size) and the cumulative stats (a GC is not a reset
        // of the session's history).
        std::fill(shard.slots.begin(), shard.slots.end(), 0);
        shard.entries.clear();
        shard.keys.clear();
    }
}

void UniqueTable::restoreCanonical(std::uint32_t site, std::span<const DDEdge> edges,
                                   NodeRef value) {
    const std::uint64_t hash = bucketKey(site, edges);
    Shard& shard = shards_[shardIndexOf(hash)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    insert(shard, hash, site, scratchKey().data(), edges.size(), value);
}

UniqueTableStats UniqueTable::stats() const {
    UniqueTableStats total;
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        total.lookups += shard.stats.lookups;
        total.hits += shard.stats.hits;
        total.misses += shard.stats.misses;
        total.probeSteps += shard.stats.probeSteps;
        total.grows += shard.stats.grows;
    }
    return total;
}

std::size_t UniqueTable::size() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.entries.size();
    }
    return total;
}

std::size_t UniqueTable::capacity() const {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        total += shard.slots.size();
    }
    return total;
}

void UniqueTable::resetStats() {
    for (Shard& shard : shards_) {
        const std::lock_guard<std::mutex> lock(shard.mutex);
        shard.stats = UniqueTableStats{};
    }
}

// --- ComputeCache ----------------------------------------------------------

ComputeCache::ComputeCache(double tolerance, std::size_t slots)
    : tolerance_(tolerance),
      slotCount_(roundUpPowerOfTwo(slots)),
      // A stripe spans whole bitmap words: at most one stripe per word.
      stripeCount_(std::clamp<std::size_t>(slotCount_ / kSlotsPerWord, 1, kMaxStripes)),
      stripeShift_(static_cast<unsigned>(std::countr_zero(slotCount_) -
                                         std::countr_zero(stripeCount_))) {}

ComputeCache::~ComputeCache() {
    if (entries_ != nullptr) {
        detail::retireBlock(entries_, blockBytes());
    }
}

bool ComputeCache::bucketRatio(const Complex& ratio, std::int64_t& re,
                               std::int64_t& im) const noexcept {
    const double scaledRe = ratio.real() / tolerance_;
    const double scaledIm = ratio.imag() / tolerance_;
    // Written so that NaN fails too.
    if (!(std::abs(scaledRe) < kBucketLimit && std::abs(scaledIm) < kBucketLimit)) {
        return false;
    }
    re = std::llround(scaledRe);
    im = std::llround(scaledIm);
    return true;
}

std::size_t ComputeCache::slotOf(Op op, NodeRef x, NodeRef y, std::int64_t re,
                                 std::int64_t im) const noexcept {
    std::uint64_t h = mix64((static_cast<std::uint64_t>(x) << 32U) | y);
    h = mix64(h ^ static_cast<std::uint64_t>(re));
    h = mix64(h ^ static_cast<std::uint64_t>(im));
    h = mix64(h ^ static_cast<std::uint64_t>(op));
    return static_cast<std::size_t>(h) & (slotCount_ - 1);
}

bool ComputeCache::markValid(std::size_t slot) noexcept {
    std::uint64_t& word = valid_[slot / kSlotsPerWord];
    const std::uint64_t bit = std::uint64_t{1} << (slot % kSlotsPerWord);
    const bool was = (word & bit) != 0;
    word |= bit;
    return was;
}

void ComputeCache::ensureAllocated() {
    if (allocated_.load(std::memory_order_acquire)) {
        return;
    }
    const std::lock_guard<std::mutex> lock(allocMutex_);
    if (!allocated_.load(std::memory_order_relaxed)) {
        void* block = detail::takeBlock(blockBytes());
        entries_ = static_cast<Entry*>(block);
        valid_ = reinterpret_cast<std::uint64_t*>(entries_ + slotCount_);
        std::uninitialized_fill_n(valid_, bitmapWords(), std::uint64_t{0});
        // Release: the cleared bitmap is visible to any thread that
        // observes allocated_ == true before it dereferences the arrays.
        allocated_.store(true, std::memory_order_release);
    }
}

std::optional<ComputeCache::Result> ComputeCache::lookup(Op op, NodeRef x, NodeRef y,
                                                         const Complex& ratio) {
    lookups_.fetch_add(1, std::memory_order_relaxed);
    std::int64_t re = 0;
    std::int64_t im = 0;
    if (!allocated_.load(std::memory_order_acquire) || !bucketRatio(ratio, re, im)) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        return std::nullopt;
    }
    const std::size_t slot = slotOf(op, x, y, re, im);
    std::optional<Result> result;
    {
        const std::lock_guard<std::mutex> lock(stripeOf(slot));
        const Entry& entry = entries_[slot];
        if (isValid(slot) && entry.op == op && entry.x == x && entry.y == y &&
            entry.ratioRe == re && entry.ratioIm == im) {
            result = Result{entry.node, Complex{entry.valueRe, entry.valueIm}};
        }
    }
    if (result.has_value()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
        misses_.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
}

void ComputeCache::store(Op op, NodeRef x, NodeRef y, const Complex& ratio,
                         const Result& result) {
    std::int64_t re = 0;
    std::int64_t im = 0;
    if (!bucketRatio(ratio, re, im)) {
        return;
    }
    ensureAllocated();
    const std::size_t slot = slotOf(op, x, y, re, im);
    bool evicted = false;
    {
        const std::lock_guard<std::mutex> lock(stripeOf(slot));
        ::new (&entries_[slot]) Entry{x,  y,  re, im, result.node, op, result.value.real(),
                                      result.value.imag()};
        evicted = markValid(slot);
    }
    if (evicted) {
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::uint64_t ComputeCache::compact(const std::vector<NodeRef>& remap) {
    if (!allocated_.load(std::memory_order_acquire)) {
        return 0;
    }
    // Single-threaded (session GC runs at quiescence). Survivors must be
    // re-slotted: a slot index hashes the node refs, so an entry rewritten
    // in place would never be found under its new key.
    const auto mapped = [&remap](NodeRef ref) -> NodeRef {
        if (ref == kNoNode) {
            return kNoNode;
        }
        return ref < remap.size() ? remap[ref] : kNoNode;
    };
    std::uint64_t evicted = 0;
    std::vector<Entry> survivors;
    const std::size_t words = bitmapWords();
    for (std::size_t w = 0; w < words; ++w) {
        // Ascending slot order, as the re-slotting below depends on it.
        for (std::uint64_t bits = valid_[w]; bits != 0; bits &= bits - 1) {
            Entry entry = entries_[w * kSlotsPerWord + static_cast<std::size_t>(
                                                           std::countr_zero(bits))];
            const NodeRef x = mapped(entry.x);
            const NodeRef y = mapped(entry.y);
            const NodeRef node = mapped(entry.node);
            const bool dead = (entry.x != kNoNode && x == kNoNode) ||
                              (entry.y != kNoNode && y == kNoNode) ||
                              (entry.node != kNoNode && node == kNoNode);
            if (dead) {
                ++evicted;
                continue;
            }
            entry.x = x;
            entry.y = y;
            entry.node = node;
            survivors.push_back(entry);
        }
        valid_[w] = 0;
    }
    for (const Entry& survivor : survivors) {
        const std::size_t slot = slotOf(survivor.op, survivor.x, survivor.y, survivor.ratioRe,
                                        survivor.ratioIm);
        if (markValid(slot)) {
            ++evicted; // two survivors re-slotted to the same bucket
        }
        ::new (&entries_[slot]) Entry(survivor);
    }
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
}

ComputeCacheStats ComputeCache::stats() const noexcept {
    ComputeCacheStats stats;
    stats.lookups = lookups_.load(std::memory_order_relaxed);
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    return stats;
}

void ComputeCache::resetStats() noexcept {
    lookups_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
}

// --- DdNodeStore -----------------------------------------------------------

DdNodeStore::DdNodeStore(double tolerance) : table_(tolerance), cache_(tolerance) {
    // Pool slot 0 is the unique terminal node.
    pool_.append(DDNode{DDNode::kTerminalSite, {}});
}

DdNodeStore::~DdNodeStore() {
    retireEdgeBlocks(edgeBlocks_);
}

const DDNode& DdNodeStore::node(NodeRef ref) const {
    requireThat(ref < pool_.size(), "DecisionDiagram::node: invalid reference");
    return pool_.at(ref);
}

NodeRef DdNodeStore::allocate(std::uint32_t site, std::span<const DDEdge> edges) {
    ensureThat(pool_.size() < kNoNode, "DecisionDiagram: node pool exhausted");
    // The probe and the append are one step under the key's shard lock —
    // `makeFresh` runs only on a genuine miss, so exactly one node is ever
    // created per distinct structural key, however many batch items race on
    // it, and a hit writes nothing at all. The edges go to the shard's own
    // cursor, which only this shard's lock guards.
    const auto makeFresh = [&](std::size_t shard) -> NodeRef {
        return pool_.append(DDNode{site, copyEdges(cursors_[shard], edges)});
    };
    return table_.findOrInsert(site, edges, detail::MakeNodeFnRef(makeFresh));
}

std::span<DDEdge> DdNodeStore::copyEdges(EdgeCursor& cursor, std::span<const DDEdge> edges) {
    const std::size_t count = edges.size();
    if (count == 0) {
        return {};
    }
    DDEdge* at = nullptr;
    if (count > kEdgeBlockEdges) {
        at = newEdgeBlock(count);
    } else {
        if (static_cast<std::size_t>(cursor.end - cursor.next) < count) {
            cursor.next = newEdgeBlock(kEdgeBlockEdges);
            cursor.end = cursor.next + kEdgeBlockEdges;
        }
        at = cursor.next;
        cursor.next += count;
    }
    std::uninitialized_copy(edges.begin(), edges.end(), at);
    return {at, count};
}

DDEdge* DdNodeStore::newEdgeBlock(std::size_t count) {
    auto* edges = static_cast<DDEdge*>(detail::takeBlock(count * sizeof(DDEdge)));
    const std::lock_guard<std::mutex> lock(blockMutex_);
    edgeBlocks_.push_back(EdgeBlock{edges, count});
    return edges;
}

void DdNodeStore::retireEdgeBlocks(const std::vector<EdgeBlock>& blocks) noexcept {
    for (const EdgeBlock& block : blocks) {
        detail::retireBlock(block.edges, block.count * sizeof(DDEdge));
    }
}

std::vector<NodeRef> DdNodeStore::reachable(std::span<const NodeRef> roots) const {
    const std::size_t size = pool_.size();
    std::vector<bool> seen(size, false);
    std::vector<NodeRef> stack;
    for (const NodeRef root : roots) {
        if (root == kNoNode) {
            continue;
        }
        requireThat(root < size, "DdNodeStore::reachable: root outside the pool");
        if (!seen[root]) {
            seen[root] = true;
            stack.push_back(root);
        }
    }
    std::vector<NodeRef> result;
    while (!stack.empty()) {
        const NodeRef ref = stack.back();
        stack.pop_back();
        const DDNode& node = pool_.at(ref);
        if (node.isTerminal()) {
            continue;
        }
        result.push_back(ref);
        for (const DDEdge& edge : node.edges) {
            if (!edge.isZeroStub() && !seen[edge.node]) {
                seen[edge.node] = true;
                stack.push_back(edge.node);
            }
        }
    }
    return result;
}

DdNodeStore::CompactionStats DdNodeStore::compactLive(const std::vector<NodeRef>& roots,
                                                      std::vector<NodeRef>& remapOut) {
    CompactionStats stats;
    const std::size_t before = pool_.size();
    stats.nodesBefore = before;

    // Mark: everything the live roots reach; the terminal (slot 0) is
    // always live.
    std::vector<char> live(before, 0);
    live[0] = 1;
    for (const NodeRef ref : reachable(roots)) {
        live[ref] = 1;
    }

    // Remap in ascending old-ref order: survivors keep their relative
    // allocation order, so the compacted pool is deterministic whenever
    // the pre-GC pool was (the dd_nodes invariance contract survives GC).
    remapOut.assign(before, kNoNode);
    NodeRef next = 0;
    for (std::size_t ref = 0; ref < before; ++ref) {
        if (live[ref] != 0) {
            remapOut[ref] = next++;
        }
    }

    // Copy the survivors' edges, remapped, into fresh blocks in the same
    // order, then retire the old blocks whole and rebuild the pool and the
    // table over the survivors. Interning made refs canonical, so the remap
    // is injective on survivors and no two keys collapse.
    const std::vector<EdgeBlock> oldBlocks = std::exchange(edgeBlocks_, {});
    cursors_.fill(EdgeCursor{});
    EdgeCursor bump;
    std::vector<DDNode> kept;
    kept.reserve(next);
    for (std::size_t ref = 0; ref < before; ++ref) {
        if (live[ref] == 0) {
            continue;
        }
        const DDNode& node = pool_.at(static_cast<NodeRef>(ref));
        const std::span<DDEdge> edges = copyEdges(bump, node.edges);
        for (DDEdge& edge : edges) {
            if (!edge.isZeroStub()) {
                edge.node = remapOut[edge.node];
            }
        }
        kept.push_back(DDNode{node.site, edges});
    }
    retireEdgeBlocks(oldBlocks);
    pool_.clear();
    table_.clear();
    for (std::size_t newRef = 0; newRef < kept.size(); ++newRef) {
        const DDNode& node = kept[newRef];
        if (newRef != 0) { // the terminal is not a table key
            table_.restoreCanonical(node.site, node.edges, static_cast<NodeRef>(newRef));
        }
        pool_.append(node);
    }
    stats.nodesAfter = pool_.size();
    stats.cacheEvicted = cache_.compact(remapOut);
    return stats;
}

// --- DdSession -------------------------------------------------------------

DdSession::DdSession(double tolerance) : store_(std::make_shared<DdNodeStore>(tolerance)) {}

bool DdSession::owns(const DecisionDiagram& diagram) const noexcept {
    return diagram.store_ == store_;
}

DecisionDiagram DdSession::intern(const DecisionDiagram& diagram) const {
    if (owns(diagram)) {
        return diagram; // already session-backed: O(1) aliasing copy
    }
    // Sub-trees the session has seen before come back as table hits.
    return diagram.rebuiltOn(store_);
}

DdSessionGcStats DdSession::garbageCollect(const std::vector<DecisionDiagram*>& live) const {
    std::vector<NodeRef> roots;
    roots.reserve(live.size());
    for (DecisionDiagram* diagram : live) {
        requireThat(diagram != nullptr, "DdSession::garbageCollect: null live diagram");
        requireThat(owns(*diagram),
                    "DdSession::garbageCollect: live diagram is not backed by this session");
        if (diagram->root_ != kNoNode) {
            roots.push_back(diagram->root_);
        }
    }
    std::vector<NodeRef> remap;
    const auto compaction = store_->compactLive(roots, remap);
    // Remap each live diagram's root exactly once (the same object may be
    // listed twice; remapping twice would renumber through the new space).
    std::unordered_set<const DecisionDiagram*> remapped;
    for (DecisionDiagram* diagram : live) {
        if (!remapped.insert(diagram).second || diagram->root_ == kNoNode) {
            continue;
        }
        diagram->root_ = remap[diagram->root_];
        ensureThat(diagram->root_ != kNoNode,
                   "DdSession::garbageCollect: a live root was collected");
    }
    DdSessionGcStats stats;
    stats.nodesBefore = compaction.nodesBefore;
    stats.nodesAfter = compaction.nodesAfter;
    stats.cacheEntriesEvicted = compaction.cacheEvicted;
    stats.liveRoots = roots.size();
    return stats;
}

DdSessionStats DdSession::stats() const {
    DdSessionStats stats;
    stats.poolNodes = store_->size();
    stats.unique = store_->uniqueTable().stats();
    stats.cache = store_->computeCache().stats();
    return stats;
}

void DdSession::resetStats() {
    store_->uniqueTable().resetStats();
    store_->computeCache().resetStats();
}

} // namespace mqsp::dd
