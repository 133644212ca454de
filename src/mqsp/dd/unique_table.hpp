#pragma once

// Decision-diagram memory: the node types shared by every DD file — state
// diagrams and the operator diagrams of mdd/ alike — a sharded
// open-addressed uniquing table that hash-conses nodes at allocation time,
// a striped direct-mapped compute cache for the recursive DD addition, and
// the `DdSession` that owns a store for the lifetime of a backend.
//
// One node store, `DdNodeStore`, in one allocation regime: every store
// interns. A store is shared by every diagram that allocates on it — a
// `DdSession`'s targets, replayed states and per-gate intermediates, the
// operators a `DdBackend` compiles, or the fresh store one builder call
// (`fromStateVector`, `fromStateVectorDense`, a session-less structured
// builder, `approximate`, `deserialize`, the copy `serialize` writes)
// builds its result on. Allocation goes through the uniquing
// table, so a structurally identical sub-tree is built once per store no
// matter how many diagrams request it, and every diagram comes out
// canonical (reduced) by construction. Lifetime is owned by the store's
// holders, not by any one diagram.
//
// A node is immutable once allocated, so copies of a diagram alias its
// store. There is one way onto each store: every builder takes an optional
// session (its store, else a fresh one), and one rebuild,
// DecisionDiagram::rebuiltOn, moves an existing diagram — behind
// DdSession::intern and serialize. Every allocation goes through the
// table's one `findOrInsert`, and every walk over the nodes a set of roots
// reaches goes through `DdNodeStore::reachable`.
//
// Concurrency model (the multicore substrate behind verifyBatch):
//
//  * The table is split into kShardCount shards selected by the top bits of
//    the key hash (slot probing uses the low bits, so shard choice and slot
//    distribution are independent). findOrInsert takes the owning shard's
//    mutex, so concurrent batch items intern into one shared pool and a
//    distinct structural key maps to exactly one NodeRef regardless of
//    interleaving. Single-threaded users take the same uncontended locks.
//  * Nodes live in a chunked pool with geometrically growing blocks, and
//    their edges in fixed-size edge blocks the store owns; neither a node
//    nor its edges ever move once allocated, so readers follow NodeRefs out
//    of edges without any pool-wide lock. Block pointers are published
//    with release/acquire ordering; a NodeRef itself is only ever obtained
//    through a shard mutex (allocation) or from the edges of a node that
//    was, so the writes constructing a node and its edges happen-before
//    every read of them by mutex-chain transitivity. The memory-ordering
//    contract is spelled out in docs/ARCHITECTURE.md ("DD session memory").
//  * A fresh interned node's edges go into its shard's current edge block,
//    under the shard lock findOrInsert already holds; only taking a new
//    block takes the store's block-list lock.
//  * The compute cache synchronizes entry access with striped mutexes and
//    keeps its counters in relaxed atomics; entries are copied out whole
//    under the stripe lock, so a concurrent overwrite can cost a hit but
//    never tears a Result. Entry validity lives in a bitmap whose every
//    word belongs to exactly one stripe.
//
// Block memory (node-pool blocks, edge blocks, compute-cache arrays) comes
// from, and goes back to, a per-thread spare list (detail::takeBlock /
// detail::retireBlock), so a session that follows another on the same
// thread reuses memory that is already mapped instead of faulting in
// fresh pages.

#include "mqsp/complexnum/complex.hpp"
#include "mqsp/support/mixed_radix.hpp"

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

namespace mqsp {

class DecisionDiagram;

/// Handle into a node pool (a DdNodeStore).
using NodeRef = std::uint32_t;

/// Sentinel for an absent child: the edge weight is zero and the whole
/// sub-space below carries no amplitude ("zero stub"). Zero-amplitude
/// sub-trees are never materialized (§4.2: they produce no operations).
inline constexpr NodeRef kNoNode = std::numeric_limits<NodeRef>::max();

/// An out-edge: destination node plus complex weight. An edge whose
/// destination is the terminal carries the (normalized) leaf amplitude.
/// `pruned` distinguishes a slot emptied by the approximation pass from a
/// structurally zero slot of the original state: the paper's approximated
/// node count drops when leaves are pruned but keeps counting structural
/// zeros (compare GHZ vs random rows of Table 1).
struct DDEdge {
    NodeRef node = kNoNode;
    Complex weight{0.0, 0.0};
    bool pruned = false;

    [[nodiscard]] bool isZeroStub() const noexcept { return node == kNoNode; }
};

/// A decision-diagram node. `site` is the qudit this node decides
/// (0 = most significant / root level). A state node at site s has exactly
/// dim(s) out-edges; an operator node (mdd/MatrixDD) has dim(s)^2, in
/// row-major order. The unique terminal node is marked by
/// site == kTerminalSite and has no edges.
///
/// The node does not own its edges: `edges` views a run of an edge block
/// owned by the node's DdNodeStore, valid for the store's lifetime (until
/// a session GC renumbers the node). Nobody writes them after allocation.
struct DDNode {
    static constexpr std::uint32_t kTerminalSite = std::numeric_limits<std::uint32_t>::max();

    std::uint32_t site = 0;
    std::span<const DDEdge> edges;

    [[nodiscard]] bool isTerminal() const noexcept { return site == kTerminalSite; }
};

namespace dd {

namespace detail {

/// Non-owning reference to a `NodeRef(std::size_t shard)` callable — the
/// allocation hook findOrInsert invokes (under the lock of shard `shard`)
/// when a key misses, so the probe and the pool append are one atomic step
/// and no tentative node is ever created for a key that hits. The shard
/// index lets the store write the node's edges into that shard's edge
/// block without a lock of its own.
class MakeNodeFnRef {
public:
    template <typename Fn>
    MakeNodeFnRef(Fn& fn) // NOLINT(google-explicit-constructor): binder type
        : ctx_(const_cast<void*>(static_cast<const void*>(&fn))),
          call_([](void* ctx, std::size_t shard) -> NodeRef {
              return (*static_cast<Fn*>(ctx))(shard);
          }) {}

    NodeRef operator()(std::size_t shard) const { return call_(ctx_, shard); }

private:
    void* ctx_;
    NodeRef (*call_)(void*, std::size_t);
};

/// Bytes of retired blocks one thread keeps for reuse.
inline constexpr std::size_t kSpareBlockCapBytes = std::size_t{16} << 20U;

/// A block of `bytes` bytes of DD memory — a node-pool block, an edge
/// block or a compute-cache array — from the calling thread's spare list
/// when it holds one of exactly that size, else from `operator new`.
/// Blocks are aligned for any DD record (16 bytes) and uninitialized.
[[nodiscard]] void* takeBlock(std::size_t bytes);

/// Hand a block back: onto the calling thread's spare list when this
/// thread took it and the list stays within kSpareBlockCapBytes, else to
/// `operator delete` — so no thread holds blocks that other threads took
/// (a serve GC collecting what its batch workers interned). Under
/// AddressSanitizer a spare block is poisoned, so a stale read of it faults.
void retireBlock(void* block, std::size_t bytes) noexcept;

/// The calling thread's spare-list counters: takes served from the list,
/// takes that fell through to the allocator, and bytes held now.
struct SpareBlockStats {
    std::uint64_t reused = 0;
    std::uint64_t allocated = 0;
    std::size_t heldBytes = 0;
};
[[nodiscard]] SpareBlockStats spareBlockStats() noexcept;

/// Chunked node pool with stable addresses: storage grows by appending
/// geometrically sized blocks (block 0 holds 64 nodes, block b >= 1 holds
/// 64·2^(b-1)), so a node's address never moves after allocation — the
/// property that lets concurrent readers follow NodeRefs without a pool
/// lock, and that makes holding a node reference across an allocating
/// recursion safe. Blocks are taken on first use from the spare list and
/// retired to it by `clear` and the destructor; a slot is constructed by
/// the `append` that reserves it. `append` may be called concurrently (the
/// store calls it under a shard mutex; distinct shards race);
/// `size()` is the number of reserved slots and, once the racing appends
/// have been published, the number of constructed nodes. `clear` is
/// single-threaded (session GC at quiescence).
template <typename NodeT>
class ChunkedNodePool {
    static_assert(std::is_trivially_copyable_v<NodeT> &&
                      std::is_trivially_destructible_v<NodeT>,
                  "pool blocks are raw memory, recycled without destructors");

public:
    ChunkedNodePool() = default;
    ~ChunkedNodePool() { retireBlocks(); }
    ChunkedNodePool(const ChunkedNodePool&) = delete;
    ChunkedNodePool& operator=(const ChunkedNodePool&) = delete;

    std::uint32_t append(const NodeT& node) {
        const std::uint32_t index = size_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t block = blockIndexOf(index);
        NodeT* storage = blocks_[block].load(std::memory_order_acquire);
        if (storage == nullptr) {
            storage = ensureBlock(block);
        }
        new (storage + (index - blockBase(block))) NodeT(node);
        return index;
    }

    [[nodiscard]] const NodeT& at(std::uint32_t index) const noexcept {
        const std::size_t block = blockIndexOf(index);
        return blocks_[block].load(std::memory_order_acquire)[index - blockBase(block)];
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return size_.load(std::memory_order_acquire);
    }

    void clear() {
        retireBlocks();
        size_.store(0, std::memory_order_relaxed);
    }

private:
    static constexpr std::uint32_t kFirstBlockSize = 64;
    /// Block b >= 1 spans [64·2^(b-1), 64·2^b); 27 blocks cover the full
    /// 32-bit NodeRef range.
    static constexpr std::size_t kMaxBlocks = 27;

    [[nodiscard]] static constexpr std::size_t blockIndexOf(std::uint32_t index) noexcept {
        const std::uint32_t chunk = index / kFirstBlockSize;
        return chunk == 0 ? 0 : static_cast<std::size_t>(std::bit_width(chunk));
    }
    [[nodiscard]] static constexpr std::uint32_t blockBase(std::size_t block) noexcept {
        return block == 0 ? 0U : kFirstBlockSize << (block - 1);
    }
    [[nodiscard]] static constexpr std::size_t blockBytes(std::size_t block) noexcept {
        return std::size_t{block == 0 ? kFirstBlockSize : kFirstBlockSize << (block - 1)} *
               sizeof(NodeT);
    }

    NodeT* ensureBlock(std::size_t block) {
        const std::lock_guard<std::mutex> lock(growMutex_);
        NodeT* storage = blocks_[block].load(std::memory_order_relaxed);
        if (storage == nullptr) {
            storage = static_cast<NodeT*>(takeBlock(blockBytes(block)));
            // Release: pairs with the appenders' and readers' acquire loads.
            blocks_[block].store(storage, std::memory_order_release);
        }
        return storage;
    }

    void retireBlocks() {
        for (std::size_t block = 0; block < kMaxBlocks; ++block) {
            if (NodeT* storage = blocks_[block].load(std::memory_order_relaxed)) {
                retireBlock(storage, blockBytes(block));
                blocks_[block].store(nullptr, std::memory_order_relaxed);
            }
        }
    }

    std::array<std::atomic<NodeT*>, kMaxBlocks> blocks_{};
    std::atomic<std::uint32_t> size_{0};
    std::mutex growMutex_; ///< serializes block creation only
};

} // namespace detail

/// Counters of one uniquing table. `hits` are lookups answered by an
/// existing entry (a sub-tree someone already built this session); `misses`
/// inserted a new one. `probeSteps` counts open-addressing displacements —
/// the collision pressure of the hash at the current load.
struct UniqueTableStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t probeSteps = 0;
    std::uint64_t grows = 0;

    [[nodiscard]] double hitRate() const noexcept {
        return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
    }
};

/// Counters of the operation/compute cache.
struct ComputeCacheStats {
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;

    [[nodiscard]] double hitRate() const noexcept {
        return lookups == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(lookups);
    }
};

/// Sharded open-addressed (linear-probing) uniquing table mapping a node's
/// structural key — site, child refs, and edge weights bucketed to the
/// merge tolerance — to the canonical NodeRef that first materialized it.
/// The table does not own nodes; it maps keys to refs of the pool of the
/// DdNodeStore it belongs to, whose state and operator nodes share one key
/// layout.
///
/// One probe touches one record: a slot names an `Entry` (cached hash,
/// site, arity, value and the offset of its key edges), and the key edges
/// of all entries sit back to back in one per-shard array, so growth
/// rehashes by cached hash without touching the keys. The key hash is one
/// pass over the edges (one multiply-xorshift each, then one finalizer).
/// A key's shard is fixed by the top bits of its hash, so the per-shard key
/// sets — and with them `size()` and the lookup/hit/miss counters of
/// deterministic workloads — are invariant under thread count and
/// insertion interleaving; only `probeSteps` (probe-order dependent) may
/// vary between concurrent runs.
///
/// Every call takes the owning shard's mutex, so the table is safe for
/// concurrent use; a single-threaded caller's locks are uncontended.
class UniqueTable {
public:
    /// Power-of-two shard count; the shard index is the hash's top nibble,
    /// independent of the slot index (low bits).
    static constexpr std::size_t kShardCount = 16;

    explicit UniqueTable(double tolerance);

    UniqueTable(const UniqueTable&) = delete;
    UniqueTable& operator=(const UniqueTable&) = delete;

    /// Canonical ref for (site, edges): the existing entry when one
    /// matches, else `makeFresh(shard)` — called under that shard's lock
    /// on a miss — recorded as the canonical node for this key. Exactly one
    /// call of `makeFresh` happens per distinct key however many threads
    /// race on it, and none for a key that hits. The one interning call.
    NodeRef findOrInsert(std::uint32_t site, std::span<const DDEdge> edges,
                         const detail::MakeNodeFnRef& makeFresh);

    /// Drop every entry while keeping slot capacity and the cumulative
    /// counters — the reset step of a session GC, before the surviving
    /// nodes are re-registered via restoreCanonical. Single-threaded:
    /// callers guarantee quiescence.
    void clear();

    /// Re-register a surviving node under its compacted ref without
    /// touching the lookup/hit/miss counters (a GC rebuild is bookkeeping,
    /// not a workload). GC-rebuild only: the key must not already be
    /// present — guaranteed when repopulating a cleared table with nodes
    /// that were interned (and therefore structurally distinct) before.
    void restoreCanonical(std::uint32_t site, std::span<const DDEdge> edges, NodeRef value);

    /// Counters summed over the shards (by value: the shards are locked one
    /// at a time, so the sum is a consistent snapshot only at quiescence —
    /// which is when the session metrics are read).
    [[nodiscard]] UniqueTableStats stats() const;
    [[nodiscard]] std::size_t size() const;
    [[nodiscard]] std::size_t capacity() const;
    [[nodiscard]] double tolerance() const noexcept { return tolerance_; }
    void resetStats();

    /// Weight bucketing: values within one tolerance bucket are treated as
    /// the same canonical weight.
    [[nodiscard]] static std::int64_t bucketOf(double value, double tolerance);

private:
    /// One edge of a stored key: the child and its weight's two buckets.
    /// Packed to 4-byte alignment (20 bytes, no padding), so a key compares
    /// as one block of bytes.
#pragma pack(push, 4)
    struct KeyEdge {
        NodeRef child;
        std::int64_t re;
        std::int64_t im;
    };
#pragma pack(pop)
    static_assert(sizeof(KeyEdge) == 20, "KeyEdge must stay unpadded");

    /// One interned key: everything a probe compares before the key edges.
    struct Entry {
        std::uint64_t hash;
        std::uint32_t keyOffset; ///< first edge in Shard::keys
        std::uint32_t site;
        std::uint32_t arity;
        NodeRef value;
    };
    static_assert(sizeof(Entry) == 24, "Entry must stay one 24-byte record");

    /// One shard: a complete open-addressed table over its share of the key
    /// space, with its own records, key edges, stats, and mutex.
    struct Shard {
        /// Slot array: entry index + 1, 0 = empty. Power-of-two capacity.
        std::vector<std::uint32_t> slots;
        std::vector<Entry> entries; ///< insertion order
        std::vector<KeyEdge> keys;  ///< every entry's edges, back to back

        UniqueTableStats stats;
        mutable std::mutex mutex;
    };

    /// Slots of a shard's first slot array (allocated on its first insert).
    static constexpr std::size_t kInitialShardCapacity = 16;

    /// The calling thread's scratch key. Thread-local, not a member, so
    /// concurrent interners never share it; one buffer serves every table
    /// a thread touches, since a key is consumed by the call that built it.
    [[nodiscard]] static std::vector<KeyEdge>& scratchKey() noexcept;
    /// Bucket `edges` into the scratch key and hash them in the same pass.
    [[nodiscard]] std::uint64_t bucketKey(std::uint32_t site,
                                          std::span<const DDEdge> edges) const;
    [[nodiscard]] static std::size_t shardIndexOf(std::uint64_t hash) noexcept {
        return (hash >> 60U) & (kShardCount - 1);
    }
    /// Record `key` as a new entry of `shard`, growing the shard first when
    /// the entry would cross the 0.7 load factor. Growth waits for an
    /// insert, so a probe that hits never allocates.
    void insert(Shard& shard, std::uint64_t hash, std::uint32_t site, const KeyEdge* key,
                std::size_t arity, NodeRef value);
    [[nodiscard]] static std::size_t freeSlot(const Shard& shard, std::uint64_t hash) noexcept;

    double tolerance_;
    std::array<Shard, kShardCount> shards_;
};

/// Direct-mapped operation cache (the classic DD-package compute table),
/// keyed on (operation, x node, y node, bucketed weight ratio); conflicting
/// keys overwrite. Two operations use it:
///
///  * Add — the recursive normalized DD addition add(x, y) -> edge. The
///    operation is homogeneous in its in-weights, so entries carry the
///    bucketed y/x weight ratio and store the result relative to x's
///    weight: one entry serves every scaled recurrence of the same
///    structural addition, across gates and diagrams of the owning session.
///  * InnerProduct — <x-subtree | y-subtree> of canonical session nodes
///    (ratio unused, `value` is the overlap). Verification replays revisit
///    the same node pairs run after run; the session cache carries those
///    results across calls where a per-call memo cannot.
///
/// An Add ratio is bucketed like a key weight, llround(ratio / tolerance).
/// A ratio whose bucket would leave ±2^62 (tiny rotation angles produce
/// ratios ~1 / sin(theta / 2)) has no bucket to name, so that addition is
/// not cached: its lookup counts as a miss and its store is dropped.
///
/// Memory: the entry array and its validity bitmap are one block, taken
/// from the thread's spare list (detail::takeBlock) on the first store and
/// retired to it with the cache. Entries are left uninitialized and only
/// the bitmap is cleared, so a session writes 8 KB instead of every entry
/// (and reuses the array of the session before it on the same thread), and
/// `compact` skips empty bitmap words.
///
/// Thread safety: entry slots are guarded by striped mutexes (stripe =
/// slot's high bits, so every bitmap word belongs to exactly one stripe)
/// and copied in and out whole, so concurrent lookups and stores never
/// tear a Result — a racing overwrite can only turn a would-be hit into a
/// miss. Counters are relaxed atomics. Hit/miss counts of
/// concurrent workloads depend on the interleaving (eviction races), so
/// batch metrics pin `dd_nodes`, which is interleaving-invariant, rather
/// than cache rates.
class ComputeCache {
public:
    enum class Op : std::uint8_t { Add, InnerProduct };

    struct Result {
        NodeRef node = kNoNode;
        Complex value{0.0, 0.0}; ///< Add: weight relative to x; InnerProduct: the overlap
    };

    explicit ComputeCache(double tolerance, std::size_t slots = std::size_t{1} << 16U);
    ~ComputeCache();

    ComputeCache(const ComputeCache&) = delete;
    ComputeCache& operator=(const ComputeCache&) = delete;

    /// nullopt on miss; a copy of the entry otherwise. `ratio` is
    /// y.weight / x.weight for Add and ignored (pass {}) for InnerProduct.
    [[nodiscard]] std::optional<Result> lookup(Op op, NodeRef x, NodeRef y,
                                               const Complex& ratio);
    void store(Op op, NodeRef x, NodeRef y, const Complex& ratio, const Result& result);

    /// Session GC hook: rewrite every valid entry's node refs through
    /// `remap` (old ref -> new ref, kNoNode marks a collected node) and
    /// invalidate entries naming a dead node. Survivors are re-slotted —
    /// a slot index hashes the refs, so a remapped key lives in a new slot
    /// — which keeps post-GC lookups hitting (repeat verifications resolve
    /// from the cache after a compaction). Returns the number of entries
    /// invalidated, which is also added to the eviction counter.
    /// Single-threaded: the session-GC caller guarantees quiescence.
    std::uint64_t compact(const std::vector<NodeRef>& remap);

    [[nodiscard]] ComputeCacheStats stats() const noexcept;
    void resetStats() noexcept;

private:
    /// Trivially copyable, so the array is raw block memory; an entry is
    /// read only while its validity bit is set.
    struct Entry {
        NodeRef x;
        NodeRef y;
        std::int64_t ratioRe;
        std::int64_t ratioIm;
        NodeRef node;
        Op op;
        double valueRe;
        double valueIm;
    };

    static constexpr std::size_t kMaxStripes = 64;
    static constexpr std::size_t kSlotsPerWord = 64;

    /// Bucket `ratio` into (re, im); false when a bucket would leave ±2^62.
    [[nodiscard]] bool bucketRatio(const Complex& ratio, std::int64_t& re,
                                   std::int64_t& im) const noexcept;
    [[nodiscard]] std::size_t slotOf(Op op, NodeRef x, NodeRef y, std::int64_t re,
                                     std::int64_t im) const noexcept;
    [[nodiscard]] std::mutex& stripeOf(std::size_t slot) const noexcept {
        return stripes_[slot >> stripeShift_];
    }
    [[nodiscard]] bool isValid(std::size_t slot) const noexcept {
        return ((valid_[slot / kSlotsPerWord] >> (slot % kSlotsPerWord)) & 1U) != 0;
    }
    /// Set `slot`'s validity bit; returns whether it was already set.
    bool markValid(std::size_t slot) noexcept;
    [[nodiscard]] std::size_t bitmapWords() const noexcept {
        return (slotCount_ + kSlotsPerWord - 1) / kSlotsPerWord;
    }
    [[nodiscard]] std::size_t blockBytes() const noexcept {
        return slotCount_ * sizeof(Entry) + bitmapWords() * sizeof(std::uint64_t);
    }
    /// Take the entry array and bitmap on the first store (double-checked
    /// on `allocated_`), so a store that never applies an operation (the
    /// operator store) pays nothing for the cache.
    void ensureAllocated();

    double tolerance_;
    std::size_t slotCount_;
    std::size_t stripeCount_;
    unsigned stripeShift_; ///< stripe = slot >> stripeShift_
    Entry* entries_ = nullptr;       ///< slotCount_ entries, then the bitmap
    std::uint64_t* valid_ = nullptr; ///< one bit per slot
    mutable std::array<std::mutex, kMaxStripes> stripes_;
    std::atomic<bool> allocated_{false};
    std::mutex allocMutex_;
    std::atomic<std::uint64_t> lookups_{0};
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
};

/// A decision-diagram node pool: the unique terminal at slot 0 plus every
/// allocated internal node, state or operator, the edge blocks their edges
/// live in, and the uniquing table and compute cache over them. Every
/// allocation goes through the table (see file header). A store is safe for
/// concurrent allocation and reading: the probe-then-allocate step runs
/// under the key's shard mutex, a fresh node's edges go into that shard's
/// own edge block, and neither nodes nor edges ever move, so readers never
/// need a lock.
///
/// Edge blocks hold kEdgeBlockEdges edges. Each table shard fills its own
/// block, and a session GC fills one block at a time with a plain bump. A
/// node with more edges than a block (an operator node of dimension 23 or
/// more) gets a block of its own. Every block comes from the thread's spare
/// list and goes back to it when the store dies or collects.
class DdNodeStore {
public:
    /// Edges per edge block (16 KB).
    static constexpr std::size_t kEdgeBlockEdges = 512;

    /// `tolerance` buckets the table's key weights and the cache's ratios.
    explicit DdNodeStore(double tolerance);
    DdNodeStore& operator=(const DdNodeStore&) = delete;
    ~DdNodeStore();

    [[nodiscard]] double tolerance() const noexcept { return table_.tolerance(); }
    [[nodiscard]] std::size_t size() const noexcept { return pool_.size(); }

    [[nodiscard]] const DDNode& node(NodeRef ref) const;

    /// Intern a node: the canonical ref of (site, edges), created when the
    /// key is new. `edges` are copied into the store's edge blocks only when
    /// a node is created, so a hit writes nothing. Safe to call from
    /// concurrent batch items: exactly one node is created per distinct
    /// structural key, and losers of an insertion race receive the winner's
    /// canonical ref.
    NodeRef allocate(std::uint32_t site, std::span<const DDEdge> edges);

    /// Every internal node reachable from `roots` (kNoNode roots, zero
    /// stubs and the terminal skipped), each once, in depth-first order: a
    /// stack seeded with the roots, children pushed in edge order. The one
    /// reachability walk — node counts, metrics, diffs and session GC all
    /// read it. Throws when a root lies outside the pool.
    [[nodiscard]] std::vector<NodeRef> reachable(std::span<const NodeRef> roots) const;

    /// What one mark-and-compact pass did (see compactLive).
    struct CompactionStats {
        std::size_t nodesBefore = 0;
        std::size_t nodesAfter = 0;
        std::uint64_t cacheEvicted = 0;
    };

    /// Session GC: mark every node reachable from `roots` (the terminal is
    /// always live), compact the pool to the survivors in ascending-ref
    /// order — so the compacted pool is deterministic whenever the pre-GC
    /// pool was — copying their edges into fresh blocks in the same order
    /// and retiring the old blocks whole, rebuild the uniquing table over
    /// them, and remap/evict the compute cache. `remapOut[oldRef]` is the
    /// survivor's new ref, kNoNode for a collected node. Single-threaded:
    /// callers guarantee no concurrent session use (DdSession::garbageCollect
    /// is the public entry point and states the full contract).
    CompactionStats compactLive(const std::vector<NodeRef>& roots,
                                std::vector<NodeRef>& remapOut);

    [[nodiscard]] UniqueTable& uniqueTable() noexcept { return table_; }
    [[nodiscard]] ComputeCache& computeCache() noexcept { return cache_; }

private:
    /// Where the next edges of a block go: the unused rest of a block.
    struct EdgeCursor {
        DDEdge* next = nullptr;
        DDEdge* end = nullptr;
    };
    /// One edge block, as taken from the spare list.
    struct EdgeBlock {
        DDEdge* edges;
        std::size_t count;
    };

    /// Copy `edges` to `cursor`, which moves to a fresh block when they do
    /// not fit; a node larger than a block gets a block of its own.
    std::span<DDEdge> copyEdges(EdgeCursor& cursor, std::span<const DDEdge> edges);
    /// A fresh edge block of `count` edges, recorded under blockMutex_.
    DDEdge* newEdgeBlock(std::size_t count);
    /// Hand `blocks` back to the spare list.
    static void retireEdgeBlocks(const std::vector<EdgeBlock>& blocks) noexcept;

    detail::ChunkedNodePool<DDNode> pool_;
    std::mutex blockMutex_; ///< guards edgeBlocks_ only
    std::vector<EdgeBlock> edgeBlocks_;
    UniqueTable table_;
    ComputeCache cache_;
    /// Each table shard's edge cursor, touched only under that shard's lock.
    std::array<EdgeCursor, UniqueTable::kShardCount> cursors_{};
};

/// Aggregate statistics of one session: live pool size plus the uniquing
/// and compute-cache counters — the `dd_nodes` / `unique_hit_rate` /
/// `cache_hit_rate` metrics the bench harness and the CLI tools report.
/// `poolNodes` (the distinct structural keys interned) is invariant under
/// thread count and batch-item order; the hit rates of *concurrent* batches
/// depend on the interleaving and are reported as observed.
struct DdSessionStats {
    std::uint64_t poolNodes = 0; ///< allocated nodes incl. the terminal
    UniqueTableStats unique;
    ComputeCacheStats cache;

    [[nodiscard]] double uniqueHitRate() const noexcept { return unique.hitRate(); }
    [[nodiscard]] double cacheHitRate() const noexcept { return cache.hitRate(); }
};

/// What one DdSession::garbageCollect pass did: pool size either side of
/// the compaction, compute-cache entries evicted for naming a collected
/// node, and how many live roots anchored the mark.
struct DdSessionGcStats {
    std::uint64_t nodesBefore = 0;
    std::uint64_t nodesAfter = 0;
    std::uint64_t cacheEntriesEvicted = 0;
    std::uint64_t liveRoots = 0;
};

/// A DD evaluation session: one shared store for every diagram
/// the owner touches. `DdBackend` holds one for its whole lifetime, so the
/// target, the replayed state, and every per-gate intermediate of a
/// verification run allocate from (and hit into) the same table — including
/// the items of a concurrent `verifyBatch`, which intern into
/// this one session from every worker.
///
/// Diagrams get onto the session's store through the DecisionDiagram
/// builders (pass `&session`), `intern`, and gate application on a
/// session-backed diagram; the session builds nothing itself.
///
/// Lifetime/ownership contract: diagrams built on a session hold a
/// shared_ptr to the session's store, so they remain valid after the
/// session object is gone; copying them is O(1) aliasing. The session
/// is deliberately scoped, not process-global: a global table would make
/// node lifetime unmanageable across unrelated workloads.
class DdSession {
public:
    explicit DdSession(double tolerance = Tolerance::kDefault);

    [[nodiscard]] double tolerance() const noexcept { return store_->tolerance(); }
    [[nodiscard]] const std::shared_ptr<DdNodeStore>& store() const noexcept { return store_; }

    /// True when `diagram` lives on this session's store.
    [[nodiscard]] bool owns(const DecisionDiagram& diagram) const noexcept;

    /// Import a foreign diagram: rebuild its reachable nodes through the
    /// session table (DecisionDiagram::rebuiltOn — bottom-up, memoized).
    /// Sub-trees the session has already built elsewhere come back as table
    /// hits; a diagram the session already owns comes back as an O(1)
    /// aliasing copy.
    [[nodiscard]] DecisionDiagram intern(const DecisionDiagram& diagram) const;

    /// Mark-and-compact the session store down to the diagrams in `live`
    /// (plus the terminal). EVERY session-backed diagram still in use must
    /// be listed — aliasing copies included; a diagram not listed has its
    /// nodes reclaimed and is invalidated. Live diagrams get their roots
    /// remapped in place (interior structure stays shared — remapping is
    /// safe because interning made refs canonical, so equal sub-trees were
    /// already one node and the compaction is a pure renumbering), and
    /// surviving compute-cache entries are rewritten to the new refs so
    /// repeat verifications still hit post-compaction. Not thread-safe:
    /// callers guarantee no concurrent use of the session for the duration
    /// (the serve layer serializes GC behind its dispatch lock).
    DdSessionGcStats garbageCollect(const std::vector<DecisionDiagram*>& live) const;

    [[nodiscard]] DdSessionStats stats() const;
    void resetStats();

private:
    std::shared_ptr<DdNodeStore> store_;
};

} // namespace dd
} // namespace mqsp
