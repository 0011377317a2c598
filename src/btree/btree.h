/**
 * @file
 * Persistent B+-tree over slotted pages (paper Section 4).
 *
 * - Variable-length values; fixed 64-bit keys (SQLite rowids).
 * - Values larger than maxInlineValue() spill to overflow-page chains,
 *   as in SQLite.
 * - Page splits allocate a *left* sibling and move the keys below the
 *   median into it, so the original page's parent entry never changes
 *   (paper Figure 4); splits propagate recursively and grow a new root
 *   when needed.
 * - Pages too fragmented for an incoming record are rebuilt via
 *   copy-on-write defragmentation (paper §4.3).
 * - All structural changes flow through TxPageIO, so commit semantics
 *   (in-place / slot-header logging / WAL) are the engine's concern.
 *
 * Leaf record payload: [u64 key][u8 kind][value | overflow ref] where
 * kind 0 = inline, 1 = overflow ([u32 firstPid][u32 totalLen]).
 * Internal record payload: [u64 separator][u32 childPid]; children at
 * slot i hold keys <= separator_i; the aux field is the rightmost
 * child (keys > every separator).
 */

#ifndef FASP_BTREE_BTREE_H
#define FASP_BTREE_BTREE_H

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "btree/tx_page_io.h"
#include "common/status.h"
#include "common/types.h"

namespace fasp::btree {

/** Aggregate structural statistics (tests / examples). */
struct TreeStats
{
    std::uint64_t records = 0;
    std::uint32_t depth = 0;
    std::uint32_t leafPages = 0;
    std::uint32_t internalPages = 0;
    std::uint32_t overflowPages = 0;
};

/**
 * Handle to one B-tree. Stateless besides the tree id: the root pid is
 * looked up in the directory page on every operation, so handles stay
 * valid across transactions, splits, and crash recovery.
 */
class BTree
{
  public:
    explicit BTree(TreeId id) : id_(id) {}

    TreeId id() const { return id_; }

    /** Largest value stored inline in a leaf (larger ones overflow).
     *  Sized so a leaf always holds at least four records (as SQLite's
     *  spill threshold guarantees); records at exactly a quarter page
     *  would otherwise fit only three per leaf and thrash splits. */
    static std::size_t maxInlineValue(std::size_t page_size)
    {
        return page_size / 4 - 64;
    }

    /**
     * Create a new tree: allocate an empty root leaf and register it in
     * the directory page under @p id.
     */
    static Result<BTree> create(TxPageIO &io, TreeId id);

    /** Open an existing tree; NotFound if @p id is not registered. */
    static Result<BTree> open(TxPageIO &io, TreeId id);

    /** Delete the tree: free every page and drop the directory entry. */
    static Status drop(TxPageIO &io, TreeId id);

    /** Insert (@p key, @p value); AlreadyExists on duplicate. */
    Status insert(TxPageIO &io, std::uint64_t key,
                  std::span<const std::uint8_t> value);

    /** Replace the value of @p key; NotFound if absent. */
    Status update(TxPageIO &io, std::uint64_t key,
                  std::span<const std::uint8_t> value);

    /** Look up @p key; fills @p value. NotFound if absent. */
    Status get(TxPageIO &io, std::uint64_t key,
               std::vector<std::uint8_t> &value);

    /** True iff @p key exists. */
    Result<bool> contains(TxPageIO &io, std::uint64_t key);

    /** Delete @p key; NotFound if absent. */
    Status erase(TxPageIO &io, std::uint64_t key);

    /** Visit every (key, value) with lo <= key <= hi in key order.
     *  Return false from @p fn to stop early. */
    Status scan(TxPageIO &io, std::uint64_t lo, std::uint64_t hi,
                const std::function<bool(
                    std::uint64_t, std::span<const std::uint8_t>)> &fn);

    /** Smallest key >= @p key, if any. */
    Result<std::uint64_t> lowerBoundKey(TxPageIO &io, std::uint64_t key);

    /** Largest key in the tree; NotFound when empty. */
    Result<std::uint64_t> maxKey(TxPageIO &io);

    /** Total record count (full scan). */
    Result<std::uint64_t> count(TxPageIO &io);

    /** Structural statistics (full walk). */
    Result<TreeStats> stats(TxPageIO &io);

    /**
     * Verify the whole tree: per-page integrity, separator/key range
     * nesting, uniform leaf depth, child level consistency, overflow
     * chain sanity.
     */
    Status checkIntegrity(TxPageIO &io);

    /** Current root pid (directory lookup). */
    Result<PageId> rootPid(TxPageIO &io);

  private:
    /** Root-to-leaf descent path: page ids, path[0] = root. */
    using Path = std::vector<PageId>;

    /** Descend to the leaf that owns @p key, recording the path. */
    Status descend(TxPageIO &io, std::uint64_t key, Path &path);

    /** Descend to the page at @p target_level whose range owns
     *  @p key (level 0 = leaf). */
    Result<PageId> descendToLevel(TxPageIO &io, std::uint64_t key,
                                  std::uint16_t target_level);

    /** Locate the parent of @p target by walking from the root (used
     *  only by the rare defragmentation repoint; O(pages)). */
    Result<PageId> findParentOf(TxPageIO &io, PageId target);

    /** Build a leaf payload, spilling large values to overflow pages. */
    Status buildLeafPayload(TxPageIO &io,
                            std::uint64_t key,
                            std::span<const std::uint8_t> value,
                            std::vector<std::uint8_t> &payload);

    /** Read the value from a leaf payload (follows overflow chains). */
    Status readLeafPayload(TxPageIO &io,
                           std::span<const std::uint8_t> payload,
                           std::vector<std::uint8_t> &value);

    /** Free the overflow chain referenced by @p payload, if any. */
    void releaseOverflow(TxPageIO &io,
                         std::span<const std::uint8_t> payload);

    /**
     * Make room on page @p pid for a payload of @p payload_len bytes:
     * copy-on-write defragmentation if the space is merely fragmented,
     * a left-sibling split if genuinely full. The page id may change
     * (defrag) or records may move (split); the caller re-descends.
     */
    Status makeRoom(TxPageIO &io, PageId pid,
                    std::uint16_t payload_len, bool needs_new_slot,
                    std::uint64_t pending_key);

    /** Copy-on-write defragmentation of @p pid (paper §4.3): rebuild
     *  into a fresh page and repoint the parent. */
    Status defragPage(TxPageIO &io, PageId pid);

    /** Left-sibling split of @p pid (paper Figure 4). The split point
     *  is biased so that @p pending_key's half is the *fresh* left
     *  sibling whenever possible: records moving there can be written
     *  freely, while the original page's space is pinned until commit
     *  (pre-commit immutability), exactly as the paper's Figure 4
     *  places the incoming key 14 in the new sibling. */
    Status splitPage(TxPageIO &io, PageId pid,
                     std::uint64_t pending_key);

    /** Replace the pointer to @p old_pid (parent record, parent aux,
     *  or the directory root entry) with @p new_pid. */
    Status repointChild(TxPageIO &io, PageId old_pid, PageId new_pid);

    /** Insert (separator -> left sibling) at the level above
     *  @p child_level, growing a new root if @p split_pid was the
     *  root. Re-resolves its target from the root on each attempt, so
     *  it is immune to concurrent restructuring by its own recursion. */
    Status insertSeparator(TxPageIO &io, std::uint64_t separator,
                           PageId left_pid, PageId split_pid,
                           std::uint16_t child_level);

    /** Update the directory record for this tree to @p new_root. */
    Status setRoot(TxPageIO &io, PageId new_root);

    /**
     * Delete-side maintenance: when an erase empties a leaf, unlink it
     * from its parent and free it; empty internal ancestors collapse
     * recursively, and an internal root with no separators left is
     * replaced by its only child (the tree shrinks). All of it is
     * ordinary slot-header / record mutation, so every engine's commit
     * protocol covers it unchanged.
     */
    Status pruneEmptyLeaf(TxPageIO &io, const Path &path);

    Status checkSubtree(TxPageIO &io, PageId pid, std::uint16_t level,
                        std::uint64_t lo, bool has_lo, std::uint64_t hi,
                        bool has_hi, std::uint32_t *leaf_depth,
                        std::uint32_t depth);

    TreeId id_;
};

} // namespace fasp::btree

#endif // FASP_BTREE_BTREE_H
