/**
 * @file
 * The slotted-page structure (paper Figure 2) and its failure-aware
 * mutation operations (paper Sections 3.2-3.3, 4.3).
 *
 * On-page layout (page size P):
 *
 *   0x00 u16 nrec           number of records
 *   0x02 u16 contentStart   first used byte of the record content area
 *   0x04 u16 flags          PageType in bits 0-2; bit 3 belongs to the
 *                           FAST page I/O layer, which never shows it;
 *                           reserved slot count in bits 4-15
 *   0x06 u16 level          B-tree level (0 = leaf)
 *   0x08 u32 aux            internal: rightmost child; leaf: right
 *                           sibling (kInvalidPageId = none)
 *   0x0c      record offset array: u16 per slot, sorted by key
 *   ...       reserved slots, then the free gap (grows/shrinks at
 *             both ends)
 *   ...       record content area, grows DOWN from P-8
 *   P-8  u16 freeHead       offset of first intra-page free block (0 =
 *                           empty); scratch, never failure-atomic
 *   P-6  u16 freeTotal      total bytes on the free list; scratch
 *   P-4  u32 (reserved)
 *
 * A record at offset o is [u16 payloadLen][payload]. Leaf payloads are
 * [u64 key][value bytes]; internal payloads are [u64 key][u32 childPid].
 * A free block at offset o is [u16 size][u16 next] (size includes the
 * 4-byte block header).
 *
 * The slot header proper — the failure-atomicity unit — is the fixed
 * header plus the record offset array: headerBytes(nrec) bytes. That
 * is the layout every PageIO shows. A FAST leaf caps nrec at
 * kMaxInPlaceSlots, so its header fits one cache line, and reserves
 * kInPlaceReservedSlots, so the second cache line holds no record
 * either: the FAST page I/O layer keeps a second copy of the offset
 * array there and commits in place by switching between the two with
 * one 8-byte write (DESIGN.md §14).
 */

#ifndef FASP_PAGE_SLOTTED_PAGE_H
#define FASP_PAGE_SLOTTED_PAGE_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "page/page_io.h"

namespace fasp::page {

/** Role of a page within the database file. */
enum class PageType : std::uint8_t {
    Invalid = 0,
    Leaf,     //!< B-tree leaf: slotted, records = (key, value)
    Internal, //!< B-tree internal: slotted, records = (key, childPid)
    Overflow, //!< raw continuation page for large values
    Meta,     //!< raw page (superblock, allocator bitmap, ...)
};

/** Fixed-header field offsets. */
inline constexpr std::uint16_t kOffNumRecords = 0x00;
inline constexpr std::uint16_t kOffContentStart = 0x02;
inline constexpr std::uint16_t kOffFlags = 0x04;
inline constexpr std::uint16_t kOffLevel = 0x06;
inline constexpr std::uint16_t kOffAux = 0x08;

/** First slot-array byte. */
inline constexpr std::uint16_t kSlotArrayOff = 0x0c;

/** Scratch footer size (free-list head/total + reserved). */
inline constexpr std::uint16_t kScratchBytes = 8;

/** Minimum allocatable unit: a free block needs [u16 size][u16 next]. */
inline constexpr std::uint16_t kMinFreeBlock = 4;

/** Per-record framing overhead ([u16 payloadLen]). */
inline constexpr std::uint16_t kRecordHeaderBytes = 2;

/** Max slots for which the whole slot header fits one cache line:
 *  (64 - 12) / 2 = 26 (the paper's 8-byte fixed header gives 28). */
inline constexpr std::uint16_t kMaxInPlaceSlots =
    (kCacheLineSize - kSlotArrayOff) / 2;

/** Slot reservation of a leaf that commits in place: two cache lines,
 *  the live slot header plus the second slot-array buffer, so no record
 *  is ever placed in either (only kMaxInPlaceSlots slots are used). */
inline constexpr std::uint16_t kInPlaceReservedSlots =
    (2 * kCacheLineSize - kSlotArrayOff) / 2;

/** Size in bytes of the slot header (commit unit) for @p nrec records. */
constexpr std::uint16_t
headerBytes(std::uint16_t nrec)
{
    return kSlotArrayOff + 2 * nrec;
}

/**
 * Clamp a desired slot reservation so @p live_bytes of records still
 * fit beside the reserved slot region on a @p page_size page (never
 * below @p nrec, which is known to fit).
 */
constexpr std::uint16_t
clampReserve(std::size_t page_size, std::uint16_t desired,
             std::size_t live_bytes, std::uint16_t nrec)
{
    std::size_t budget = page_size - kScratchBytes - kSlotArrayOff;
    std::size_t cap =
        live_bytes < budget ? (budget - live_bytes) / 2 : 0;
    std::uint16_t clamped =
        desired < cap ? desired : static_cast<std::uint16_t>(cap);
    return clamped > nrec ? clamped : nrec;
}

// --- Field accessors -----------------------------------------------------

std::uint16_t numRecords(const PageIO &io);
std::uint16_t contentStart(const PageIO &io);
PageType pageType(const PageIO &io);

/** Reserved slot-array capacity (flags bits 4..15). FAST leaves
 *  reserve kInPlaceReservedSlots so the slot header occupies fixed
 *  cache lines and slot growth never competes with record space
 *  (paper §4.2: the leaf slot header is one cache line). */
std::uint16_t reservedSlots(const PageIO &io);
std::uint16_t level(const PageIO &io);
std::uint32_t aux(const PageIO &io);
void setAux(PageIO &io, std::uint32_t value);

/** Record offset stored in slot @p slot (0-based, key-sorted). */
std::uint16_t slotOffset(const PageIO &io, std::uint16_t slot);

// --- Initialization ------------------------------------------------------

/** Format @p io as an empty slotted page of @p type at @p level,
 *  optionally pre-reserving @p reserved_slots slot entries. */
void init(PageIO &io, PageType type, std::uint16_t level,
          std::uint32_t aux_value = kInvalidPageId,
          std::uint16_t reserved_slots = 0);

// --- Record access -------------------------------------------------------

/** Location of slot @p slot's record. Payload is at off+2. */
struct RecordRef
{
    std::uint16_t off;        //!< record start (length prefix)
    std::uint16_t payloadLen; //!< payload bytes
};

RecordRef record(const PageIO &io, std::uint16_t slot);

/** Key (first 8 payload bytes) of slot @p slot. */
std::uint64_t recordKey(const PageIO &io, std::uint16_t slot);

/** Copy slot @p slot's payload into @p out (resized to fit). */
void readPayload(const PageIO &io, std::uint16_t slot,
                 std::vector<std::uint8_t> &out);

/** Child page id of internal-page slot @p slot (payload bytes 8..11). */
PageId childPid(const PageIO &io, std::uint16_t slot);

// --- Search --------------------------------------------------------------

/** Binary-search result over the sorted slot array. */
struct SearchResult
{
    std::uint16_t slot; //!< match, or insertion position if !found
    bool found;
};

/** First slot with key >= @p key. */
SearchResult lowerBound(const PageIO &io, std::uint64_t key);

// --- Space accounting ----------------------------------------------------

/** Bytes in the contiguous gap between slot array and content area. */
std::uint16_t freeGap(const PageIO &io);

/** Bytes on the intra-page free list (scratch freeTotal). */
std::uint16_t fragFree(const PageIO &io);

/** Outcome of a fit check for a prospective insertion/update. */
enum class FitResult {
    Fits,        //!< allocatable now (gap or a single free block)
    NeedsDefrag, //!< total free space suffices but is fragmented (§4.3)
    NeedsSplit,  //!< page genuinely full
};

/**
 * Can a record with @p payload_len payload bytes be placed here?
 * @param needs_new_slot true for insert (grows slot array), false for
 *        an in-place update that reuses the existing slot.
 */
FitResult checkFit(const PageIO &io, std::uint16_t payload_len,
                   bool needs_new_slot = true);

// --- Mutations -----------------------------------------------------------

/**
 * Insert (@p key, @p payload) keeping slots sorted. The caller must have
 * established checkFit() == Fits. Duplicate keys are the caller's
 * responsibility (the B-tree rejects them).
 *
 * Content bytes are written through writeContent (in-place into free
 * space for the PM engines); the slot-array shift and nrec bump go
 * through writeHeader (into the shadow for the PM engines).
 */
Status insertRecord(PageIO &io, std::uint64_t key,
                    std::span<const std::uint8_t> payload);

/**
 * Replace slot @p slot's payload with @p payload *without overwriting
 * the old record* (paper §3.2 "Updating a record"): the new record goes
 * into free space and only the slot's offset changes. The old extent is
 * NOT freed here — the engine reclaims it after commit (reclaimExtent).
 *
 * @param[out] old_ref the replaced record's extent, for deferred free.
 */
Status updateRecord(PageIO &io, std::uint16_t slot,
                    std::span<const std::uint8_t> payload,
                    RecordRef *old_ref);

/**
 * Delete slot @p slot by removing its offset from the slot array (paper
 * §3.2 "Deleting a record"). The record extent is NOT freed here; see
 * updateRecord.
 *
 * @param[out] old_ref the deleted record's extent.
 */
Status eraseRecord(PageIO &io, std::uint16_t slot, RecordRef *old_ref);

/**
 * Remove the first @p count slots (the records migrating to a new left
 * sibling during a split, paper Figure 4): the slot array shifts down
 * and nrec shrinks, but the record bytes stay untouched — they are the
 * recovery image until the transaction commits.
 *
 * @param[out] dropped extents of the removed records, for deferred
 *             reclamation after commit.
 */
Status dropLowerSlots(PageIO &io, std::uint16_t count,
                      std::vector<RecordRef> *dropped);

/**
 * Post-commit reclamation: push the extent [ref.off,
 * ref.off + 2 + ref.payloadLen) onto the intra-page free list. Scratch
 * only — crash-inconsistency here is tolerated and lazily repaired.
 */
void reclaimExtent(PageIO &io, const RecordRef &ref);

/**
 * Copy all live records of @p src into freshly-initialized @p dst in
 * slot order, compacting free space (the paper's copy-on-write
 * defragmentation, §4.3). @p dst must be an empty page of the same size.
 */
Status defragmentInto(const PageIO &src, PageIO &dst);

// --- Free-list maintenance (§4.3) ----------------------------------------

/**
 * Verify the intra-page free list: chain well-formed, blocks inside the
 * content area, no overlap with live records, freeTotal matches.
 */
bool freeListConsistent(const PageIO &io);

/**
 * Rebuild the free list from the record offset array (the paper's lazy
 * repair after a crash dropped scratch writes): every maximal gap in
 * the content area not covered by a live record becomes a free block.
 */
void rebuildFreeList(PageIO &io);

// --- Integrity -----------------------------------------------------------

/**
 * Structural invariants: header fields in range, slots sorted strictly
 * by key, record extents inside the content area and non-overlapping.
 * @return Ok or Corruption with a description.
 */
Status checkIntegrity(const PageIO &io);

/**
 * Two-tier Stasis-style fsck (DESIGN.md §13). The always-on cheap tier
 * is O(records) with no allocation — header bounds, per-slot extent
 * bounds, and (when @p trust_scratch) a bounded free-list walk with the
 * fragFree sum cross-checked — so the model checker can afford it after
 * every schedule and mutations can assert it in debug builds.
 * Configuring with -DFASP_EXPENSIVE_CHECKS=ON compiles in the expensive
 * tier as well: the full checkIntegrity() pass (strict key order,
 * pairwise extent overlap) plus free-block/record overlap validation.
 *
 * Pass @p trust_scratch = false for pages recovered from a crash
 * image whose free list may not have been rebuilt yet: scratch state
 * is best-effort by contract there, and popFreeBlock() repairs it
 * lazily, so staleness is not corruption.
 */
Status slottedFsck(const PageIO &io, bool trust_scratch = true);

} // namespace fasp::page

#endif // FASP_PAGE_SLOTTED_PAGE_H
