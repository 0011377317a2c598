/**
 * @file
 * TxPageIO: the per-transaction page-access provider the B-tree
 * operates through.
 *
 * The B-tree code is engine-agnostic: FAST/FASH back this interface
 * with PM-direct content writes + volatile shadow headers, while
 * NVWAL / journal / legacy WAL back it with volatile buffer-cache
 * copies. Page allocation and extent reclamation are transactional, so
 * they are routed through the provider too.
 */

#ifndef FASP_BTREE_TX_PAGE_IO_H
#define FASP_BTREE_TX_PAGE_IO_H

#include "common/status.h"
#include "common/types.h"
#include "page/page_io.h"
#include "page/slotted_page.h"
#include "pm/phase.h"

namespace fasp::btree {

/** See file comment. */
class TxPageIO
{
  public:
    virtual ~TxPageIO() = default;

    /** Page size of the underlying database. */
    virtual std::size_t pageSize() const = 0;

    /**
     * Access page @p pid. The returned view lives until the
     * transaction ends.
     *
     * @param for_write the caller is about to mutate the page; the
     *        provider registers it dirty (shadow header / buffer-cache
     *        dirty flag).
     */
    virtual page::PageIO &page(PageId pid, bool for_write) = 0;

    /**
     * Allocate a fresh zeroed page. For the PM engines the page is
     * write-through (it is unreachable until the transaction commits
     * the pointer to it); the allocation itself commits with the
     * transaction.
     */
    virtual Result<PageId> allocPage() = 0;

    /** Schedule @p pid to be freed when the transaction commits. */
    virtual void freePage(PageId pid) = 0;

    /**
     * Schedule the record extent @p ref on @p pid for post-commit
     * reclamation onto the page's intra-page free list. The bytes must
     * stay untouched until commit (they are the recovery image).
     */
    virtual void deferReclaim(PageId pid, const page::RecordRef &ref) = 0;

    /** Directory page holding tree-id -> root-pid records. */
    virtual PageId directoryPid() const = 0;

    /** Unused: kept only because perfbench's TracingPageIO overrides it. */
    virtual pm::PhaseTracker *tracker() const { return nullptr; }

    /**
     * Component to charge record-mutation work to: InPlaceInsert for
     * the PM engines (records land directly in PM free space),
     * VolatileCopy for the buffer-cache engines (paper Figure 7).
     */
    virtual pm::Component mutationComponent() const
    {
        return pm::Component::InPlaceInsert;
    }

    /**
     * Leaf-page slot-count cap, 0 = unlimited. FAST restricts leaf
     * slot headers to one cache line so the in-place commit's atomic
     * write always suffices (paper §4.2: at most (64-12)/2 records per
     * leaf); pages split early once they reach the cap. A capped leaf
     * reserves page::kInPlaceReservedSlots.
     */
    virtual std::uint16_t maxLeafSlots() const { return 0; }
};

} // namespace fasp::btree

#endif // FASP_BTREE_TX_PAGE_IO_H
