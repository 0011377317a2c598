#include "btree/btree.h"

#include <algorithm>

#include "common/byte_io.h"
#include "common/logging.h"

namespace fasp::btree {

namespace {

using page::FitResult;
using page::PageIO;
using page::PageType;
using page::RecordRef;

/** Leaf payload kind byte. */
constexpr std::uint8_t kInline = 0;
constexpr std::uint8_t kOverflowRef = 1;

/** Maximum descent depth guard. */
constexpr std::size_t kMaxDepth = 64;

/** Bytes of overflow-page data per page: [u32 next][u32 len][data]. */
std::size_t
overflowCapacity(std::size_t page_size)
{
    return page_size - 8;
}

/** Serialize an internal record payload (separator, child). */
void
makeChildPayload(std::uint64_t key, PageId child, std::uint8_t out[12])
{
    storeU64(out, key);
    storeU32(out + 8, child);
}

/**
 * Adaptive slot-array reservation for a fresh page expected to start
 * with @p nrec records: current occupancy plus 50% headroom. Pages
 * holding similar-sized records then never strand free blocks behind
 * an unexpandable slot array (which would force extra copy-on-write
 * defragmentation); the cost is ~2 reserved bytes per anticipated
 * record.
 */
std::uint16_t
adaptiveReserve(std::uint16_t nrec)
{
    return static_cast<std::uint16_t>(nrec + nrec / 2 + 4);
}

} // namespace

// --- Creation / directory maintenance --------------------------------------

Result<BTree>
BTree::create(TxPageIO &io, TreeId id)
{
    PageIO &dir = io.page(io.directoryPid(), /*for_write=*/false);
    if (page::lowerBound(dir, id).found)
        return statusAlreadyExists("tree exists");

    auto root = io.allocPage();
    if (!root.isOk())
        return root.status();
    PageIO &root_io = io.page(*root, /*for_write=*/true);
    page::init(root_io, PageType::Leaf, 0, kInvalidPageId,
               io.maxLeafSlots() != 0 ? page::kInPlaceReservedSlots
                                      : adaptiveReserve(0));

    std::uint8_t payload[12];
    makeChildPayload(id, *root, payload);
    PageIO &dirw = io.page(io.directoryPid(), /*for_write=*/true);
    Status status = page::insertRecord(
        dirw, id, std::span<const std::uint8_t>(payload, 12));
    if (!status.isOk())
        return status;
    return BTree(id);
}

Result<BTree>
BTree::open(TxPageIO &io, TreeId id)
{
    PageIO &dir = io.page(io.directoryPid(), /*for_write=*/false);
    if (!page::lowerBound(dir, id).found)
        return statusNotFound("no such tree");
    return BTree(id);
}

Result<PageId>
BTree::rootPid(TxPageIO &io)
{
    PageIO &dir = io.page(io.directoryPid(), /*for_write=*/false);
    auto sr = page::lowerBound(dir, id_);
    if (!sr.found)
        return statusNotFound("tree not in directory");
    return page::childPid(dir, sr.slot);
}

Status
BTree::setRoot(TxPageIO &io, PageId new_root)
{
    PageIO &dir = io.page(io.directoryPid(), /*for_write=*/true);
    auto sr = page::lowerBound(dir, id_);
    if (!sr.found)
        return statusCorruption("tree missing from directory");
    std::uint8_t payload[12];
    makeChildPayload(id_, new_root, payload);
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::updateRecord(
        dir, sr.slot, std::span<const std::uint8_t>(payload, 12),
        &old_ref));
    io.deferReclaim(io.directoryPid(), old_ref);
    return Status::ok();
}

Status
BTree::drop(TxPageIO &io, TreeId id)
{
    BTree tree(id);
    auto root = tree.rootPid(io);
    if (!root.isOk())
        return root.status();

    // Free every page bottom-up (iterative stack walk).
    std::vector<PageId> stack{*root};
    std::vector<std::uint8_t> payload;
    while (!stack.empty()) {
        PageId pid = stack.back();
        stack.pop_back();
        PageIO &view = io.page(pid, /*for_write=*/false);
        std::uint16_t nrec = page::numRecords(view);
        if (page::level(view) > 0) {
            for (std::uint16_t i = 0; i < nrec; ++i)
                stack.push_back(page::childPid(view, i));
            if (page::aux(view) != kInvalidPageId)
                stack.push_back(page::aux(view));
        } else {
            for (std::uint16_t i = 0; i < nrec; ++i) {
                page::readPayload(view, i, payload);
                tree.releaseOverflow(
                    io, std::span<const std::uint8_t>(payload));
            }
        }
        io.freePage(pid);
    }

    PageIO &dir = io.page(io.directoryPid(), /*for_write=*/true);
    auto sr = page::lowerBound(dir, id);
    if (!sr.found)
        return statusCorruption("tree missing from directory");
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::eraseRecord(dir, sr.slot, &old_ref));
    io.deferReclaim(io.directoryPid(), old_ref);
    return Status::ok();
}

// --- Descent ---------------------------------------------------------------

Status
BTree::descend(TxPageIO &io, std::uint64_t key, Path &path)
{
    // Root-to-leaf traversal: the paper's "Search" component (Fig. 6).
    pm::PhaseScope phase(pm::Component::Search);
    path.clear();
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    PageId pid = *root;
    while (true) {
        if (path.size() > kMaxDepth)
            return statusCorruption("descent too deep (cycle?)");
        path.push_back(pid);
        PageIO &view = io.page(pid, /*for_write=*/false);
        if (page::level(view) == 0)
            return Status::ok();
        auto sr = page::lowerBound(view, key);
        if (sr.slot < page::numRecords(view)) {
            pid = page::childPid(view, sr.slot);
        } else {
            pid = page::aux(view);
            if (pid == kInvalidPageId)
                return statusCorruption("internal page missing aux");
        }
    }
}

// --- Overflow chains --------------------------------------------------------

Status
BTree::buildLeafPayload(TxPageIO &io, std::uint64_t key,
                        std::span<const std::uint8_t> value,
                        std::vector<std::uint8_t> &payload)
{
    if (value.size() <= maxInlineValue(io.pageSize())) {
        payload.resize(9 + value.size());
        storeU64(payload.data(), key);
        payload[8] = kInline;
        std::copy(value.begin(), value.end(), payload.begin() + 9);
        return Status::ok();
    }

    // Spill to an overflow chain: [u32 next][u32 len][data] per page.
    const std::size_t cap = overflowCapacity(io.pageSize());
    std::size_t npages = (value.size() + cap - 1) / cap;
    std::vector<PageId> pids(npages);
    for (std::size_t i = 0; i < npages; ++i) {
        auto pid = io.allocPage();
        if (!pid.isOk())
            return pid.status();
        pids[i] = *pid;
    }
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < npages; ++i) {
        PageIO &ovfl = io.page(pids[i], /*for_write=*/true);
        std::uint32_t next =
            i + 1 < npages ? pids[i + 1] : kInvalidPageId;
        std::size_t chunk = std::min(cap, value.size() - cursor);
        std::uint8_t head[8];
        storeU32(head, next);
        storeU32(head + 4, static_cast<std::uint32_t>(chunk));
        ovfl.writeContent(0, head, 8);
        ovfl.writeContent(8, value.data() + cursor, chunk);
        cursor += chunk;
    }

    payload.resize(9 + 8);
    storeU64(payload.data(), key);
    payload[8] = kOverflowRef;
    storeU32(payload.data() + 9, pids[0]);
    storeU32(payload.data() + 13,
             static_cast<std::uint32_t>(value.size()));
    return Status::ok();
}

Status
BTree::readLeafPayload(TxPageIO &io,
                       std::span<const std::uint8_t> payload,
                       std::vector<std::uint8_t> &value)
{
    if (payload.size() < 9)
        return statusCorruption("leaf payload too short");
    if (payload[8] == kInline) {
        value.assign(payload.begin() + 9, payload.end());
        return Status::ok();
    }
    if (payload[8] != kOverflowRef || payload.size() < 17)
        return statusCorruption("bad leaf payload kind");

    PageId pid = loadU32(payload.data() + 9);
    std::uint32_t total = loadU32(payload.data() + 13);
    value.clear();
    value.reserve(total);
    std::size_t guard = 0;
    const std::size_t max_pages =
        total / overflowCapacity(io.pageSize()) + 2;
    while (pid != kInvalidPageId) {
        if (++guard > max_pages)
            return statusCorruption("overflow chain too long");
        PageIO &ovfl = io.page(pid, /*for_write=*/false);
        std::uint8_t head[8];
        ovfl.readContent(0, head, 8);
        std::uint32_t next = loadU32(head);
        std::uint32_t len = loadU32(head + 4);
        if (len > overflowCapacity(io.pageSize()))
            return statusCorruption("overflow chunk too large");
        std::size_t old = value.size();
        value.resize(old + len);
        ovfl.readContent(8, value.data() + old, len);
        pid = next;
    }
    if (value.size() != total)
        return statusCorruption("overflow length mismatch");
    return Status::ok();
}

void
BTree::releaseOverflow(TxPageIO &io,
                       std::span<const std::uint8_t> payload)
{
    if (payload.size() < 17 || payload[8] != kOverflowRef)
        return;
    PageId pid = loadU32(payload.data() + 9);
    std::uint32_t total = loadU32(payload.data() + 13);
    std::size_t guard = 0;
    const std::size_t max_pages =
        total / overflowCapacity(io.pageSize()) + 2;
    while (pid != kInvalidPageId && ++guard <= max_pages) {
        PageIO &ovfl = io.page(pid, /*for_write=*/false);
        std::uint8_t head[4];
        ovfl.readContent(0, head, 4);
        io.freePage(pid);
        pid = loadU32(head);
    }
}
// --- Space making -----------------------------------------------------------

Result<PageId>
BTree::descendToLevel(TxPageIO &io, std::uint64_t key,
                      std::uint16_t target_level)
{
    pm::PhaseScope phase(pm::Component::Search);
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    PageId pid = *root;
    for (std::size_t depth = 0; depth <= kMaxDepth; ++depth) {
        PageIO &view = io.page(pid, /*for_write=*/false);
        std::uint16_t lvl = page::level(view);
        if (lvl == target_level)
            return pid;
        if (lvl < target_level)
            return statusCorruption("descendToLevel overshot");
        auto sr = page::lowerBound(view, key);
        if (sr.slot < page::numRecords(view)) {
            pid = page::childPid(view, sr.slot);
        } else {
            pid = page::aux(view);
            if (pid == kInvalidPageId)
                return statusCorruption("internal page missing aux");
        }
    }
    return statusCorruption("descendToLevel too deep");
}

Result<PageId>
BTree::findParentOf(TxPageIO &io, PageId target)
{
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    std::vector<PageId> stack{*root};
    std::size_t visited = 0;
    while (!stack.empty()) {
        PageId pid = stack.back();
        stack.pop_back();
        if (++visited > 1u << 24)
            return statusCorruption("findParentOf: cycle");
        PageIO &view = io.page(pid, /*for_write=*/false);
        if (page::level(view) == 0)
            continue;
        std::uint16_t nrec = page::numRecords(view);
        for (std::uint16_t i = 0; i < nrec; ++i) {
            PageId child = page::childPid(view, i);
            if (child == target)
                return pid;
            stack.push_back(child);
        }
        PageId aux_child = page::aux(view);
        if (aux_child == target)
            return pid;
        if (aux_child != kInvalidPageId)
            stack.push_back(aux_child);
    }
    return statusNotFound("page has no parent");
}

Status
BTree::repointChild(TxPageIO &io, PageId old_pid, PageId new_pid)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        auto root = rootPid(io);
        if (!root.isOk())
            return root.status();
        if (*root == old_pid)
            return setRoot(io, new_pid);

        auto parent = findParentOf(io, old_pid);
        if (!parent.isOk())
            return parent.status();
        PageIO &view = io.page(*parent, /*for_write=*/false);

        if (page::aux(view) == old_pid) {
            PageIO &pw = io.page(*parent, /*for_write=*/true);
            page::setAux(pw, new_pid);
            return Status::ok();
        }
        std::uint16_t nrec = page::numRecords(view);
        std::uint16_t slot = nrec;
        for (std::uint16_t i = 0; i < nrec; ++i) {
            if (page::childPid(view, i) == old_pid) {
                slot = i;
                break;
            }
        }
        if (slot == nrec)
            return statusCorruption("repointChild: pointer missing");

        // The replacement pointer record goes into parent free space
        // (paper §4.3: "we update the pointer to the fragmented page
        // in its parent page"); make room first if needed.
        if (page::checkFit(view, 12, /*needs_new_slot=*/false) !=
            page::FitResult::Fits) {
            FASP_RETURN_IF_ERROR(
                makeRoom(io, *parent, 12, /*needs_new_slot=*/false,
                         page::recordKey(view, slot)));
            continue; // the parent may have moved or split: retry
        }
        std::uint8_t payload[12];
        makeChildPayload(page::recordKey(view, slot), new_pid, payload);
        PageIO &pw = io.page(*parent, /*for_write=*/true);
        RecordRef old_ref{};
        FASP_RETURN_IF_ERROR(page::updateRecord(
            pw, slot, std::span<const std::uint8_t>(payload, 12),
            &old_ref));
        io.deferReclaim(*parent, old_ref);
        return Status::ok();
    }
    return statusCorruption("repointChild did not converge");
}

Status
BTree::defragPage(TxPageIO &io, PageId pid)
{
    // On-demand copy-on-write defragmentation (paper §4.3, Fig. 7
    // "defragment(page)").
    pm::PhaseScope phase(pm::Component::Defrag);
    // Debug-only hook; reading the env is benign even if a setenv
    // raced it (worst case: one lost diagnostic line).
    if (getenv("FASP_DEBUG_DEFRAG")) { // NOLINT(concurrency-mt-unsafe)
        PageIO &dbg = io.page(pid, false);
        fprintf(stderr,
                "defrag pid=%u level=%u nrec=%u gap=%u frag=%u\n",
                pid, page::level(dbg), page::numRecords(dbg),
                page::freeGap(dbg), page::fragFree(dbg));
    }
    auto new_pid = io.allocPage();
    if (!new_pid.isOk())
        return new_pid.status();

    PageIO &src = io.page(pid, /*for_write=*/false);
    PageIO &dst = io.page(*new_pid, /*for_write=*/true);
    FASP_RETURN_IF_ERROR(page::defragmentInto(src, dst));

    FASP_RETURN_IF_ERROR(repointChild(io, pid, *new_pid));
    io.freePage(pid);
    return Status::ok();
}

Status
BTree::insertSeparator(TxPageIO &io, std::uint64_t separator,
                       PageId left_pid, PageId split_pid,
                       std::uint16_t child_level)
{
    std::uint8_t payload[12];
    makeChildPayload(separator, left_pid, payload);
    std::uint16_t parent_level =
        static_cast<std::uint16_t>(child_level + 1);

    for (int attempt = 0; attempt < 16; ++attempt) {
        auto root = rootPid(io);
        if (!root.isOk())
            return root.status();
        PageIO &root_view = io.page(*root, /*for_write=*/false);

        if (page::level(root_view) == child_level) {
            // The split page was the root: grow a new root whose aux
            // is the original (right) page.
            if (*root != split_pid) {
                return statusCorruption(
                    "root level equals child level but pid differs");
            }
            auto new_root = io.allocPage();
            if (!new_root.isOk())
                return new_root.status();
            PageIO &nr = io.page(*new_root, /*for_write=*/true);
            page::init(nr, PageType::Internal, parent_level,
                       split_pid);
            FASP_RETURN_IF_ERROR(page::insertRecord(
                nr, separator,
                std::span<const std::uint8_t>(payload, 12)));
            return setRoot(io, *new_root);
        }

        auto target = descendToLevel(io, separator, parent_level);
        if (!target.isOk())
            return target.status();
        PageIO &view = io.page(*target, /*for_write=*/false);
        switch (page::checkFit(view, 12, /*needs_new_slot=*/true)) {
          case page::FitResult::Fits: {
            PageIO &tw = io.page(*target, /*for_write=*/true);
            return page::insertRecord(
                tw, separator,
                std::span<const std::uint8_t>(payload, 12));
          }
          case page::FitResult::NeedsDefrag:
            FASP_RETURN_IF_ERROR(defragPage(io, *target));
            break;
          case page::FitResult::NeedsSplit:
            FASP_RETURN_IF_ERROR(splitPage(io, *target, separator));
            break;
        }
    }
    return statusCorruption("insertSeparator did not converge");
}

Status
BTree::splitPage(TxPageIO &io, PageId pid, std::uint64_t pending_key)
{
    PageIO &src = io.page(pid, /*for_write=*/false);
    std::uint16_t nrec = page::numRecords(src);
    if (nrec < 2)
        return statusPageFull("page too full to split (record size)");

    bool leaf = page::level(src) == 0;
    std::uint16_t level = page::level(src);
    std::uint16_t median = nrec / 2;
    std::uint16_t pos = page::lowerBound(src, pending_key).slot;
    std::uint64_t separator;
    std::uint16_t move_count;
    std::uint32_t left_aux;

    auto clamp = [&](std::uint16_t v) {
        return std::max<std::uint16_t>(
            1, std::min<std::uint16_t>(v, nrec - 1));
    };

    if (leaf) {
        // Figure 4 (1)-(3): the lower keys move to a new LEFT sibling;
        // the separator is the largest key moving left, so the parent
        // entry of the original page never changes. Taking at least
        // pos+1 records puts the pending key's slot into the fresh
        // sibling (Figure 4 inserts key 14 into the new page).
        move_count =
            pos < nrec ? clamp(std::max<std::uint16_t>(
                             median, static_cast<std::uint16_t>(
                                         pos + 1)))
                       : clamp(median);
        separator = page::recordKey(src, move_count - 1);
        left_aux = kInvalidPageId;
    } else {
        // Internal: slots [0, move_count) move left; the boundary
        // record's child becomes the left sibling's aux and its key is
        // promoted (not duplicated).
        move_count = clamp(std::max(median, pos));
        separator = page::recordKey(src, move_count);
        left_aux = page::childPid(src, move_count);
    }

    auto left_pid = io.allocPage();
    if (!left_pid.isOk())
        return left_pid.status();
    std::size_t moved_bytes = 0;
    for (std::uint16_t i = 0; i < move_count; ++i) {
        moved_bytes += page::record(src, i).payloadLen +
                       page::kRecordHeaderBytes + 1;
    }
    std::uint16_t reserve =
        leaf && io.maxLeafSlots() != 0
            ? page::kInPlaceReservedSlots
            : page::clampReserve(io.pageSize(),
                                 adaptiveReserve(move_count),
                                 moved_bytes, move_count);
    PageIO &left = io.page(*left_pid, /*for_write=*/true);
    page::init(left, leaf ? PageType::Leaf : PageType::Internal, level,
               left_aux, reserve);

    std::vector<std::uint8_t> payload;
    for (std::uint16_t i = 0; i < move_count; ++i) {
        std::uint64_t key = page::recordKey(src, i);
        page::readPayload(src, i, payload);
        FASP_RETURN_IF_ERROR(page::insertRecord(
            left, key, std::span<const std::uint8_t>(payload)));
    }

    // Drop the migrated slots (and, for internal pages, the promoted
    // median record) from the original page's slot header. The record
    // bytes stay: they are the pre-commit recovery image.
    std::uint16_t drop_count =
        leaf ? move_count : static_cast<std::uint16_t>(move_count + 1);
    PageIO &srcw = io.page(pid, /*for_write=*/true);
    std::vector<RecordRef> dropped;
    FASP_RETURN_IF_ERROR(
        page::dropLowerSlots(srcw, drop_count, &dropped));
    for (const RecordRef &ref : dropped)
        io.deferReclaim(pid, ref);

    // Figure 4 (4)-(5): link the new left sibling into the parent.
    return insertSeparator(io, separator, *left_pid, pid, level);
}

Status
BTree::makeRoom(TxPageIO &io, PageId pid, std::uint16_t payload_len,
                bool needs_new_slot, std::uint64_t pending_key)
{
    PageIO &view = io.page(pid, /*for_write=*/false);
    switch (page::checkFit(view, payload_len, needs_new_slot)) {
      case page::FitResult::Fits:
        return Status::ok();
      case page::FitResult::NeedsDefrag:
        return defragPage(io, pid);
      case page::FitResult::NeedsSplit:
        return splitPage(io, pid, pending_key);
    }
    return statusCorruption("unreachable");
}
// --- Public operations -------------------------------------------------------

Status
BTree::insert(TxPageIO &io, std::uint64_t key,
              std::span<const std::uint8_t> value)
{
    {
        Path path;
        FASP_RETURN_IF_ERROR(descend(io, key, path));
        PageIO &leaf = io.page(path.back(), /*for_write=*/false);
        if (page::lowerBound(leaf, key).found)
            return statusAlreadyExists("duplicate key");
    }

    std::vector<std::uint8_t> payload;
    {
        pm::PhaseScope phase(io.mutationComponent());
        FASP_RETURN_IF_ERROR(buildLeafPayload(io, key, value, payload));
    }

    for (int attempt = 0; attempt < 16; ++attempt) {
        Path path;
        FASP_RETURN_IF_ERROR(descend(io, key, path));
        PageId leaf_pid = path.back();
        pm::PhaseScope phase(io.mutationComponent());
        PageIO &leaf = io.page(leaf_pid, /*for_write=*/false);
        // FAST caps leaf slot counts so the header always fits one
        // cache line (paper 4.2); split early once the cap is hit.
        bool slot_capped =
            io.maxLeafSlots() != 0 &&
            page::numRecords(leaf) >= io.maxLeafSlots();
        if (slot_capped) {
            FASP_RETURN_IF_ERROR(splitPage(io, leaf_pid, key));
            continue;
        }
        if (page::checkFit(leaf,
                           static_cast<std::uint16_t>(payload.size()),
                           /*needs_new_slot=*/true) ==
            FitResult::Fits) {
            PageIO &lw = io.page(leaf_pid, /*for_write=*/true);
            return page::insertRecord(
                lw, key, std::span<const std::uint8_t>(payload));
        }
        FASP_RETURN_IF_ERROR(makeRoom(
            io, leaf_pid, static_cast<std::uint16_t>(payload.size()),
            /*needs_new_slot=*/true, key));
    }
    return statusCorruption("insert did not converge");
}

Status
BTree::update(TxPageIO &io, std::uint64_t key,
              std::span<const std::uint8_t> value)
{
    // Capture the old payload (overflow chain to release on success).
    std::vector<std::uint8_t> old_payload;
    {
        Path path;
        FASP_RETURN_IF_ERROR(descend(io, key, path));
        PageIO &leaf = io.page(path.back(), /*for_write=*/false);
        auto sr = page::lowerBound(leaf, key);
        if (!sr.found)
            return statusNotFound("update: missing key");
        page::readPayload(leaf, sr.slot, old_payload);
    }

    std::vector<std::uint8_t> payload;
    {
        pm::PhaseScope phase(io.mutationComponent());
        FASP_RETURN_IF_ERROR(buildLeafPayload(io, key, value, payload));
    }

    for (int attempt = 0; attempt < 16; ++attempt) {
        Path path;
        FASP_RETURN_IF_ERROR(descend(io, key, path));
        PageId leaf_pid = path.back();
        pm::PhaseScope phase(io.mutationComponent());
        PageIO &leaf = io.page(leaf_pid, /*for_write=*/false);
        auto sr = page::lowerBound(leaf, key);
        if (!sr.found)
            return statusCorruption("key vanished during update");
        if (page::checkFit(leaf,
                           static_cast<std::uint16_t>(payload.size()),
                           /*needs_new_slot=*/false) ==
            FitResult::Fits) {
            PageIO &lw = io.page(leaf_pid, /*for_write=*/true);
            RecordRef old_ref{};
            FASP_RETURN_IF_ERROR(page::updateRecord(
                lw, sr.slot, std::span<const std::uint8_t>(payload),
                &old_ref));
            io.deferReclaim(leaf_pid, old_ref);
            releaseOverflow(
                io, std::span<const std::uint8_t>(old_payload));
            return Status::ok();
        }
        FASP_RETURN_IF_ERROR(makeRoom(
            io, leaf_pid, static_cast<std::uint16_t>(payload.size()),
            /*needs_new_slot=*/false, key));
    }
    return statusCorruption("update did not converge");
}

Status
BTree::get(TxPageIO &io, std::uint64_t key,
           std::vector<std::uint8_t> &value)
{
    Path path;
    FASP_RETURN_IF_ERROR(descend(io, key, path));
    PageIO &leaf = io.page(path.back(), /*for_write=*/false);
    auto sr = page::lowerBound(leaf, key);
    if (!sr.found)
        return statusNotFound("key not found");
    std::vector<std::uint8_t> payload;
    page::readPayload(leaf, sr.slot, payload);
    return readLeafPayload(io, std::span<const std::uint8_t>(payload),
                           value);
}

Result<bool>
BTree::contains(TxPageIO &io, std::uint64_t key)
{
    Path path;
    Status status = descend(io, key, path);
    if (!status.isOk())
        return status;
    PageIO &leaf = io.page(path.back(), /*for_write=*/false);
    return page::lowerBound(leaf, key).found;
}

Status
BTree::erase(TxPageIO &io, std::uint64_t key)
{
    Path path;
    FASP_RETURN_IF_ERROR(descend(io, key, path));
    PageId leaf_pid = path.back();
    PageIO &leaf = io.page(leaf_pid, /*for_write=*/false);
    auto sr = page::lowerBound(leaf, key);
    if (!sr.found)
        return statusNotFound("erase: missing key");

    std::vector<std::uint8_t> payload;
    page::readPayload(leaf, sr.slot, payload);

    pm::PhaseScope phase(io.mutationComponent());
    PageIO &lw = io.page(leaf_pid, /*for_write=*/true);
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::eraseRecord(lw, sr.slot, &old_ref));
    io.deferReclaim(leaf_pid, old_ref);
    releaseOverflow(io, std::span<const std::uint8_t>(payload));
    if (page::numRecords(lw) == 0 && path.size() > 1)
        FASP_RETURN_IF_ERROR(pruneEmptyLeaf(io, path));
    return Status::ok();
}

Status
BTree::pruneEmptyLeaf(TxPageIO &io, const Path &path)
{
    // Unlink pages bottom-up along the descent path while they are
    // empty; collapse a separator-less internal root onto its child.
    for (std::size_t depth = path.size(); depth-- > 1;) {
        PageId child = path[depth];
        PageId parent_pid = path[depth - 1];
        PageIO &child_view = io.page(child, /*for_write=*/false);
        if (page::numRecords(child_view) != 0)
            return Status::ok();
        if (page::level(child_view) > 0 &&
            page::aux(child_view) != kInvalidPageId) {
            // An internal page with an aux child still routes keys.
            break;
        }

        PageIO &parent = io.page(parent_pid, /*for_write=*/false);
        std::uint16_t nrec = page::numRecords(parent);
        if (page::aux(parent) == child) {
            if (nrec == 0) {
                // Parent becomes childless: continue pruning upward
                // after detaching (mark its aux invalid).
                PageIO &pw = io.page(parent_pid, /*for_write=*/true);
                page::setAux(pw, kInvalidPageId);
                io.freePage(child);
                continue;
            }
            // The last separator's child becomes the new aux; its
            // upper bound widens to the parent's, which is valid
            // because the freed child held no keys.
            PageId promoted = page::childPid(
                parent, static_cast<std::uint16_t>(nrec - 1));
            PageIO &pw = io.page(parent_pid, /*for_write=*/true);
            page::setAux(pw, promoted);
            RecordRef old_ref{};
            FASP_RETURN_IF_ERROR(page::eraseRecord(
                pw, static_cast<std::uint16_t>(nrec - 1), &old_ref));
            io.deferReclaim(parent_pid, old_ref);
            io.freePage(child);
        } else {
            std::uint16_t slot = nrec;
            for (std::uint16_t i = 0; i < nrec; ++i) {
                if (page::childPid(parent, i) == child) {
                    slot = i;
                    break;
                }
            }
            if (slot == nrec)
                return statusCorruption(
                    "empty child missing from parent");
            // Dropping slot i folds its (key-less) range into the
            // next child's range — upper bounds stay valid.
            PageIO &pw = io.page(parent_pid, /*for_write=*/true);
            RecordRef old_ref{};
            FASP_RETURN_IF_ERROR(
                page::eraseRecord(pw, slot, &old_ref));
            io.deferReclaim(parent_pid, old_ref);
            io.freePage(child);
        }

        // Root collapse: an internal root left with no separators and
        // only an aux child is replaced by that child.
        if (depth - 1 == 0) {
            PageIO &root_view = io.page(parent_pid,
                                        /*for_write=*/false);
            if (page::level(root_view) > 0 &&
                page::numRecords(root_view) == 0 &&
                page::aux(root_view) != kInvalidPageId) {
                PageId only_child = page::aux(root_view);
                FASP_RETURN_IF_ERROR(setRoot(io, only_child));
                io.freePage(parent_pid);
            }
        }
        break;
    }
    return Status::ok();
}

// --- Scans / aggregation -----------------------------------------------------

Status
BTree::scan(TxPageIO &io, std::uint64_t lo, std::uint64_t hi,
            const std::function<bool(
                std::uint64_t, std::span<const std::uint8_t>)> &fn)
{
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();

    // Iterative DFS carrying pages in reverse order on a stack.
    std::vector<PageId> stack{*root};
    std::vector<std::uint8_t> payload;
    std::vector<std::uint8_t> value;
    std::size_t visited = 0;

    while (!stack.empty()) {
        PageId pid = stack.back();
        stack.pop_back();
        if (++visited > 1u << 24)
            return statusCorruption("scan visited too many pages");
        PageIO &view = io.page(pid, /*for_write=*/false);
        std::uint16_t nrec = page::numRecords(view);

        if (page::level(view) > 0) {
            // Children that can intersect [lo, hi], pushed in reverse
            // so the stack pops them in ascending key order.
            std::uint16_t start = page::lowerBound(view, lo).slot;
            std::vector<PageId> children;
            for (std::uint16_t i = start; i < nrec; ++i) {
                children.push_back(page::childPid(view, i));
                if (page::recordKey(view, i) >= hi)
                    break;
            }
            bool include_aux =
                nrec == 0 || page::recordKey(view, nrec - 1) < hi;
            if (include_aux && page::aux(view) != kInvalidPageId)
                children.push_back(page::aux(view));
            for (auto it = children.rbegin(); it != children.rend();
                 ++it) {
                stack.push_back(*it);
            }
            continue;
        }

        std::uint16_t start = page::lowerBound(view, lo).slot;
        for (std::uint16_t i = start; i < nrec; ++i) {
            std::uint64_t key = page::recordKey(view, i);
            if (key > hi)
                return Status::ok();
            page::readPayload(view, i, payload);
            FASP_RETURN_IF_ERROR(readLeafPayload(
                io, std::span<const std::uint8_t>(payload), value));
            if (!fn(key, std::span<const std::uint8_t>(value)))
                return Status::ok();
        }
    }
    return Status::ok();
}

Result<std::uint64_t>
BTree::lowerBoundKey(TxPageIO &io, std::uint64_t key)
{
    std::uint64_t found_key = 0;
    bool found = false;
    Status status = scan(io, key, ~std::uint64_t{0},
                         [&](std::uint64_t k,
                             std::span<const std::uint8_t>) {
                             found_key = k;
                             found = true;
                             return false;
                         });
    if (!status.isOk())
        return status;
    if (!found)
        return statusNotFound("no key >= bound");
    return found_key;
}

Result<std::uint64_t>
BTree::maxKey(TxPageIO &io)
{
    // Rightmost descent: follow aux children to the last leaf.
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    PageId pid = *root;
    for (std::size_t depth = 0; depth <= kMaxDepth; ++depth) {
        PageIO &view = io.page(pid, /*for_write=*/false);
        std::uint16_t nrec = page::numRecords(view);
        if (page::level(view) == 0) {
            if (nrec == 0)
                return statusNotFound("tree is empty");
            return page::recordKey(view, nrec - 1);
        }
        pid = page::aux(view);
        if (pid == kInvalidPageId)
            return statusCorruption("internal page missing aux");
    }
    return statusCorruption("maxKey descent too deep");
}

Result<std::uint64_t>
BTree::count(TxPageIO &io)
{
    std::uint64_t n = 0;
    Status status =
        scan(io, 0, ~std::uint64_t{0},
             [&](std::uint64_t, std::span<const std::uint8_t>) {
                 ++n;
                 return true;
             });
    if (!status.isOk())
        return status;
    return n;
}

Result<TreeStats>
BTree::stats(TxPageIO &io)
{
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    TreeStats out;
    std::vector<std::pair<PageId, std::uint32_t>> stack{{*root, 1}};
    std::vector<std::uint8_t> payload;
    while (!stack.empty()) {
        auto [pid, depth] = stack.back();
        stack.pop_back();
        PageIO &view = io.page(pid, /*for_write=*/false);
        out.depth = std::max(out.depth, depth);
        std::uint16_t nrec = page::numRecords(view);
        if (page::level(view) > 0) {
            out.internalPages++;
            for (std::uint16_t i = 0; i < nrec; ++i)
                stack.push_back({page::childPid(view, i), depth + 1});
            if (page::aux(view) != kInvalidPageId)
                stack.push_back({page::aux(view), depth + 1});
        } else {
            out.leafPages++;
            out.records += nrec;
            for (std::uint16_t i = 0; i < nrec; ++i) {
                page::readPayload(view, i, payload);
                if (payload.size() >= 17 &&
                    payload[8] == kOverflowRef) {
                    std::uint32_t total = loadU32(payload.data() + 13);
                    out.overflowPages += static_cast<std::uint32_t>(
                        (total + overflowCapacity(io.pageSize()) - 1) /
                        overflowCapacity(io.pageSize()));
                }
            }
        }
    }
    return out;
}

// --- Integrity ---------------------------------------------------------------

Status
BTree::checkSubtree(TxPageIO &io, PageId pid, std::uint16_t expect_level,
                    std::uint64_t lo, bool has_lo, std::uint64_t hi,
                    bool has_hi, std::uint32_t *leaf_depth,
                    std::uint32_t depth)
{
    if (depth > kMaxDepth)
        return statusCorruption("tree too deep");
    PageIO &view = io.page(pid, /*for_write=*/false);
    FASP_RETURN_IF_ERROR(page::checkIntegrity(view));
    if (page::level(view) != expect_level)
        return statusCorruption("level mismatch");

    std::uint16_t nrec = page::numRecords(view);
    for (std::uint16_t i = 0; i < nrec; ++i) {
        std::uint64_t key = page::recordKey(view, i);
        if (has_lo && key <= lo)
            return statusCorruption("key below subtree range");
        if (has_hi && key > hi)
            return statusCorruption("key above subtree range");
    }

    if (page::level(view) == 0) {
        if (*leaf_depth == 0)
            *leaf_depth = depth;
        else if (*leaf_depth != depth)
            return statusCorruption("leaves at unequal depth");
        // Overflow chains must be readable.
        std::vector<std::uint8_t> payload;
        std::vector<std::uint8_t> value;
        for (std::uint16_t i = 0; i < nrec; ++i) {
            page::readPayload(view, i, payload);
            FASP_RETURN_IF_ERROR(readLeafPayload(
                io, std::span<const std::uint8_t>(payload), value));
        }
        return Status::ok();
    }

    if (page::aux(view) == kInvalidPageId)
        return statusCorruption("internal page missing aux child");

    std::uint64_t prev = lo;
    bool have_prev = has_lo;
    for (std::uint16_t i = 0; i < nrec; ++i) {
        std::uint64_t sep = page::recordKey(view, i);
        FASP_RETURN_IF_ERROR(checkSubtree(
            io, page::childPid(view, i),
            static_cast<std::uint16_t>(expect_level - 1), prev,
            have_prev, sep, true, leaf_depth, depth + 1));
        prev = sep;
        have_prev = true;
    }
    return checkSubtree(io, page::aux(view),
                        static_cast<std::uint16_t>(expect_level - 1),
                        prev, have_prev, hi, has_hi, leaf_depth,
                        depth + 1);
}

Status
BTree::checkIntegrity(TxPageIO &io)
{
    auto root = rootPid(io);
    if (!root.isOk())
        return root.status();
    PageIO &view = io.page(*root, /*for_write=*/false);
    std::uint32_t leaf_depth = 0;
    return checkSubtree(io, *root, page::level(view), 0, false, 0,
                        false, &leaf_depth, 1);
}

} // namespace fasp::btree
