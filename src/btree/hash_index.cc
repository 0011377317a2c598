#include "btree/hash_index.h"

#include <set>

#include "btree/btree.h"
#include "common/byte_io.h"
#include "common/logging.h"

namespace fasp::btree {

namespace {

using page::PageIO;
using page::PageType;
using page::RecordRef;

/** Guard for corrupt chains. */
constexpr std::size_t kMaxChain = 1u << 16;

/** Serialize a 12-byte (key, pid) payload. */
void
makePidPayload(std::uint64_t key, PageId pid, std::uint8_t out[12])
{
    storeU64(out, key);
    storeU32(out + 8, pid);
}

/** Slot reservation of a fresh bucket page: a capped (FAST) leaf
 *  commits in place, so it keeps both slot-array lines record-free. */
std::uint16_t
bucketReserve(const TxPageIO &io)
{
    return io.maxLeafSlots() != 0 ? page::kInPlaceReservedSlots : 0;
}

} // namespace

std::uint64_t
HashIndex::mix(std::uint64_t key)
{
    std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
    h ^= h >> 32;
    h *= 0xd6e8feb86659fd93ull;
    h ^= h >> 32;
    return h;
}

// --- Creation / registration --------------------------------------------------

Result<HashIndex>
HashIndex::create(TxPageIO &io, TreeId id, std::uint32_t buckets)
{
    if (buckets == 0 || (buckets & (buckets - 1)) != 0)
        return statusInvalid("bucket count must be a power of two");

    PageIO &global = io.page(io.directoryPid(), /*for_write=*/false);
    if (page::lowerBound(global, id).found)
        return statusAlreadyExists("index id already registered");

    auto dir_pid = io.allocPage();
    if (!dir_pid.isOk())
        return dir_pid.status();
    PageIO &dir = io.page(*dir_pid, /*for_write=*/true);
    page::init(dir, PageType::Internal, 0, kInvalidPageId,
               /*reserved_slots=*/0);

    for (std::uint32_t b = 0; b < buckets; ++b) {
        auto head = io.allocPage();
        if (!head.isOk())
            return head.status();
        PageIO &leaf = io.page(*head, /*for_write=*/true);
        page::init(leaf, PageType::Leaf, 0, kInvalidPageId,
                   bucketReserve(io));

        std::uint8_t payload[12];
        makePidPayload(b, *head, payload);
        Status status = page::insertRecord(
            dir, b, std::span<const std::uint8_t>(payload, 12));
        if (status.code() == StatusCode::PageFull) {
            return statusInvalid(
                "bucket directory exceeds one page; use fewer buckets");
        }
        FASP_RETURN_IF_ERROR(status);
    }

    std::uint8_t payload[12];
    makePidPayload(id, *dir_pid, payload);
    PageIO &globalw = io.page(io.directoryPid(), /*for_write=*/true);
    FASP_RETURN_IF_ERROR(page::insertRecord(
        globalw, id, std::span<const std::uint8_t>(payload, 12)));
    return HashIndex(id);
}

Result<HashIndex>
HashIndex::open(TxPageIO &io, TreeId id)
{
    PageIO &global = io.page(io.directoryPid(), /*for_write=*/false);
    if (!page::lowerBound(global, id).found)
        return statusNotFound("no such index");
    return HashIndex(id);
}

Result<PageId>
HashIndex::directoryPage(TxPageIO &io)
{
    PageIO &global = io.page(io.directoryPid(), /*for_write=*/false);
    auto sr = page::lowerBound(global, id_);
    if (!sr.found)
        return statusNotFound("index not in directory");
    return page::childPid(global, sr.slot);
}

Status
HashIndex::drop(TxPageIO &io, TreeId id)
{
    HashIndex index(id);
    auto dir_pid = index.directoryPage(io);
    if (!dir_pid.isOk())
        return dir_pid.status();

    PageIO &dir = io.page(*dir_pid, /*for_write=*/false);
    std::uint16_t nrec = page::numRecords(dir);
    for (std::uint16_t b = 0; b < nrec; ++b) {
        PageId pid = page::childPid(dir, b);
        std::size_t guard = 0;
        while (pid != kInvalidPageId && ++guard < kMaxChain) {
            PageIO &leaf = io.page(pid, /*for_write=*/false);
            PageId next = page::aux(leaf);
            io.freePage(pid);
            pid = next;
        }
    }
    io.freePage(*dir_pid);

    PageIO &globalw = io.page(io.directoryPid(), /*for_write=*/true);
    auto sr = page::lowerBound(globalw, id);
    if (!sr.found)
        return statusCorruption("index vanished from directory");
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::eraseRecord(globalw, sr.slot, &old_ref));
    io.deferReclaim(io.directoryPid(), old_ref);
    return Status::ok();
}

// --- Lookup helpers ------------------------------------------------------------

Result<HashIndex::Bucket>
HashIndex::bucketFor(TxPageIO &io, PageId dir_pid, std::uint64_t key)
{
    PageIO &dir = io.page(dir_pid, /*for_write=*/false);
    std::uint16_t buckets = page::numRecords(dir);
    if (buckets == 0)
        return statusCorruption("empty bucket directory");
    Bucket bucket;
    bucket.index =
        static_cast<std::uint32_t>(mix(key) & (buckets - 1));
    auto sr = page::lowerBound(dir, bucket.index);
    if (!sr.found)
        return statusCorruption("bucket record missing");
    bucket.slot = sr.slot;
    bucket.head = page::childPid(dir, sr.slot);
    return bucket;
}

Result<HashIndex::Location>
HashIndex::find(TxPageIO &io, const Bucket &bucket, std::uint64_t key)
{
    pm::PhaseScope phase(pm::Component::Search);
    Location loc{kInvalidPageId, 0, false};
    PageId pid = bucket.head;
    std::size_t guard = 0;
    while (pid != kInvalidPageId) {
        if (++guard > kMaxChain)
            return statusCorruption("hash chain cycle");
        PageIO &leaf = io.page(pid, /*for_write=*/false);
        auto sr = page::lowerBound(leaf, key);
        if (sr.found) {
            loc.pid = pid;
            loc.slot = sr.slot;
            loc.found = true;
            return loc;
        }
        pid = page::aux(leaf);
    }
    return loc;
}

// --- Mutations -------------------------------------------------------------------

Status
HashIndex::insert(TxPageIO &io, std::uint64_t key,
                  std::span<const std::uint8_t> value)
{
    if (value.size() > BTree::maxInlineValue(io.pageSize())) {
        return Status(StatusCode::NotSupported,
                      "hash index values must fit inline");
    }
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    FASP_ASSIGN_OR_RETURN(Bucket bucket, bucketFor(io, dir_pid, key));
    FASP_ASSIGN_OR_RETURN(Location loc, find(io, bucket, key));
    if (loc.found)
        return statusAlreadyExists("duplicate key");

    std::vector<std::uint8_t> payload(8 + value.size());
    storeU64(payload.data(), key);
    std::copy(value.begin(), value.end(), payload.begin() + 8);
    auto payload_len = static_cast<std::uint16_t>(payload.size());

    pm::PhaseScope phase(io.mutationComponent());

    // First chain page with room wins; remember a defraggable one.
    PageId pid = bucket.head;
    PageId prev = kInvalidPageId;
    PageId defrag_candidate = kInvalidPageId;
    PageId defrag_prev = kInvalidPageId;
    std::size_t guard = 0;
    while (pid != kInvalidPageId && ++guard <= kMaxChain) {
        PageIO &leaf = io.page(pid, /*for_write=*/false);
        bool capped = io.maxLeafSlots() != 0 &&
                      page::numRecords(leaf) >= io.maxLeafSlots();
        if (!capped) {
            switch (page::checkFit(leaf, payload_len, true)) {
              case page::FitResult::Fits: {
                PageIO &lw = io.page(pid, /*for_write=*/true);
                return page::insertRecord(
                    lw, key, std::span<const std::uint8_t>(payload));
              }
              case page::FitResult::NeedsDefrag:
                if (defrag_candidate == kInvalidPageId) {
                    defrag_candidate = pid;
                    defrag_prev = prev;
                }
                break;
              case page::FitResult::NeedsSplit:
                break;
            }
        }
        prev = pid;
        pid = page::aux(leaf);
    }

    if (defrag_candidate != kInvalidPageId) {
        // Copy-on-write compaction (paper §4.3), repointing either the
        // predecessor's aux or the directory record — both atomic
        // header updates.
        pm::PhaseScope defrag_phase(pm::Component::Defrag);
        auto fresh = io.allocPage();
        if (!fresh.isOk())
            return fresh.status();
        PageIO &src = io.page(defrag_candidate, /*for_write=*/false);
        PageIO &dst = io.page(*fresh, /*for_write=*/true);
        FASP_RETURN_IF_ERROR(page::defragmentInto(src, dst));

        if (defrag_prev == kInvalidPageId) {
            std::uint8_t dir_payload[12];
            makePidPayload(bucket.index, *fresh, dir_payload);
            PageIO &dirw = io.page(dir_pid, /*for_write=*/true);
            RecordRef old_ref{};
            FASP_RETURN_IF_ERROR(page::updateRecord(
                dirw, bucket.slot,
                std::span<const std::uint8_t>(dir_payload, 12),
                &old_ref));
            io.deferReclaim(dir_pid, old_ref);
        } else {
            PageIO &prevw = io.page(defrag_prev, /*for_write=*/true);
            page::setAux(prevw, *fresh);
        }
        io.freePage(defrag_candidate);

        PageIO &dst_again = io.page(*fresh, /*for_write=*/true);
        if (page::checkFit(dst_again, payload_len, true) ==
            page::FitResult::Fits) {
            return page::insertRecord(
                dst_again, key,
                std::span<const std::uint8_t>(payload));
        }
        // Fall through: even compacted it will not fit; grow the chain.
    }

    // Grow the chain: fresh page prepended with one directory-record
    // update (a single atomic slot redirect).
    auto fresh = io.allocPage();
    if (!fresh.isOk())
        return fresh.status();
    PageIO &leaf = io.page(*fresh, /*for_write=*/true);
    page::init(leaf, PageType::Leaf, 0, bucket.head,
               bucketReserve(io));
    FASP_RETURN_IF_ERROR(page::insertRecord(
        leaf, key, std::span<const std::uint8_t>(payload)));

    std::uint8_t dir_payload[12];
    makePidPayload(bucket.index, *fresh, dir_payload);
    PageIO &dirw = io.page(dir_pid, /*for_write=*/true);
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::updateRecord(
        dirw, bucket.slot,
        std::span<const std::uint8_t>(dir_payload, 12), &old_ref));
    io.deferReclaim(dir_pid, old_ref);
    return Status::ok();
}

Status
HashIndex::update(TxPageIO &io, std::uint64_t key,
                  std::span<const std::uint8_t> value)
{
    if (value.size() > BTree::maxInlineValue(io.pageSize())) {
        return Status(StatusCode::NotSupported,
                      "hash index values must fit inline");
    }
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    FASP_ASSIGN_OR_RETURN(Bucket bucket, bucketFor(io, dir_pid, key));
    FASP_ASSIGN_OR_RETURN(Location loc, find(io, bucket, key));
    if (!loc.found)
        return statusNotFound("update: missing key");

    std::vector<std::uint8_t> payload(8 + value.size());
    storeU64(payload.data(), key);
    std::copy(value.begin(), value.end(), payload.begin() + 8);

    pm::PhaseScope phase(io.mutationComponent());
    PageIO &view = io.page(loc.pid, /*for_write=*/false);
    if (page::checkFit(view,
                       static_cast<std::uint16_t>(payload.size()),
                       /*needs_new_slot=*/false) ==
        page::FitResult::Fits) {
        PageIO &lw = io.page(loc.pid, /*for_write=*/true);
        RecordRef old_ref{};
        FASP_RETURN_IF_ERROR(page::updateRecord(
            lw, loc.slot, std::span<const std::uint8_t>(payload),
            &old_ref));
        io.deferReclaim(loc.pid, old_ref);
        return Status::ok();
    }

    // No room in place: move the record (erase + reinsert may land on
    // another chain page; the multi-page case simply commits through
    // the slot-header log).
    PageIO &lw = io.page(loc.pid, /*for_write=*/true);
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::eraseRecord(lw, loc.slot, &old_ref));
    io.deferReclaim(loc.pid, old_ref);
    return insert(io, key, value);
}

Status
HashIndex::get(TxPageIO &io, std::uint64_t key,
               std::vector<std::uint8_t> &value)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    FASP_ASSIGN_OR_RETURN(Bucket bucket, bucketFor(io, dir_pid, key));
    FASP_ASSIGN_OR_RETURN(Location loc, find(io, bucket, key));
    if (!loc.found)
        return statusNotFound("key not found");
    PageIO &leaf = io.page(loc.pid, /*for_write=*/false);
    std::vector<std::uint8_t> payload;
    page::readPayload(leaf, loc.slot, payload);
    value.assign(payload.begin() + 8, payload.end());
    return Status::ok();
}

Result<bool>
HashIndex::contains(TxPageIO &io, std::uint64_t key)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    FASP_ASSIGN_OR_RETURN(Bucket bucket, bucketFor(io, dir_pid, key));
    FASP_ASSIGN_OR_RETURN(Location loc, find(io, bucket, key));
    return loc.found;
}

Status
HashIndex::erase(TxPageIO &io, std::uint64_t key)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    FASP_ASSIGN_OR_RETURN(Bucket bucket, bucketFor(io, dir_pid, key));
    FASP_ASSIGN_OR_RETURN(Location loc, find(io, bucket, key));
    if (!loc.found)
        return statusNotFound("erase: missing key");
    pm::PhaseScope phase(io.mutationComponent());
    PageIO &lw = io.page(loc.pid, /*for_write=*/true);
    RecordRef old_ref{};
    FASP_RETURN_IF_ERROR(page::eraseRecord(lw, loc.slot, &old_ref));
    io.deferReclaim(loc.pid, old_ref);
    return Status::ok();
}

// --- Iteration / stats -----------------------------------------------------------

Status
HashIndex::forEach(TxPageIO &io,
                   const std::function<bool(
                       std::uint64_t,
                       std::span<const std::uint8_t>)> &fn)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    PageIO &dir = io.page(dir_pid, /*for_write=*/false);
    std::uint16_t buckets = page::numRecords(dir);
    std::vector<std::uint8_t> payload;
    for (std::uint16_t b = 0; b < buckets; ++b) {
        PageId pid = page::childPid(dir, b);
        std::size_t guard = 0;
        while (pid != kInvalidPageId && ++guard <= kMaxChain) {
            PageIO &leaf = io.page(pid, /*for_write=*/false);
            std::uint16_t nrec = page::numRecords(leaf);
            for (std::uint16_t i = 0; i < nrec; ++i) {
                std::uint64_t key = page::recordKey(leaf, i);
                page::readPayload(leaf, i, payload);
                if (!fn(key, std::span<const std::uint8_t>(
                                 payload.data() + 8,
                                 payload.size() - 8))) {
                    return Status::ok();
                }
            }
            pid = page::aux(leaf);
        }
    }
    return Status::ok();
}

Result<std::uint64_t>
HashIndex::count(TxPageIO &io)
{
    std::uint64_t n = 0;
    Status status =
        forEach(io, [&](std::uint64_t, std::span<const std::uint8_t>) {
            ++n;
            return true;
        });
    if (!status.isOk())
        return status;
    return n;
}

Result<HashStats>
HashIndex::stats(TxPageIO &io)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    PageIO &dir = io.page(dir_pid, /*for_write=*/false);
    HashStats out;
    out.buckets = page::numRecords(dir);
    for (std::uint16_t b = 0; b < out.buckets; ++b) {
        PageId pid = page::childPid(dir, b);
        std::uint32_t chain = 0;
        std::size_t guard = 0;
        while (pid != kInvalidPageId && ++guard <= kMaxChain) {
            PageIO &leaf = io.page(pid, /*for_write=*/false);
            out.records += page::numRecords(leaf);
            ++chain;
            pid = page::aux(leaf);
        }
        out.pages += chain;
        out.longestChain = std::max(out.longestChain, chain);
    }
    return out;
}

Status
HashIndex::checkIntegrity(TxPageIO &io)
{
    FASP_ASSIGN_OR_RETURN(PageId dir_pid, directoryPage(io));
    PageIO &dir = io.page(dir_pid, /*for_write=*/false);
    FASP_RETURN_IF_ERROR(page::checkIntegrity(dir));

    std::uint16_t buckets = page::numRecords(dir);
    if (buckets == 0 || (buckets & (buckets - 1)) != 0)
        return statusCorruption("bucket count not a power of two");

    for (std::uint16_t b = 0; b < buckets; ++b) {
        if (page::recordKey(dir, b) != b)
            return statusCorruption("bucket directory keys not dense");
        std::set<std::uint64_t> seen;
        PageId pid = page::childPid(dir, b);
        std::size_t guard = 0;
        while (pid != kInvalidPageId) {
            if (++guard > kMaxChain)
                return statusCorruption("hash chain cycle");
            PageIO &leaf = io.page(pid, /*for_write=*/false);
            FASP_RETURN_IF_ERROR(page::checkIntegrity(leaf));
            if (page::pageType(leaf) != PageType::Leaf)
                return statusCorruption("chain page has wrong type");
            std::uint16_t nrec = page::numRecords(leaf);
            for (std::uint16_t i = 0; i < nrec; ++i) {
                std::uint64_t key = page::recordKey(leaf, i);
                if ((mix(key) & (buckets - 1)) != b)
                    return statusCorruption("record in wrong bucket");
                if (!seen.insert(key).second)
                    return statusCorruption("duplicate key in bucket");
            }
            pid = page::aux(leaf);
        }
    }
    return Status::ok();
}

} // namespace fasp::btree
