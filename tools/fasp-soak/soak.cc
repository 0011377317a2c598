#include "soak.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "common/logging.h"
#include "common/rng.h"
#include "forensics.h"
#include "obs/flight_recorder.h"
#include "page/page_io.h"
#include "page/slotted_page.h"
#include "pager/superblock.h"
#include "pm/checker.h"
#include "pm/crash.h"
#include "pm/device.h"
#include "workload/workload.h"

namespace fasp::soak {
namespace {

using btree::BTree;
using core::Engine;
using core::EngineConfig;
using core::EngineKind;
using pm::CrashPolicy;
using pm::PmDevice;

/** Reference model of committed database contents. */
using Model = std::map<std::uint64_t, std::vector<std::uint8_t>>;

/** Must-fail injection: silently discard every Nth flush. */
class PeriodicFlushDropper : public pm::FlushDropper
{
  public:
    explicit PeriodicFlushDropper(std::uint64_t every) : every_(every) {}

    bool shouldDrop(PmOffset, std::uint64_t) override
    {
        return every_ > 0 &&
               count_.fetch_add(1, std::memory_order_relaxed) % every_ ==
                   every_ - 1;
    }

  private:
    std::uint64_t every_;
    std::atomic<std::uint64_t> count_{0};
};

/** One crash-policy choice per round; forceFallback detours FAST's
 *  in-place commit through the slot-header log. FAST's PCAS in-place
 *  commit publishes one 8-byte word, so it survives TornLines both in
 *  place and through the log (DESIGN.md §14). */
struct PolicyChoice
{
    CrashPolicy policy;
    bool forceFallback;
};

std::vector<PolicyChoice>
legalPolicies(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Fast:
        return {{CrashPolicy::DropAll, false},
                {CrashPolicy::RandomLines, false},
                {CrashPolicy::TornLines, false},
                {CrashPolicy::TornLines, true}};
      case EngineKind::Fash:
      case EngineKind::Nvwal:
        return {{CrashPolicy::DropAll, false},
                {CrashPolicy::RandomLines, false},
                {CrashPolicy::TornLines, false}};
      case EngineKind::LegacyWal:
      case EngineKind::Journal:
        return {{CrashPolicy::DropAll, false},
                {CrashPolicy::RandomLines, false}};
    }
    faspPanic("bad engine kind");
}

const char *
policyName(CrashPolicy policy)
{
    switch (policy) {
      case CrashPolicy::DropAll: return "DropAll";
      case CrashPolicy::RandomLines: return "RandomLines";
      case CrashPolicy::TornLines: return "TornLines";
    }
    return "?";
}

/** One soak operation, with the concrete bytes it writes so the model
 *  can be updated (or the in-flight ambiguity probed) exactly. */
struct SoakOp
{
    enum Kind { Insert, Update, Erase, Read, Scan, Rmw } kind;
    std::uint64_t key = 0;
    std::uint32_t scanLen = 0;
    std::vector<std::uint8_t> value;

    bool mutates() const
    {
        return kind == Insert || kind == Update || kind == Erase ||
               kind == Rmw;
    }

    const char *
    name() const
    {
        switch (kind) {
          case Insert: return "insert";
          case Update: return "update";
          case Erase: return "erase";
          case Read: return "read";
          case Scan: return "scan";
          case Rmw: return "rmw";
        }
        return "?";
    }

    void
    apply(Model &model) const
    {
        switch (kind) {
          case Insert:
          case Update:
          case Rmw:
            model[key] = value;
            break;
          case Erase:
            model.erase(key);
            break;
          case Read:
          case Scan:
            break;
        }
    }
};

/** Generates the op stream: a YCSB mix or the delete/defrag churn. */
class OpSource
{
  public:
    OpSource(const SoakOptions &opt)
        : churn_(opt.mix == "churn"), valueRng_(opt.seed ^ 0xabcdef),
          values_(workload::ValueGen::fixed(opt.valueSize, opt.seed + 5))
    {
        if (churn_) {
            churnStream_.emplace(opt.seed + 11);
        } else {
            FASP_ASSERT(opt.mix.size() == 1);
            workload::YcsbWorkload::Options wl;
            wl.mix = workload::ycsbMix(opt.mix[0]);
            wl.seed = opt.seed + 11;
            wl.preload = opt.preload;
            wl.order = workload::KeyOrder::Hashed;
            ycsb_.emplace(wl);
        }
    }

    bool churn() const { return churn_; }

    /** Keys the YCSB preload phase must insert (churn preloads by
     *  just running the stream). */
    std::uint64_t preloadKey(std::uint64_t i) const
    {
        return ycsb_->keyOfIndex(i);
    }

    SoakOp
    next()
    {
        SoakOp op;
        if (churn_) {
            workload::DeleteDefragStream::Step step =
                churnStream_->next();
            op.key = step.key;
            switch (step.type) {
              case workload::OpType::Insert:
                op.kind = SoakOp::Insert;
                break;
              case workload::OpType::Update:
                op.kind = SoakOp::Update;
                break;
              case workload::OpType::Delete:
                op.kind = SoakOp::Erase;
                break;
              case workload::OpType::Lookup:
                op.kind = SoakOp::Read;
                break;
            }
            if (op.kind == SoakOp::Insert || op.kind == SoakOp::Update) {
                op.value.resize(step.valueSize);
                valueRng_.fillBytes(op.value.data(), op.value.size());
            }
            return op;
        }
        workload::YcsbOpSpec spec = ycsb_->next();
        op.key = spec.key;
        op.scanLen = spec.scanLen;
        switch (spec.type) {
          case workload::YcsbOp::Read: op.kind = SoakOp::Read; break;
          case workload::YcsbOp::Update: op.kind = SoakOp::Update; break;
          case workload::YcsbOp::Insert: op.kind = SoakOp::Insert; break;
          case workload::YcsbOp::Scan: op.kind = SoakOp::Scan; break;
          case workload::YcsbOp::ReadModifyWrite:
            op.kind = SoakOp::Rmw;
            break;
        }
        if (op.mutates()) {
            values_.next(op.value);
            // Stamp a fresh low word so successive writes to one key
            // are distinguishable when probing in-flight ambiguity.
            std::uint64_t nonce = valueRng_.next();
            std::memcpy(op.value.data(), &nonce,
                        std::min(op.value.size(), sizeof nonce));
        }
        return op;
    }

  private:
    bool churn_;
    Rng valueRng_;
    workload::ValueGen values_;
    std::optional<workload::YcsbWorkload> ycsb_;
    std::optional<workload::DeleteDefragStream> churnStream_;
};

class Soak
{
  public:
    explicit Soak(const SoakOptions &opt)
        : opt_(opt), source_(opt), rng_(opt.seed * 2654435761u + 99),
          policies_(legalPolicies(opt.kind)),
          dropper_(opt.dropFlushEvery)
    {}

    SoakResult run();

  private:
    EngineConfig engineConfig(bool forceFallback) const;
    bool setUp();
    void violation(std::string message);
    void logRound(const std::string &line) const;
    std::optional<std::string> runOp(const SoakOp &op);
    void verifyFull(const char *where);
    void fsckSweep(const char *where, bool trustScratch);
    void checkCheckerDelta(const char *where);
    bool crashRecoverVerify(const SoakOp &inflight,
                            std::uint64_t expectedTxid,
                            std::uint64_t round);
    void maybeDumpImage(std::uint64_t round);
    void captureTxidBase();

    SoakOptions opt_;
    OpSource source_;
    Rng rng_;
    std::vector<PolicyChoice> policies_;
    PeriodicFlushDropper dropper_;

    std::unique_ptr<PmDevice> device_;
    pm::PersistencyChecker checker_;
    std::unique_ptr<Engine> engine_;
    std::optional<BTree> tree_;
    Model model_;
    SoakResult result_;
    std::uint64_t checkerSeen_ = 0;
    double eventsPerOp_ = 32.0;
    std::uint64_t round_ = 0;
    std::uint64_t txidBase_ = 0;
    std::uint64_t txBegunBase_ = 0;
};

EngineConfig
Soak::engineConfig(bool forceFallback) const
{
    EngineConfig cfg;
    cfg.kind = opt_.kind;
    cfg.format.logLen = 2u << 20;
    cfg.volatileCachePages = 512;
    if (forceFallback) {
        cfg.pcas.failProbability = 1.0;
        cfg.pcas.maxRetries = 1;
    }
    return cfg;
}

/** Snapshot a (txid, txBegun) pair from a probe transaction so the
 *  in-flight txid at crash time can be projected as base + delta. */
void
Soak::captureTxidBase()
{
    auto tx = engine_->begin();
    txidBase_ = tx->id();
    txBegunBase_ = engine_->stats().txBegun.load();
    tx->rollback();
}

void
Soak::violation(std::string message)
{
    result_.violations++;
    if (result_.violationMessages.size() < 20)
        result_.violationMessages.push_back(message);
    std::fprintf(stderr, "fasp-soak: VIOLATION: %s\n", message.c_str());
}

void
Soak::logRound(const std::string &line) const
{
    if (opt_.verbose) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
    }
}

bool
Soak::setUp()
{
    pm::PmConfig pmcfg;
    pmcfg.size = 24u << 20;
    pmcfg.mode = pm::PmMode::CacheSim;
    pmcfg.crashPolicy = policies_[0].policy;
    pmcfg.crashSeed = opt_.seed * 7919 + 13;
    device_ = std::make_unique<PmDevice>(pmcfg);
    device_->setChecker(&checker_);

    auto engine_res = Engine::create(*device_, engineConfig(
                                         policies_[0].forceFallback),
                                     /*format=*/true);
    if (!engine_res.isOk()) {
        violation("engine create failed: " +
                  engine_res.status().toString());
        return false;
    }
    engine_ = std::move(*engine_res);
    auto tree_res = engine_->createTree(1);
    if (!tree_res.isOk()) {
        violation("tree create failed: " + tree_res.status().toString());
        return false;
    }
    tree_ = *tree_res;

    // Preload (not crash-injected, not flush-dropped): YCSB loads the
    // keyspace; churn warms up by running the stream itself.
    if (source_.churn()) {
        for (std::uint64_t i = 0; i < opt_.preload; ++i) {
            SoakOp op = source_.next();
            if (auto err = runOp(op)) {
                violation("preload: " + *err);
                return false;
            }
        }
    } else {
        workload::ValueGen values =
            workload::ValueGen::fixed(opt_.valueSize, opt_.seed + 5);
        std::vector<std::uint8_t> value;
        for (std::uint64_t i = 0; i < opt_.preload; ++i) {
            std::uint64_t key = source_.preloadKey(i);
            values.next(value);
            Status status = engine_->insert(
                *tree_, key, std::span<const std::uint8_t>(value));
            if (status.isOk()) {
                model_[key] = value;
            } else if (status.code() != StatusCode::AlreadyExists) {
                violation("preload insert failed: " + status.toString());
                return false;
            }
        }
    }
    captureTxidBase();
    return true;
}

/** Execute one op and reconcile the result with the model. Returns a
 *  violation message on divergence. CrashException propagates. */
std::optional<std::string>
Soak::runOp(const SoakOp &op)
{
    auto keyStr = [&] { return std::to_string(op.key); };
    switch (op.kind) {
      case SoakOp::Insert: {
        Status status = engine_->insert(
            *tree_, op.key, std::span<const std::uint8_t>(op.value));
        bool present = model_.count(op.key) > 0;
        if (status.isOk()) {
            if (present)
                return "insert succeeded on existing key " + keyStr();
            model_[op.key] = op.value;
            return std::nullopt;
        }
        if (status.code() == StatusCode::AlreadyExists && present)
            return std::nullopt;
        return "insert key " + keyStr() + ": " + status.toString();
      }
      case SoakOp::Update: {
        Status status = engine_->update(
            *tree_, op.key, std::span<const std::uint8_t>(op.value));
        bool present = model_.count(op.key) > 0;
        if (status.isOk()) {
            if (!present)
                return "update succeeded on absent key " + keyStr();
            model_[op.key] = op.value;
            return std::nullopt;
        }
        if (status.code() == StatusCode::NotFound && !present)
            return std::nullopt;
        return "update key " + keyStr() + ": " + status.toString();
      }
      case SoakOp::Erase: {
        Status status = engine_->erase(*tree_, op.key);
        bool present = model_.count(op.key) > 0;
        if (status.isOk()) {
            if (!present)
                return "erase succeeded on absent key " + keyStr();
            model_.erase(op.key);
            return std::nullopt;
        }
        if (status.code() == StatusCode::NotFound && !present)
            return std::nullopt;
        return "erase key " + keyStr() + ": " + status.toString();
      }
      case SoakOp::Read: {
        std::vector<std::uint8_t> out;
        Status status = engine_->get(*tree_, op.key, out);
        auto it = model_.find(op.key);
        if (status.isOk()) {
            if (it == model_.end())
                return "read found phantom key " + keyStr();
            if (out != it->second)
                return "read key " + keyStr() + ": value diverges "
                       "from model";
            return std::nullopt;
        }
        if (status.code() == StatusCode::NotFound &&
            it == model_.end())
            return std::nullopt;
        return "read key " + keyStr() + ": " + status.toString();
      }
      case SoakOp::Scan: {
        std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>>
            got;
        std::uint32_t remaining = op.scanLen ? op.scanLen : 1;
        Status status = engine_->scan(
            *tree_, op.key, ~std::uint64_t{0},
            [&](std::uint64_t k, std::span<const std::uint8_t> v) {
                got.emplace_back(
                    k, std::vector<std::uint8_t>(v.begin(), v.end()));
                return --remaining > 0;
            });
        if (!status.isOk())
            return "scan from " + keyStr() + ": " + status.toString();
        auto it = model_.lower_bound(op.key);
        for (std::size_t i = 0; i < got.size(); ++i, ++it) {
            if (it == model_.end())
                return "scan from " + keyStr() + ": phantom key " +
                       std::to_string(got[i].first);
            if (got[i].first != it->first ||
                got[i].second != it->second)
                return "scan from " + keyStr() + ": diverges from "
                       "model at key " + std::to_string(got[i].first);
        }
        // The scan may legally end early only at the end of the tree.
        std::uint32_t want = op.scanLen ? op.scanLen : 1;
        if (got.size() < want && it != model_.end())
            return "scan from " + keyStr() + ": stopped early (" +
                   std::to_string(got.size()) + " of " +
                   std::to_string(want) + ")";
        return std::nullopt;
      }
      case SoakOp::Rmw: {
        auto tx = engine_->begin();
        std::vector<std::uint8_t> out;
        Status status = tree_->get(tx->pageIO(), op.key, out);
        auto it = model_.find(op.key);
        if (!status.isOk()) {
            tx->rollback();
            if (status.code() == StatusCode::NotFound &&
                it == model_.end())
                return std::nullopt;
            return "rmw read key " + keyStr() + ": " +
                   status.toString();
        }
        if (it == model_.end()) {
            tx->rollback();
            return "rmw read found phantom key " + keyStr();
        }
        if (out != it->second) {
            tx->rollback();
            return "rmw read key " + keyStr() + ": value diverges";
        }
        status = tree_->update(tx->pageIO(), op.key,
                               std::span<const std::uint8_t>(op.value));
        if (!status.isOk()) {
            tx->rollback();
            return "rmw update key " + keyStr() + ": " +
                   status.toString();
        }
        status = tx->commit();
        if (!status.isOk())
            return "rmw commit key " + keyStr() + ": " +
                   status.toString();
        model_[op.key] = op.value;
        return std::nullopt;
      }
    }
    return "bad op";
}

/** Full-tree verification against the model: structural integrity,
 *  exact key/value set. */
void
Soak::verifyFull(const char *where)
{
    auto tx = engine_->begin();
    Status integrity = tree_->checkIntegrity(tx->pageIO());
    if (!integrity.isOk()) {
        violation(std::string(where) +
                  ": integrity: " + integrity.toString());
        tx->rollback();
        return;
    }
    std::size_t scanned = 0;
    bool diverged = false;
    Status status = tree_->scan(
        tx->pageIO(), 0, ~std::uint64_t{0},
        [&](std::uint64_t k, std::span<const std::uint8_t> v) {
            auto it = model_.find(k);
            if (it == model_.end()) {
                violation(std::string(where) + ": phantom key " +
                          std::to_string(k));
                diverged = true;
            } else if (!std::equal(v.begin(), v.end(),
                                   it->second.begin(),
                                   it->second.end())) {
                violation(std::string(where) + ": value mismatch for "
                          "key " + std::to_string(k));
                diverged = true;
            }
            ++scanned;
            return true;
        });
    tx->rollback();
    if (!status.isOk()) {
        violation(std::string(where) + ": scan: " + status.toString());
        return;
    }
    if (!diverged && scanned != model_.size())
        violation(std::string(where) + ": tree holds " +
                  std::to_string(scanned) + " keys, model " +
                  std::to_string(model_.size()));
}

/** Run the two-tier slotted fsck over every page reachable from the
 *  tree root. Reachability is the soundness boundary: a crash mid
 *  page-allocation legally leaves a formatted-but-unlinked page with
 *  torn content, and freed pages keep a stale Leaf type byte over
 *  recycled bytes, so a whole-device sweep (Explorer::fsckSweep's
 *  shape) flags states that are fine. Pages are read through the
 *  transaction view, not the raw device — buffered engines keep
 *  not-yet-checkpointed pages only in cache, where the durable copy
 *  legitimately lags. trustScratch mirrors the explorer: strict at
 *  quiescent points, lenient right after a crash (intra-page free
 *  lists may be torn until lazily rebuilt). */
void
Soak::fsckSweep(const char *where, bool trustScratch)
{
    auto tx = engine_->begin();
    btree::TxPageIO &io = tx->pageIO();
    auto root = tree_->rootPid(io);
    if (!root.isOk()) {
        violation(std::string(where) + ": fsck: no tree root: " +
                  root.status().toString());
        tx->rollback();
        return;
    }
    const pager::Superblock &sb = engine_->superblock();
    std::vector<PageId> stack = {*root};
    std::uint64_t visited = 0;
    while (!stack.empty()) {
        PageId pid = stack.back();
        stack.pop_back();
        if (++visited > sb.pageCount) {
            violation(std::string(where) +
                      ": fsck: reachability walk escaped (cycle?)");
            break;
        }
        page::PageIO &view = io.page(pid, /*for_write=*/false);
        if (page::pageType(view) == page::PageType::Internal) {
            std::uint16_t nrec = page::numRecords(view);
            for (std::uint16_t i = 0; i < nrec; ++i)
                stack.push_back(page::childPid(view, i));
            stack.push_back(page::aux(view));
        }
        Status s = page::slottedFsck(view, trustScratch);
        if (!s.isOk())
            violation(std::string(where) + ": fsck page " +
                      std::to_string(pid) + ": " + s.toString());
        result_.fsckPagesChecked++;
    }
    tx->rollback();
}

void
Soak::checkCheckerDelta(const char *where)
{
    std::uint64_t total = checker_.report().total();
    if (total > checkerSeen_) {
        result_.checkerViolations += total - checkerSeen_;
        violation(std::string(where) + ": persistency checker: " +
                  checker_.report().toString());
        checkerSeen_ = total;
    }
}

void
Soak::maybeDumpImage(std::uint64_t round)
{
    if (opt_.dumpDir.empty())
        return;
    std::string path = opt_.dumpDir + "/soak_" +
                       core::engineKindName(opt_.kind) + "_round" +
                       std::to_string(round) + ".img";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(device_->durableData()),
              static_cast<std::streamsize>(device_->size()));
    std::fprintf(stderr, "fasp-soak: dumped failing image to %s\n",
                 path.c_str());
}

/**
 * The post-crash half of a round: offline forensics on the durable
 * image, recovery, the flight-recorder model oracle for the in-flight
 * op, then full model + fsck + checker verification.
 * @return false if the engine could not be brought back.
 */
bool
Soak::crashRecoverVerify(const SoakOp &inflight,
                         std::uint64_t expectedTxid, std::uint64_t round)
{
    std::uint64_t violations_before = result_.violations;
    engine_.reset();
    tree_.reset();

    // Offline forensics over the pre-recovery image, as the CLI would
    // see it.
    forensics::CrashReport report = forensics::analyzeImage(
        device_->durableData(), device_->size());
    if (!report.sb.present || !report.sb.crcOk)
        violation("forensics: superblock undecodable after crash");
    if (!report.timeline.headerOk)
        violation("forensics: flight recorder undecodable after crash");

    // Slice the timeline to the current engine incarnation: records
    // after the last durable RecoveryEnd. (Txids restart at 1 per
    // incarnation; the ring evicts oldest-first, so if this
    // incarnation's RecoveryEnd was overwritten, every older record
    // is gone too and the whole ring is ours.)
    std::uint64_t slice_seq = 0;
    for (const obs::FlightRecord &rec : report.timeline.records) {
        if (rec.type == obs::FlightEventType::RecoveryEnd)
            slice_seq = rec.seq;
    }
    bool begin_durable = false;
    bool commit_durable = false;
    for (const obs::FlightRecord &rec : report.timeline.records) {
        if (rec.seq <= slice_seq || rec.txid != expectedTxid)
            continue;
        if (rec.type == obs::FlightEventType::OpBegin)
            begin_durable = true;
        if (rec.type == obs::FlightEventType::CommitPoint)
            commit_durable = true;
    }
    // Cross-check the forensics in-flight inference: when it names an
    // op, it must be ours.
    if (report.inflight.found &&
        report.inflight.txid != expectedTxid &&
        report.inflight.beginSeq > slice_seq)
        violation("forensics: in-flight inference names tx " +
                  std::to_string(report.inflight.txid) + ", expected " +
                  std::to_string(expectedTxid));

    device_->reviveAfterCrash();
    PolicyChoice next = policies_[(round + 1) % policies_.size()];
    auto engine_res = Engine::create(
        *device_, engineConfig(next.forceFallback), /*format=*/false);
    if (!engine_res.isOk()) {
        violation("recovery failed: " + engine_res.status().toString());
        maybeDumpImage(round);
        return false;
    }
    engine_ = std::move(*engine_res);
    {
        auto tx = engine_->begin();
        auto tree_res = BTree::open(tx->pageIO(), 1);
        tx->rollback();
        if (!tree_res.isOk()) {
            violation("tree reopen failed: " +
                      tree_res.status().toString());
            maybeDumpImage(round);
            return false;
        }
        tree_ = *tree_res;
    }
    captureTxidBase();

    // The model oracle: the flight recorder decides the fate of the
    // in-flight op.
    const char *resolution = "read-only";
    if (inflight.mutates()) {
        if (commit_durable) {
            // CommitPoint is appended only after the commit's
            // durability point: the op MUST have survived.
            inflight.apply(model_);
            result_.inflightSurvived++;
            resolution = "survived";
        } else if (!begin_durable) {
            // OpBegin is persisted (store+flush+fence) before any op
            // writes: without it, nothing of the op may be visible.
            result_.inflightDropped++;
            resolution = "dropped";
        } else {
            // Began but did not commit: either world is legal (the
            // crash may have landed inside the commit protocol, which
            // recovery resolves in either direction). Probe the
            // affected key to find out which world we are in; the full
            // verification below then holds the engine to it.
            Model after = model_;
            inflight.apply(after);
            std::vector<std::uint8_t> out;
            Status probe = engine_->get(*tree_, inflight.key, out);
            auto before_it = model_.find(inflight.key);
            auto after_it = after.find(inflight.key);
            bool resolved = false;
            if (probe.isOk()) {
                if (after_it != after.end() && out == after_it->second) {
                    model_ = std::move(after);
                    resolved = true;
                } else if (before_it != model_.end() &&
                           out == before_it->second) {
                    resolved = true;
                }
            } else if (probe.code() == StatusCode::NotFound) {
                if (after_it == after.end()) {
                    model_ = std::move(after);
                    resolved = true;
                } else if (before_it == model_.end()) {
                    resolved = true;
                }
            }
            if (!resolved)
                violation("oracle: in-flight " +
                          std::string(inflight.name()) + " on key " +
                          std::to_string(inflight.key) +
                          " left a third state");
            result_.inflightAmbiguous++;
            resolution = "ambiguous";
        }
    }

    verifyFull("post-recovery");
    fsckSweep("post-recovery", /*trustScratch=*/false);
    checkCheckerDelta("post-recovery");

    logRound("[round " + std::to_string(round) + "] engine=" +
             core::engineKindName(opt_.kind) + " policy=" +
             policyName(policies_[round % policies_.size()].policy) +
             " crash tx=" +
             std::to_string(expectedTxid) + " op=" + inflight.name() +
             " oracle=" + resolution + " keys=" +
             std::to_string(model_.size()) + " violations=" +
             std::to_string(result_.violations));

    if (result_.violations > violations_before)
        maybeDumpImage(round);
    return true;
}

SoakResult
Soak::run()
{
    obs::FlightRecorder::setEnabled(true);
    if (!setUp()) {
        obs::FlightRecorder::setEnabled(false);
        return result_;
    }
    if (opt_.dropFlushEvery > 0)
        device_->setFlushDropper(&dropper_);

    for (round_ = 0; round_ < opt_.rounds; ++round_) {
        PolicyChoice choice = policies_[round_ % policies_.size()];
        device_->setCrashPolicy(choice.policy);

        // Aim the crash inside this round's op window; the estimate
        // adapts to the observed event rate.
        std::uint64_t window = std::max<std::uint64_t>(
            32, static_cast<std::uint64_t>(
                    eventsPerOp_ *
                    static_cast<double>(opt_.opsPerRound) * 0.8));
        std::uint64_t k = 1 + rng_.nextBounded(window);
        std::uint64_t event0 = device_->eventCount();
        pm::PointCrashInjector injector(event0 + k);
        device_->setCrashInjector(&injector);

        bool crashed = false;
        SoakOp current{};
        std::uint64_t expected_txid = 0;
        std::uint64_t ops_done = 0;
        try {
            // Keep issuing ops until the crash lands (cap: 8x the
            // round budget, in case the estimate was far off).
            for (; ops_done < opt_.opsPerRound * 8; ++ops_done) {
                current = source_.next();
                if (auto err = runOp(current)) {
                    violation("round " + std::to_string(round_) + ": " +
                              *err);
                    // Must-fail mode: detection is proven; keeping
                    // going on an image with silently-lost lines just
                    // risks chasing a wild page pointer into a panic.
                    if (opt_.dropFlushEvery > 0)
                        break;
                }
                result_.opsCommitted++;
            }
        } catch (const pm::CrashException &) {
            crashed = true;
            // The in-flight tx's id. Buffered engines resume txids
            // from the recovered log rather than from 1, so project
            // from the probe pair captured after the last recovery:
            // ids and txBegun advance in lockstep, one per begin().
            expected_txid =
                txidBase_ +
                (engine_->stats().txBegun.load() - txBegunBase_);
        }
        device_->setCrashInjector(nullptr);
        if (ops_done > 0)
            eventsPerOp_ = std::max(
                4.0, static_cast<double>(device_->eventCount() - event0) /
                         static_cast<double>(ops_done));

        if (opt_.dropFlushEvery > 0 && result_.violations > 0) {
            logRound("[round " + std::to_string(round_) +
                     "] engine=" + core::engineKindName(opt_.kind) +
                     " must-fail divergence detected; stopping");
            result_.roundsRun++;
            break;
        }

        if (!crashed) {
            // The window overshot every op; verify in place and move
            // on (still a verified round, just without a crash).
            verifyFull("clean-round");
            fsckSweep("clean-round", /*trustScratch=*/true);
            checkCheckerDelta("clean-round");
            logRound("[round " + std::to_string(round_) +
                     "] engine=" +
                     core::engineKindName(opt_.kind) +
                     " no-crash keys=" + std::to_string(model_.size()) +
                     " violations=" +
                     std::to_string(result_.violations));
            result_.roundsRun++;
            continue;
        }

        result_.crashes++;
        if (!crashRecoverVerify(current, expected_txid, round_)) {
            result_.roundsRun++;
            break; // device unusable; stop the soak
        }
        result_.roundsRun++;
    }

    // Orderly teardown: flush everything, then run the checker's
    // clean-shutdown sweep.
    if (opt_.dropFlushEvery > 0)
        device_->setFlushDropper(nullptr);
    engine_.reset();
    tree_.reset();
    if (device_ && !device_->crashed())
        checker_.checkCleanShutdown(device_->eventCount());
    if (device_)
        device_->setChecker(nullptr);
    std::uint64_t total = checker_.report().total();
    if (total > checkerSeen_) {
        result_.checkerViolations += total - checkerSeen_;
        violation("shutdown: persistency checker: " +
                  checker_.report().toString());
    }
    obs::FlightRecorder::setEnabled(false);
    return result_;
}

} // namespace

SoakResult
runSoak(const SoakOptions &opt)
{
    Soak soak(opt);
    return soak.run();
}

std::string
soakResultToJson(const SoakOptions &opt, const SoakResult &result)
{
    std::string out = "{\n  \"tool\": \"fasp-soak\",\n";
    out += "  \"engine\": \"" +
           std::string(core::engineKindName(opt.kind)) + "\",\n";
    out += "  \"mix\": \"" + opt.mix + "\",\n";
    out += "  \"rounds\": " + std::to_string(result.roundsRun) + ",\n";
    out += "  \"crashes\": " + std::to_string(result.crashes) + ",\n";
    out += "  \"ops_committed\": " +
           std::to_string(result.opsCommitted) + ",\n";
    out += "  \"inflight\": {\"survived\": " +
           std::to_string(result.inflightSurvived) +
           ", \"dropped\": " + std::to_string(result.inflightDropped) +
           ", \"ambiguous\": " +
           std::to_string(result.inflightAmbiguous) + "},\n";
    out += "  \"fsck_pages_checked\": " +
           std::to_string(result.fsckPagesChecked) + ",\n";
    out += "  \"checker_violations\": " +
           std::to_string(result.checkerViolations) + ",\n";
    out += "  \"violations\": " + std::to_string(result.violations) +
           "\n}\n";
    return out;
}

} // namespace fasp::soak
