#include "mc/scenarios.h"

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "common/logging.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "page/slotted_page.h"
#include "pager/latch_table.h"
#include "pm/device.h"
#include "pm/pcas.h"

namespace fasp::mc {

namespace {

constexpr TreeId kTreeId = 1;

std::vector<std::uint8_t>
val(std::size_t n, std::uint8_t fill)
{
    return std::vector<std::uint8_t>(n, fill);
}

/** Shared plumbing for the real-engine scenarios: per-thread
 *  committed/failed markers and the bounded LatchConflict retry loop
 *  every concurrent client of the FAST engine needs. */
class EngineScenario : public Scenario
{
  public:
    void reset() override
    {
        for (auto &f : committed_)
            f.store(false, std::memory_order_relaxed);
        for (auto &f : failed_)
            f.store(false, std::memory_order_relaxed);
        for (auto &s : starved_)
            s.store(false, std::memory_order_relaxed);
        for (auto &m : failMsg_)
            m.clear();
    }

  protected:
    static constexpr int kRetryBudget = 128;

    bool committedAt(int tid) const
    {
        return committed_[static_cast<std::size_t>(tid)].load(
            std::memory_order_relaxed);
    }

    /** Run one single-op transaction, retrying latch conflicts with a
     *  yield point between attempts (the production retry idiom). A
     *  non-Ok status marks the thread failed — verify() turns that
     *  into a violation. Exhausting the budget marks it *starved*:
     *  under an adversarial schedule the bounded retry loop can
     *  legitimately give up (SQLite returns SQLITE_BUSY there), so
     *  the oracle accepts it — but then demands the operation left no
     *  trace at all. */
    void runOp(int tid, const std::function<Status()> &op)
    {
        auto t = static_cast<std::size_t>(tid);
        for (int attempt = 0; attempt < kRetryBudget; ++attempt) {
            try {
                Status s = op();
                if (s.isOk()) {
                    committed_[t].store(true,
                                        std::memory_order_relaxed);
                } else {
                    failMsg_[t] = s.toString();
                    failed_[t].store(true, std::memory_order_relaxed);
                }
                return;
            } catch (const LatchConflict &) {
                yieldPoint();
            }
        }
        starved_[t].store(true, std::memory_order_relaxed);
    }

    bool starvedAt(int tid) const
    {
        return starved_[static_cast<std::size_t>(tid)].load(
            std::memory_order_relaxed);
    }

    void checkAllCommitted(std::vector<McViolation> &out) const
    {
        for (int i = 0; i < threadCount(); ++i) {
            auto t = static_cast<std::size_t>(i);
            if (failed_[t].load(std::memory_order_relaxed) ||
                (!committedAt(i) && !starvedAt(i))) {
                std::string why = failMsg_[t].empty()
                                      ? std::string("no commit marker")
                                      : failMsg_[t];
                out.push_back({McViolation::Kind::Oracle,
                               std::string(name()) + ": T" +
                                   std::to_string(i) +
                                   " failed to commit: " + why});
            }
        }
    }

    static void checkTree(core::Engine &engine,
                          std::vector<McViolation> &out,
                          const char *when)
    {
        auto tx = engine.begin();
        btree::BTree tree(kTreeId);
        Status s = tree.checkIntegrity(tx->pageIO());
        tx->rollback();
        if (!s.isOk()) {
            out.push_back({McViolation::Kind::Fsck,
                           std::string("tree integrity (") + when +
                               "): " + s.toString()});
        }
    }

    static void checkKeyEquals(core::Engine &engine, std::uint64_t key,
                               const std::vector<std::uint8_t> &want,
                               std::vector<McViolation> &out,
                               const char *when)
    {
        btree::BTree tree(kTreeId);
        std::vector<std::uint8_t> got;
        Status s = engine.get(tree, key, got);
        if (!s.isOk()) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("key ") + std::to_string(key) +
                               " missing (" + when +
                               "): " + s.toString()});
        } else if (got != want) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("key ") + std::to_string(key) +
                               " has wrong value (" + when + ")"});
        }
    }

    /** The key must be entirely absent (a starved/failed operation
     *  may leave no partial trace). */
    static void checkKeyAbsent(core::Engine &engine, std::uint64_t key,
                               std::vector<McViolation> &out,
                               const char *when)
    {
        btree::BTree tree(kTreeId);
        std::vector<std::uint8_t> got;
        Status s = engine.get(tree, key, got);
        if (s.isOk()) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("key ") + std::to_string(key) +
                               " present although its transaction "
                               "never committed (" +
                               when + ")"});
        }
    }

    /** Crash-fork oracle for an operation whose commit marker is not
     *  set: the fork may have caught it after its durable commit
     *  point but before the marker store, so absent OR exactly-right
     *  are both fine; anything else is a torn commit. */
    static void checkKeyAbsentOrEquals(
        core::Engine &engine, std::uint64_t key,
        const std::vector<std::uint8_t> &want,
        std::vector<McViolation> &out, const char *when)
    {
        btree::BTree tree(kTreeId);
        std::vector<std::uint8_t> got;
        Status s = engine.get(tree, key, got);
        if (s.isOk() && got != want) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("key ") + std::to_string(key) +
                               " holds a torn value (" + when + ")"});
        }
    }

    std::array<std::atomic<bool>, kMaxThreads> committed_{};
    std::array<std::atomic<bool>, kMaxThreads> failed_{};
    std::array<std::atomic<bool>, kMaxThreads> starved_{};
    /** Written only by the owning worker, read after the join. */
    std::array<std::string, kMaxThreads> failMsg_{};
};

/** N threads insert distinct keys into the same (seeded) leaf. T0's
 *  key lands between the seeds, so its commit shifts the slot array
 *  and crash forks cover a publish of a rewritten array; the others
 *  append. */
class SamePageInsert final : public EngineScenario
{
  public:
    explicit SamePageInsert(int threads) : threads_(threads) {}

    const char *name() const override
    {
        return threads_ == 3 ? "same-page-insert-3t"
                             : "same-page-insert";
    }

    const char *description() const override
    {
        return "concurrent inserts of distinct keys into one leaf";
    }

    int threadCount() const override { return threads_; }

    void setup(core::Engine &engine) override
    {
        auto tree = engine.createTree(kTreeId);
        if (!tree.isOk())
            faspPanic("scenario setup: createTree failed");
        for (std::uint64_t k : {10, 20}) {
            Status s = engine.insert(*tree, k, seedValue());
            if (!s.isOk())
                faspPanic("scenario setup: seed insert failed");
        }
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)device;
        return [this, tid, engine] {
            btree::BTree tree(kTreeId);
            runOp(tid, [&] {
                return engine->insert(tree, keyFor(tid),
                                      valueFor(tid));
            });
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)device;
        checkAllCommitted(out);
        for (std::uint64_t k : {10, 20})
            checkKeyEquals(*engine, k, seedValue(), out, "verify");
        for (int i = 0; i < threads_; ++i) {
            if (committedAt(i))
                checkKeyEquals(*engine, keyFor(i), valueFor(i), out,
                               "verify");
            else
                checkKeyAbsent(*engine, keyFor(i), out, "verify");
        }
        checkTree(*engine, out, "verify");
    }

    void verifyCrash(core::Engine &recovered, pm::PmDevice &forkDevice,
                     std::vector<McViolation> &out) override
    {
        (void)forkDevice;
        for (std::uint64_t k : {10, 20})
            checkKeyEquals(recovered, k, seedValue(), out, "crash");
        for (int i = 0; i < threads_; ++i) {
            if (committedAt(i))
                checkKeyEquals(recovered, keyFor(i), valueFor(i), out,
                               "crash");
            else
                checkKeyAbsentOrEquals(recovered, keyFor(i),
                                       valueFor(i), out, "crash");
        }
        checkTree(recovered, out, "crash");
    }

  private:
    static std::vector<std::uint8_t> seedValue()
    {
        return val(8, 0x5e);
    }

    static std::uint64_t keyFor(int tid)
    {
        return tid == 0 ? 15 : 100 + static_cast<std::uint64_t>(tid);
    }

    static std::vector<std::uint8_t> valueFor(int tid)
    {
        return val(8, static_cast<std::uint8_t>(0xa0 + tid));
    }

    int threads_;
};

/** Two threads race updates of one key; the oracle accepts any
 *  serialization but nothing else (lost pre-images, mixes). */
class SamePageUpdate final : public EngineScenario
{
  public:
    const char *name() const override { return "same-page-update"; }

    const char *description() const override
    {
        return "racing updates of one key; final value must be one "
               "of the committed writes";
    }

    int threadCount() const override { return 2; }

    void setup(core::Engine &engine) override
    {
        auto tree = engine.createTree(kTreeId);
        if (!tree.isOk())
            faspPanic("scenario setup: createTree failed");
        if (!engine.insert(*tree, kKey, oldValue()).isOk())
            faspPanic("scenario setup: seed insert failed");
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)device;
        return [this, tid, engine] {
            btree::BTree tree(kTreeId);
            runOp(tid, [&] {
                return engine->update(tree, kKey, valueFor(tid));
            });
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)device;
        checkAllCommitted(out);
        checkValueIn(*engine, /*atCrash=*/false, out, "verify");
        checkTree(*engine, out, "verify");
    }

    void verifyCrash(core::Engine &recovered, pm::PmDevice &forkDevice,
                     std::vector<McViolation> &out) override
    {
        (void)forkDevice;
        checkValueIn(recovered, /*atCrash=*/true, out, "crash");
        checkTree(recovered, out, "crash");
    }

  private:
    /** Post-run the value must come from a *committed* update, or be
     *  the pre-image iff nobody committed (a starved update must not
     *  leak). At a crash fork any in-flight update may be past its
     *  commit fence but not yet marked, so both new values stay in
     *  the acceptable set and the pre-image is only excluded once
     *  both updates are known committed. */
    void checkValueIn(core::Engine &engine, bool atCrash,
                      std::vector<McViolation> &out,
                      const char *when) const
    {
        bool ok0 = atCrash || committedAt(0);
        bool ok1 = atCrash || committedAt(1);
        bool okOld = atCrash ? !(committedAt(0) && committedAt(1))
                             : (!committedAt(0) && !committedAt(1));
        btree::BTree tree(kTreeId);
        std::vector<std::uint8_t> got;
        Status s = engine.get(tree, kKey, got);
        if (!s.isOk()) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("updated key missing (") +
                               when + "): " + s.toString()});
            return;
        }
        if (ok0 && got == valueFor(0))
            return;
        if (ok1 && got == valueFor(1))
            return;
        if (okOld && got == oldValue())
            return;
        out.push_back({McViolation::Kind::Oracle,
                       std::string("key holds a value no committed "
                                   "update wrote (") +
                           when + ")"});
    }

    static constexpr std::uint64_t kKey = 50;

    static std::vector<std::uint8_t> oldValue()
    {
        return val(8, 0x11);
    }

    static std::vector<std::uint8_t> valueFor(int tid)
    {
        return val(8, static_cast<std::uint8_t>(0xb0 + tid));
    }
};

/** Two inserts into a nearly-full leaf: one of them must split it
 *  while the other lands concurrently. */
class InsertVsSplit final : public EngineScenario
{
  public:
    const char *name() const override { return "insert-vs-split"; }

    const char *description() const override
    {
        return "concurrent inserts into a nearly-full leaf forcing a "
               "split";
    }

    int threadCount() const override { return 2; }

    void setup(core::Engine &engine) override
    {
        auto tree = engine.createTree(kTreeId);
        if (!tree.isOk())
            faspPanic("scenario setup: createTree failed");
        // Eight ~400-byte records nearly fill a 4 KiB leaf; the two
        // worker inserts below cannot both fit, so one forces a split.
        for (std::uint64_t k = 10; k <= 80; k += 10) {
            if (!engine.insert(*tree, k, seedValue(k)).isOk())
                faspPanic("scenario setup: seed insert failed");
        }
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)device;
        return [this, tid, engine] {
            btree::BTree tree(kTreeId);
            runOp(tid, [&] {
                return engine->insert(tree, keyFor(tid),
                                      valueFor(tid));
            });
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)device;
        checkAllCommitted(out);
        checkContents(*engine, /*atCrash=*/false, out, "verify");
    }

    void verifyCrash(core::Engine &recovered, pm::PmDevice &forkDevice,
                     std::vector<McViolation> &out) override
    {
        (void)forkDevice;
        checkContents(recovered, /*atCrash=*/true, out, "crash");
    }

  private:
    void checkContents(core::Engine &engine, bool atCrash,
                       std::vector<McViolation> &out,
                       const char *when) const
    {
        for (std::uint64_t k = 10; k <= 80; k += 10)
            checkKeyEquals(engine, k, seedValue(k), out, when);
        for (int i = 0; i < 2; ++i) {
            if (committedAt(i))
                checkKeyEquals(engine, keyFor(i), valueFor(i), out,
                               when);
            else if (atCrash)
                checkKeyAbsentOrEquals(engine, keyFor(i), valueFor(i),
                                       out, when);
            else
                checkKeyAbsent(engine, keyFor(i), out, when);
        }
        checkTree(engine, out, when);
    }

    static std::vector<std::uint8_t> seedValue(std::uint64_t k)
    {
        return val(400, static_cast<std::uint8_t>(k));
    }

    static std::uint64_t keyFor(int tid)
    {
        return 41 + static_cast<std::uint64_t>(tid);
    }

    static std::vector<std::uint8_t> valueFor(int tid)
    {
        return val(400, static_cast<std::uint8_t>(0xc0 + tid));
    }
};

/** A growing update that needs in-page defragmentation races a reader:
 *  the reader must only ever observe the old or the new value. */
class DefragVsRead final : public EngineScenario
{
  public:
    const char *name() const override { return "defrag-vs-read"; }

    const char *description() const override
    {
        return "page defragmentation racing a reader of the same leaf";
    }

    int threadCount() const override { return 2; }

    void reset() override
    {
        EngineScenario::reset();
        badRead_.store(false, std::memory_order_relaxed);
        readErr_.store(false, std::memory_order_relaxed);
    }

    void setup(core::Engine &engine) override
    {
        auto tree = engine.createTree(kTreeId);
        if (!tree.isOk())
            faspPanic("scenario setup: createTree failed");
        // Nine ~400-byte records pack the leaf; erasing two interior
        // keys leaves fragmented free blocks smaller than the 500-byte
        // record the updater writes, so the update must defragment.
        for (std::uint64_t k = 1; k <= 9; ++k) {
            if (!engine.insert(*tree, k, val(400, 0x22)).isOk())
                faspPanic("scenario setup: seed insert failed");
        }
        for (std::uint64_t k : {3, 5}) {
            if (!engine.erase(*tree, k).isOk())
                faspPanic("scenario setup: seed erase failed");
        }
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)device;
        if (tid == 0) {
            return [this, engine] {
                btree::BTree tree(kTreeId);
                runOp(0, [&] {
                    return engine->update(tree, kHotKey, newValue());
                });
            };
        }
        return [this, engine] {
            btree::BTree tree(kTreeId);
            for (int i = 0; i < 4; ++i) {
                std::vector<std::uint8_t> got;
                try {
                    Status s = engine->get(tree, kHotKey, got);
                    if (!s.isOk())
                        readErr_.store(true,
                                       std::memory_order_relaxed);
                    else if (got != val(400, 0x22) &&
                             got != newValue())
                        badRead_.store(true,
                                       std::memory_order_relaxed);
                    if (!engine->get(tree, 8, got).isOk())
                        readErr_.store(true,
                                       std::memory_order_relaxed);
                } catch (const LatchConflict &) {
                    // Reads under contention may conflict-abort.
                }
                yieldPoint();
            }
            committed_[1].store(true, std::memory_order_relaxed);
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)device;
        checkAllCommitted(out);
        if (badRead_.load(std::memory_order_relaxed)) {
            out.push_back({McViolation::Kind::Oracle,
                           "reader observed a torn/intermediate value "
                           "during defragmentation"});
        }
        if (readErr_.load(std::memory_order_relaxed)) {
            out.push_back({McViolation::Kind::Oracle,
                           "reader lost a key mid-defragmentation"});
        }
        if (committedAt(0))
            checkKeyEquals(*engine, kHotKey, newValue(), out,
                           "verify");
        else
            checkKeyEquals(*engine, kHotKey, val(400, 0x22), out,
                           "verify");
        checkTree(*engine, out, "verify");
    }

    void verifyCrash(core::Engine &recovered, pm::PmDevice &forkDevice,
                     std::vector<McViolation> &out) override
    {
        (void)forkDevice;
        btree::BTree tree(kTreeId);
        std::vector<std::uint8_t> got;
        Status s = recovered.get(tree, kHotKey, got);
        if (!s.isOk()) {
            out.push_back({McViolation::Kind::Oracle,
                           "hot key missing after crash recovery: " +
                               s.toString()});
        } else if (got != val(400, 0x22) && got != newValue()) {
            out.push_back({McViolation::Kind::Oracle,
                           "hot key neither old nor new value after "
                           "crash recovery"});
        }
        checkTree(recovered, out, "crash");
    }

  private:
    static constexpr std::uint64_t kHotKey = 2;

    static std::vector<std::uint8_t> newValue()
    {
        return val(500, 0xd0);
    }

    std::atomic<bool> badRead_{false};
    std::atomic<bool> readErr_{false};
};

/** An insert racing a split that propagates across multiple pages:
 *  with 512-byte pages, 96 sequential seed keys leave the rightmost
 *  leaf full (7 records) under a full single-internal root (30
 *  separators), so the next insert splits the leaf, pushes separator
 *  #31 into the parent, splits the parent, and grows a new root — a
 *  three-page split chain (the paper's multi-page structure
 *  modification, §3.3). The second worker inserts into the same leaf
 *  region mid-chain; both inserts must commit exactly, and the tree
 *  must come out one level deeper. */
class InsertSplitChain final : public EngineScenario
{
  public:
    const char *name() const override { return "insert-split-chain"; }

    const char *description() const override
    {
        return "insert racing a leaf->parent->root split chain across "
               "three pages";
    }

    int threadCount() const override { return 2; }

    void tuneConfig(core::EngineConfig &cfg) const override
    {
        // Small pages make the parent fillable with a 96-key seed; the
        // default 4 KiB parent would need ~2300 keys to saturate.
        cfg.format.pageSize = 512;
    }

    void setup(core::Engine &engine) override
    {
        auto tree = engine.createTree(kTreeId);
        if (!tree.isOk())
            faspPanic("scenario setup: createTree failed");
        for (std::uint64_t k = 1; k <= kSeedKeys; ++k) {
            if (!engine.insert(*tree, k * 10, seedValue(k)).isOk())
                faspPanic("scenario setup: seed insert failed");
        }
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)device;
        return [this, tid, engine] {
            btree::BTree tree(kTreeId);
            runOp(tid, [&] {
                return engine->insert(tree, keyFor(tid),
                                      valueFor(tid));
            });
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)device;
        checkAllCommitted(out);
        checkContents(*engine, /*atCrash=*/false, out, "verify");
        // Either worker's insert overflows the full rightmost leaf,
        // whose separator overflows the full root: if one committed,
        // the chain must have run to completion and deepened the tree.
        if (committedAt(0) || committedAt(1))
            checkDepth(*engine, out, "verify");
    }

    void verifyCrash(core::Engine &recovered, pm::PmDevice &forkDevice,
                     std::vector<McViolation> &out) override
    {
        (void)forkDevice;
        checkContents(recovered, /*atCrash=*/true, out, "crash");
    }

  private:
    static constexpr std::uint64_t kSeedKeys = 96;

    void checkContents(core::Engine &engine, bool atCrash,
                       std::vector<McViolation> &out,
                       const char *when) const
    {
        for (std::uint64_t k = 1; k <= kSeedKeys; ++k)
            checkKeyEquals(engine, k * 10, seedValue(k), out, when);
        for (int i = 0; i < 2; ++i) {
            if (committedAt(i))
                checkKeyEquals(engine, keyFor(i), valueFor(i), out,
                               when);
            else if (atCrash)
                checkKeyAbsentOrEquals(engine, keyFor(i), valueFor(i),
                                       out, when);
            else
                checkKeyAbsent(engine, keyFor(i), out, when);
        }
        checkTree(engine, out, when);
    }

    static void checkDepth(core::Engine &engine,
                           std::vector<McViolation> &out,
                           const char *when)
    {
        auto tx = engine.begin();
        btree::BTree tree(kTreeId);
        auto root = tree.rootPid(tx->pageIO());
        std::uint16_t lvl = 0;
        if (root.isOk())
            lvl = page::level(tx->pageIO().page(*root, false));
        tx->rollback();
        if (lvl < 2) {
            out.push_back({McViolation::Kind::Oracle,
                           std::string("insert-split-chain: the split "
                                       "chain never propagated to a "
                                       "new root (") +
                               when + ")"});
        }
    }

    static std::vector<std::uint8_t> seedValue(std::uint64_t k)
    {
        return val(54, static_cast<std::uint8_t>(k));
    }

    /** T0 appends past the maximum; T1 lands inside the rightmost
     *  leaf (between seed keys 950 and 960). */
    static std::uint64_t keyFor(int tid)
    {
        return tid == 0 ? kSeedKeys * 10 + 10 : kSeedKeys * 10 - 5;
    }

    static std::vector<std::uint8_t> valueFor(int tid)
    {
        return val(54, static_cast<std::uint8_t>(0xc0 + tid));
    }
};

/** Seeded bug: read-modify-write of a shared PM counter without any
 *  lock. The yield point between load and store is where the lost
 *  update hides; fasp-mc must find the interleaving. */
class BugLockElision final : public Scenario
{
  public:
    const char *name() const override { return "bug-lock-elision"; }

    const char *description() const override
    {
        return "seeded lost-update race on an unlocked PM counter "
               "(must be caught)";
    }

    int threadCount() const override { return 2; }
    bool usesEngine() const override { return false; }
    bool expectsViolation() const override { return true; }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)tid;
        (void)engine;
        return [&device] {
            std::uint64_t v = device.readU64(kOff);
            yieldPoint(); // the racy window
            device.writeU64(kOff, v + 1);
            device.clflush(kOff);
            device.sfence();
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)engine;
        std::uint64_t v = device.readU64(kOff);
        if (v != 2) {
            out.push_back({McViolation::Kind::Oracle,
                           "lost update: counter is " +
                               std::to_string(v) + ", expected 2"});
        }
    }

  private:
    static constexpr PmOffset kOff = 4096;
};

/** Two writers race a PCAS flip of one header-style word — the
 *  latch-free publish race the engines never produce themselves (the
 *  page latch serializes commits), so the dirty-tag helping path and
 *  the window between publish-CAS, flush, fence and tag-clear only get
 *  schedule coverage here. Crash forks land at every explored fence —
 *  in particular the one between the publish flush and the tag clear —
 *  and the raw-image oracle performs the tag strip that
 *  FaspEngine::sweepHeaderTags() performs on real headers. */
class PcasHeaderFlip final : public Scenario
{
  public:
    const char *name() const override { return "pcas-header-flip"; }

    const char *description() const override
    {
        return "two writers race a PCAS header-word flip; crash forks "
               "at protocol fences must recover an untorn value";
    }

    int threadCount() const override { return 2; }
    bool usesEngine() const override { return false; }

    void reset() override
    {
        pcas_.reset();
        for (auto &f : committed_)
            f.store(false, std::memory_order_relaxed);
        failed_.store(false, std::memory_order_relaxed);
    }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)engine;
        // First body() call of the schedule (main thread, before the
        // scheduler starts): bind the PCAS instance and seed the word.
        if (!pcas_) {
            pcas_ = std::make_unique<pm::Pcas>(device, pm::PcasConfig{});
            device.writeU64(kWordOff, kOld);
            device.clflush(kWordOff);
            device.sfence();
        }
        return [this, tid] {
            std::uint64_t want = newFor(tid);
            for (int attempt = 0; attempt < 32; ++attempt) {
                // read() helps a tagged value to durability first, so
                // the expected value below is always a logical one.
                std::uint64_t cur = pcas_->read(kWordOff);
                if (pcas_->cas(kWordOff, cur, want) ==
                    pm::PcasResult::Ok) {
                    committed_[static_cast<std::size_t>(tid)].store(
                        true, std::memory_order_relaxed);
                    return;
                }
                yieldPoint();
            }
            failed_.store(true, std::memory_order_relaxed);
        };
    }

    void verify(core::Engine *engine, pm::PmDevice &device,
                std::vector<McViolation> &out) override
    {
        (void)engine;
        if (failed_.load(std::memory_order_relaxed)) {
            out.push_back({McViolation::Kind::Oracle,
                           "a writer exhausted its CAS retry budget "
                           "with failure injection off"});
        }
        for (int i = 0; i < 2; ++i) {
            if (!committed_[static_cast<std::size_t>(i)].load(
                    std::memory_order_relaxed)) {
                out.push_back({McViolation::Kind::Oracle,
                               "T" + std::to_string(i) +
                                   " never committed its flip"});
            }
        }
        std::uint64_t v = device.readU64(kWordOff);
        if (pm::pcasTagged(v)) {
            out.push_back({McViolation::Kind::Oracle,
                           "word still carries a protocol flag after "
                           "both writers returned"});
        } else if (v != newFor(0) && v != newFor(1)) {
            out.push_back({McViolation::Kind::Oracle,
                           "word holds a value no writer published"});
        }
    }

    void verifyCrashRaw(pm::PmDevice &forkDevice,
                        std::vector<McViolation> &out) override
    {
        // The scenario owns recovery for its word: the tag strip the
        // engine's header sweep would do.
        std::uint64_t v = pm::pcasStrip(forkDevice.readU64(kWordOff));
        bool both = committed_[0].load(std::memory_order_relaxed) &&
                    committed_[1].load(std::memory_order_relaxed);
        if (v == kOld && !both)
            return; // no flip durable yet — fine unless both fenced
        if (v == newFor(0) || v == newFor(1))
            return;
        out.push_back(
            {McViolation::Kind::Recovery,
             "crash image recovered a torn header word: " +
                 std::to_string(v)});
    }

  private:
    static constexpr PmOffset kWordOff = 4096;

    /** Header-shaped values: four packed u16 fields, flag-free. */
    static constexpr std::uint64_t kOld = 0x0001002000300040ull;

    static std::uint64_t newFor(int tid)
    {
        return kOld + 0x0100ull + static_cast<std::uint64_t>(tid);
    }

    std::unique_ptr<pm::Pcas> pcas_;
    std::array<std::atomic<bool>, 2> committed_{};
    std::atomic<bool> failed_{false};
};

/** Seeded bug: a commit whose data line was never flushed before the
 *  commit point. The persistency checker must flag it on the very
 *  first schedule. */
class BugMissingFlush final : public Scenario
{
  public:
    const char *name() const override { return "bug-missing-flush"; }

    const char *description() const override
    {
        return "seeded commit with an unflushed data line (must be "
               "caught)";
    }

    int threadCount() const override { return 1; }
    bool usesEngine() const override { return false; }
    bool expectsViolation() const override { return true; }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)tid;
        (void)engine;
        return [&device] {
            device.txBegin();
            device.writeU64(kDataOff, 0xfeedfacecafef00dull);
            device.writeU64(kMarkOff, 1);
            device.clflush(kMarkOff);
            device.sfence();
            // BUG: kDataOff's line is still dirty here — a crash after
            // the marker persists would recover garbage data.
            // fasp-analyze: allow(v3s) -- seeded bug: this scenario
            // exists so the model checker proves it catches exactly
            // this violation (expectsViolation() == true).
            device.txCommitPoint();
            device.txEnd(true);
            // Late flush keeps the shutdown sweep quiet so the report
            // pinpoints the commit-point violation alone.
            device.clflush(kDataOff);
            device.sfence();
        };
    }

  private:
    static constexpr PmOffset kDataOff = 4096;
    static constexpr PmOffset kMarkOff = 4096 + 64;
};

/** Seeded bug: classic ABBA mutex cycle behind a yield point; the
 *  scheduler's deadlock detector must fire. */
class BugDeadlock final : public Scenario
{
  public:
    const char *name() const override { return "bug-deadlock"; }

    const char *description() const override
    {
        return "seeded ABBA mutex deadlock (must be caught)";
    }

    int threadCount() const override { return 2; }
    bool usesEngine() const override { return false; }
    bool expectsViolation() const override { return true; }

    std::function<void()> body(int tid, core::Engine *engine,
                               pm::PmDevice &device) override
    {
        (void)engine;
        (void)device;
        return [this, tid] {
            Mutex *first = tid == 0 ? &muA_ : &muB_;
            Mutex *second = tid == 0 ? &muB_ : &muA_;
            MutexLock a(first);
            yieldPoint();
            MutexLock b(second);
        };
    }

  private:
    Mutex muA_;
    Mutex muB_;
};

} // namespace

std::vector<std::string>
scenarioNames()
{
    return {
        "same-page-insert", "same-page-insert-3t", "same-page-update",
        "insert-vs-split",  "insert-split-chain",  "defrag-vs-read",
        "pcas-header-flip", "bug-lock-elision",    "bug-missing-flush",
        "bug-deadlock",
    };
}

std::unique_ptr<Scenario>
makeScenario(const std::string &name)
{
    if (name == "same-page-insert")
        return std::make_unique<SamePageInsert>(2);
    if (name == "same-page-insert-3t")
        return std::make_unique<SamePageInsert>(3);
    if (name == "same-page-update")
        return std::make_unique<SamePageUpdate>();
    if (name == "insert-vs-split")
        return std::make_unique<InsertVsSplit>();
    if (name == "insert-split-chain")
        return std::make_unique<InsertSplitChain>();
    if (name == "defrag-vs-read")
        return std::make_unique<DefragVsRead>();
    if (name == "pcas-header-flip")
        return std::make_unique<PcasHeaderFlip>();
    if (name == "bug-lock-elision")
        return std::make_unique<BugLockElision>();
    if (name == "bug-missing-flush")
        return std::make_unique<BugMissingFlush>();
    if (name == "bug-deadlock")
        return std::make_unique<BugDeadlock>();
    return nullptr;
}

} // namespace fasp::mc
