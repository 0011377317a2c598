#include "mc/explorer.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <utility>

#include "common/logging.h"
#include "core/fasp_page_io.h"
#include "forensics.h"
#include "page/slotted_page.h"
#include "pager/pager.h"
#include "pager/superblock.h"
#include "pm/checker.h"

namespace fasp::mc {

namespace {

/** Explorer harness device: small so the per-schedule image rewind is
 *  one cheap memcpy, CacheSim so crash images exist to fork. */
constexpr std::size_t kDeviceBytes = 2u << 20;
constexpr std::uint64_t kLogBytes = 256u << 10;

/** Race-analysis lookback window: the nearest dependent predecessor is
 *  almost always close (same transaction), and an unbounded scan would
 *  make the post-run pass quadratic in schedule length. */
constexpr std::size_t kRaceWindow = 256;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

bool
isPmOp(HookOp op)
{
    return op == HookOp::PmStore || op == HookOp::PmFlush ||
           op == HookOp::PmFence || op == HookOp::PmCas;
}

bool
linesOverlap(const PendingOp &a, const PendingOp &b)
{
    auto lo = [](const PendingOp &p) {
        return reinterpret_cast<std::uintptr_t>(p.addr) &
               ~static_cast<std::uintptr_t>(63);
    };
    auto hi = [](const PendingOp &p) {
        return (reinterpret_cast<std::uintptr_t>(p.addr) + p.len - 1) |
               static_cast<std::uintptr_t>(63);
    };
    return lo(a) <= hi(b) && lo(b) <= hi(a);
}

/**
 * Do two operations NOT commute? Independent (commuting) operations
 * never seed a backtrack alternative: both orders reach the same state,
 * so exploring the second order proves nothing (the DPOR insight).
 * Conservative in every unclear case — a false "dependent" only costs
 * schedules, a false "independent" loses coverage.
 *
 * @p crash_forks widens the relation: once crash images are forked at
 * fences, the *instant* of the fence relative to other threads' stores
 * and flushes becomes observable (it decides what is in the forked
 * image), so fence-vs-store/flush stops commuting.
 */
bool
dependent(const PendingOp &a, const PendingOp &b, bool crash_forks)
{
    // Yield points mark a data race the scenario wants explored, and a
    // thread's first point orders it against everything: both are
    // dependent with all.
    auto wildcard = [](HookOp op) {
        return op == HookOp::UserYield || op == HookOp::ThreadStart ||
               op == HookOp::ThreadFinish;
    };
    if (wildcard(a.op) || wildcard(b.op))
        return true;

    if (isPmOp(a.op) != isPmOp(b.op))
        return false;

    if (isPmOp(a.op)) {
        bool afence = a.op == HookOp::PmFence;
        bool bfence = b.op == HookOp::PmFence;
        if (afence && bfence)
            return false; // fences only order their own thread
        if (afence || bfence)
            return crash_forks;
        return linesOverlap(a, b);
    }

    // Sync objects: only operations on the same object interact.
    if (a.addr != b.addr)
        return false;
    // Shared latch acquires commute with each other.
    if (a.op == HookOp::LatchAcquireShared &&
        b.op == HookOp::LatchAcquireShared)
        return false;
    return true;
}

/** Did this node's choice preempt a runnable previous thread? A
 *  switch at a voluntary yield is free — the thread offered the CPU —
 *  so only involuntary switches consume the preemption budget
 *  (CHESS's definition). */
bool
stepPreempts(std::uint8_t prev_running, std::uint8_t eligible,
             const std::array<PendingOp, kMaxThreads> &pending,
             std::uint8_t chosen)
{
    return prev_running != 0xff &&
           ((eligible >> prev_running) & 1) != 0 &&
           pending[prev_running].op != HookOp::UserYield &&
           chosen != prev_running;
}

} // namespace

bool
parseEngineKind(const std::string &name, core::EngineKind &out)
{
    std::string norm;
    for (char c : name) {
        if (c == '-' || c == '_')
            continue;
        norm.push_back(static_cast<char>(
            std::toupper(static_cast<unsigned char>(c))));
    }
    if (norm == "FAST")
        out = core::EngineKind::Fast;
    else if (norm == "FASH")
        out = core::EngineKind::Fash;
    else if (norm == "NVWAL")
        out = core::EngineKind::Nvwal;
    else if (norm == "LEGACYWAL")
        out = core::EngineKind::LegacyWal;
    else if (norm == "JOURNAL")
        out = core::EngineKind::Journal;
    else
        return false;
    return true;
}

Explorer::Explorer(Scenario &scenario, const ExploreOptions &opt)
    : scenario_(scenario), opt_(opt)
{
    pm::PmConfig pmc;
    pmc.size = kDeviceBytes;
    pmc.mode = pm::PmMode::CacheSim;
    pmc.tagCacheLines = 1u << 12;
    device_ = std::make_unique<pm::PmDevice>(pmc);
    forkDevice_ = std::make_unique<pm::PmDevice>(pmc);

    cfg_.kind = opt_.engine;
    cfg_.volatileCachePages = 64;
    cfg_.format.logLen = kLogBytes;
    cfg_.format.frLen = 0; // recorder appends would bloat the state
                           // space with PM points carrying no signal
    scenario_.tuneConfig(cfg_);

    snapshot_.resize(device_->size());
    if (scenario_.usesEngine()) {
        auto er = core::Engine::create(*device_, cfg_, true);
        if (!er.isOk())
            faspPanic("fasp-mc: format failed: %s",
                      er.status().toString().c_str());
        scenario_.setup(*er.value());
        er.value().reset(); // orderly teardown before the snapshot
        // Read through the cache overlay: unflushed setup bytes become
        // durable in the snapshot, so every schedule starts from a
        // fully-persisted image with an empty simulated cache.
        device_->read(0, snapshot_.data(), snapshot_.size());
    }
    // !usesEngine scenarios start from the zeroed image.
}

Explorer::~Explorer()
{
    if (device_)
        device_->setChecker(nullptr);
}

TraceFile
Explorer::traceTemplate() const
{
    TraceFile t;
    t.scenario = scenario_.name();
    t.engine = core::engineKindName(opt_.engine);
    t.seed = opt_.seed;
    t.crashEvery = opt_.crashEvery;
    t.crashPolicy = static_cast<std::uint8_t>(opt_.crashPolicy);
    return t;
}

void
Explorer::fsckSweep(pm::PmDevice &device, bool trustScratch,
                    std::vector<McViolation> &out)
{
    if (!scenario_.usesEngine())
        return;
    auto sbr = pager::Pager::open(device);
    if (!sbr.isOk()) {
        out.push_back({McViolation::Kind::Fsck,
                       "fsck sweep: superblock unreadable: " +
                           sbr.status().toString()});
        return;
    }
    const pager::Superblock &sb = sbr.value();
    for (PageId pid = sb.firstDataPid(); pid < sb.pageCount; ++pid) {
        // The logical view: a FAST leaf may be reading its second
        // slot-array buffer, which a raw image read would not follow.
        core::FaspPageIO io(device, sb.pageOffset(pid), sb.pageSize,
                            /*write_through=*/false);
        page::PageType t = page::pageType(io);
        if (t != page::PageType::Leaf && t != page::PageType::Internal)
            continue; // unallocated / overflow / meta
        Status s = page::slottedFsck(io, trustScratch);
        if (!s.isOk())
            out.push_back({McViolation::Kind::Fsck,
                           "page " + std::to_string(pid) + ": " +
                               s.toString()});
    }
}

void
Explorer::crashFork(std::size_t fenceIndex, std::uint64_t scheduleIndex,
                    std::vector<McViolation> &out)
{
    ++crashForkCount_;
    std::uint64_t seed =
        mix64(opt_.seed ^ mix64(scheduleIndex ^ mix64(fenceIndex)));
    device_->composeCrashImage(opt_.crashPolicy, seed, forkImage_);
    forkDevice_->resetToImage(forkImage_.data(), forkImage_.size());

    if (!scenario_.usesEngine()) {
        scenario_.verifyCrashRaw(*forkDevice_, out);
        return;
    }

    forensics::CrashReport rep =
        forensics::analyzeImage(forkImage_.data(), forkImage_.size());
    if (!rep.sb.present || !rep.sb.crcOk) {
        out.push_back(
            {McViolation::Kind::Recovery,
             "crash image at fence " + std::to_string(fenceIndex) +
                 ": forensics rejected the superblock (present=" +
                 std::to_string(rep.sb.present) +
                 " crcOk=" + std::to_string(rep.sb.crcOk) + ")"});
        return;
    }

    auto er = core::Engine::create(*forkDevice_, cfg_, false);
    if (!er.isOk()) {
        out.push_back({McViolation::Kind::Recovery,
                       "recovery on crash image at fence " +
                           std::to_string(fenceIndex) +
                           " failed: " + er.status().toString()});
        return;
    }
    scenario_.verifyCrash(*er.value(), *forkDevice_, out);
    er.value().reset();
    // Scratch state (free lists) is legitimately stale after FAST
    // recovery — lazily repaired, not corruption.
    fsckSweep(*forkDevice_, /*trustScratch=*/false, out);
}

RunResult
Explorer::runOnce(const std::vector<std::uint8_t> &prefix,
                  std::uint64_t scheduleIndex)
{
    device_->resetToImage(snapshot_.data(), snapshot_.size());
    checker_ = std::make_unique<pm::PersistencyChecker>();
    device_->setChecker(checker_.get());

    RunResult rr;
    std::unique_ptr<core::Engine> engine;
    if (scenario_.usesEngine()) {
        // The snapshot is fully durable, so this open's recovery pass
        // must be a no-op — and the fresh checker watches it too.
        auto er = core::Engine::create(*device_, cfg_, false);
        if (!er.isOk()) {
            rr.violations.push_back(
                {McViolation::Kind::Recovery,
                 "open from snapshot failed: " +
                     er.status().toString()});
            device_->setChecker(nullptr);
            checker_.reset();
            return rr;
        }
        engine = std::move(er.value());
    }

    scenario_.reset();
    std::vector<std::function<void()>> bodies;
    bodies.reserve(static_cast<std::size_t>(scenario_.threadCount()));
    for (int tid = 0; tid < scenario_.threadCount(); ++tid)
        bodies.push_back(scenario_.body(tid, engine.get(), *device_));

    CoopScheduler::FenceFn fence;
    if (opt_.crashEvery > 0) {
        fence = [this, scheduleIndex](std::size_t fi,
                                      std::vector<McViolation> &out) {
            if (fi % opt_.crashEvery == 0)
                crashFork(fi, scheduleIndex, out);
        };
    }

    CoopScheduler::Options sopt;
    sopt.prefix = prefix;
    sopt.maxSteps = opt_.maxStepsPerRun;
    rr = sched_.run(bodies, sopt, std::move(fence));

    if (rr.violations.empty() && scenario_.usesEngine()) {
        scenario_.verify(engine.get(), *device_, rr.violations);
        fsckSweep(*device_, /*trustScratch=*/true, rr.violations);
    } else if (rr.violations.empty()) {
        scenario_.verify(nullptr, *device_, rr.violations);
    }

    engine.reset(); // orderly teardown flushes everything in flight

    if (rr.violations.empty()) {
        checker_->checkCleanShutdown(device_->eventCount());
        if (!checker_->report().empty())
            rr.violations.push_back({McViolation::Kind::Checker,
                                     checker_->report().toString()});
    }
    device_->setChecker(nullptr);
    checker_.reset();
    return rr;
}

bool
Explorer::wouldPreempt(const PathNode &node, std::uint8_t pick) const
{
    return stepPreempts(node.prevRunning, node.eligible, node.pending,
                        pick);
}

void
Explorer::addAlternative(std::size_t nodeIndex, std::uint8_t pick)
{
    PathNode &n = path_[nodeIndex];
    if (n.forced) // conflict-wake pick: no real choice existed
        return;
    if (((n.eligible >> pick) & 1) == 0)
        return;
    // Never schedule a thread parked at its own yield ahead of the
    // fair default: such branches only extend retry-spin loops (each
    // one seeds the next), walking the DFS into an unbounded
    // starvation corner of the state space.
    if (n.pending[pick].op == HookOp::UserYield)
        return;
    if (((n.doneMask >> pick) & 1) != 0)
        return;
    if (std::find(n.todo.begin(), n.todo.end(), pick) != n.todo.end())
        return;
    if (wouldPreempt(n, pick) && n.preemptions + 1 > opt_.preemptionBound)
        return;
    n.todo.push_back(pick);
}

std::string
Explorer::writeTraceFor(const RunResult &run,
                        std::uint64_t scheduleIndex)
{
    std::error_code ec;
    std::filesystem::create_directories(opt_.traceDir, ec);
    TraceFile t = traceTemplate();
    t.scheduleIndex = scheduleIndex;
    t.steps = traceStepsFromRun(run);
    std::string path = opt_.traceDir + "/" + t.scenario + "-" +
                       std::to_string(scheduleIndex) + ".fmc";
    Status s = writeTrace(path, t);
    if (!s.isOk()) {
        faspWarn("fasp-mc: trace write failed: %s",
                 s.toString().c_str());
        return {};
    }
    return path;
}

ExploreResult
Explorer::explore()
{
    ExploreResult res;
    path_.clear();
    crashForkCount_ = 0;
    std::vector<std::uint8_t> prefix;

    while (res.schedules < opt_.maxSchedules) {
        prefix.clear();
        prefix.reserve(path_.size());
        for (const PathNode &n : path_)
            prefix.push_back(n.chosen);

        std::uint64_t idx = res.schedules;
        RunResult rr = runOnce(prefix, idx);
        ++res.schedules;
        res.totalSteps += rr.steps.size();
        res.maxDepth = std::max<std::uint64_t>(res.maxDepth,
                                               rr.steps.size());

        // The executed schedule must extend its prefix verbatim; the
        // scheduler reports replay failures as Diverged, but check
        // independently — continuing from a bad tree is meaningless.
        bool diverged = rr.steps.size() < path_.size();
        for (std::size_t i = 0; !diverged && i < path_.size(); ++i)
            diverged = rr.steps[i].chosen != path_[i].chosen;
        if (diverged &&
            std::none_of(rr.violations.begin(), rr.violations.end(),
                         [](const McViolation &v) {
                             return v.kind ==
                                    McViolation::Kind::Diverged;
                         }))
            rr.violations.push_back(
                {McViolation::Kind::Diverged,
                 "executed schedule deviated from its prefix"});

        std::string tracePath;
        bool violated = !rr.violations.empty();
        if (!opt_.traceDir.empty() &&
            (violated || (opt_.traceEvery != 0 &&
                          idx % opt_.traceEvery == 0)))
            tracePath = writeTraceFor(rr, idx);

        if (violated)
            res.failures.push_back({idx, rr.violations, tracePath});
        if (diverged || (violated && !opt_.keepGoing))
            break;

        // Extend the path with this run's new decisions, seeding
        // eager alternatives as each node is appended.
        for (std::size_t j = path_.size(); j < rr.steps.size(); ++j) {
            const StepRecord &s = rr.steps[j];
            PathNode n;
            n.chosen = s.chosen;
            n.forced = s.forced;
            n.eligible = s.eligible;
            n.prevRunning = s.prevRunning;
            n.pending = s.pending;
            n.doneMask = 1u << s.chosen;
            n.preemptions = 0;
            if (!path_.empty()) {
                const PathNode &p = path_.back();
                n.preemptions =
                    p.preemptions +
                    (stepPreempts(p.prevRunning, p.eligible, p.pending,
                                  p.chosen)
                         ? 1
                         : 0);
            }
            path_.push_back(std::move(n));
            if (s.forced)
                continue;
            const PendingOp &executed = s.pending[s.chosen];
            for (std::uint8_t t = 0; t < kMaxThreads; ++t) {
                if (t == s.chosen || ((s.eligible >> t) & 1) == 0)
                    continue;
                if (dependent(s.pending[t], executed,
                              opt_.crashEvery > 0))
                    addAlternative(j, t);
            }
        }

        // DPOR race pass: for every executed step, branch at its
        // nearest earlier dependent step by another thread — those
        // conflicts were not pending yet when the earlier decision was
        // seeded above.
        for (std::size_t j = 1; j < rr.steps.size(); ++j) {
            const StepRecord &sj = rr.steps[j];
            const PendingOp &ej = sj.pending[sj.chosen];
            std::size_t stop = j > kRaceWindow ? j - kRaceWindow : 0;
            for (std::size_t i = j; i-- > stop;) {
                const StepRecord &si = rr.steps[i];
                if (si.chosen == sj.chosen)
                    continue;
                if (!dependent(si.pending[si.chosen], ej,
                               opt_.crashEvery > 0))
                    continue;
                if ((si.eligible >> sj.chosen) & 1)
                    addAlternative(i, sj.chosen);
                break; // nearest dependent predecessor only
            }
        }

        // Backtrack to the deepest node with an untried alternative.
        while (!path_.empty() && path_.back().todo.empty())
            path_.pop_back();
        if (path_.empty()) {
            res.exhausted = true;
            break;
        }
        PathNode &n = path_.back();
        n.chosen = n.todo.back();
        n.todo.pop_back();
        n.doneMask |= 1u << n.chosen;
        n.forced = false;
    }

    res.crashForks = crashForkCount_;
    return res;
}

RunResult
Explorer::replay(const TraceFile &trace)
{
    std::vector<std::uint8_t> prefix;
    prefix.reserve(trace.steps.size());
    for (const TraceStep &s : trace.steps)
        prefix.push_back(s.chosen);

    RunResult rr = runOnce(prefix, trace.scheduleIndex);

    std::vector<TraceStep> executed = traceStepsFromRun(rr);
    std::size_t n = std::min(executed.size(), trace.steps.size());
    for (std::size_t i = 0; i < n; ++i) {
        const TraceStep &want = trace.steps[i];
        const TraceStep &got = executed[i];
        if (want.chosen != got.chosen || want.op != got.op ||
            want.token != got.token) {
            rr.violations.push_back(
                {McViolation::Kind::Diverged,
                 "replay step " + std::to_string(i) + ": trace (t" +
                     std::to_string(want.chosen) + " " +
                     hookOpName(static_cast<HookOp>(want.op)) + " #" +
                     std::to_string(want.token) + ") vs executed (t" +
                     std::to_string(got.chosen) + " " +
                     hookOpName(static_cast<HookOp>(got.op)) + " #" +
                     std::to_string(got.token) + ")"});
            break;
        }
    }
    if (executed.size() < trace.steps.size())
        rr.violations.push_back(
            {McViolation::Kind::Diverged,
             "replay ended after " + std::to_string(executed.size()) +
                 " of " + std::to_string(trace.steps.size()) +
                 " traced steps"});
    return rr;
}

} // namespace fasp::mc
