/**
 * @file
 * CFG lowering and the abstract interpretation (DESIGN.md §15).
 *
 * Each function's statement tree is lowered to an explicit CFG: one
 * node per recognized operation plus synthetic join nodes; loops get
 * back edges and an id so "is this fence inside a loop that also
 * dirties PM" is a membership query, not a regex. `return` routes to
 * the function exit node (so early returns are real paths), `break`/
 * `continue` to their loop, and do-while bodies execute at least once.
 *
 * The dataflow state maps abstract lines (normalized offset
 * expressions) to the runtime checker's per-line machine, ordered by
 * badness:  FENCED(1) < FLUSHED(2) < TAGGED(3) < DIRTY(4), absent =
 * CLEAN. The path-merge join is a pointwise max, so a line is only as
 * durable as its worst incoming path — exactly the property V1/V3
 * need. Transfer functions are monotone (a flush never *lowers* a
 * fenced line, an unmatched flush leaves CLEAN alone), so the worklist
 * iteration converges on the finite lattice.
 */

#include <algorithm>
#include <map>
#include <sstream>

#include "analyze.h"

namespace fasp::analyze {

namespace {

// --- CFG ---------------------------------------------------------------------

constexpr std::uint8_t kClean = 0;
constexpr std::uint8_t kFenced = 1;
constexpr std::uint8_t kFlushed = 2;
constexpr std::uint8_t kTagged = 3;
constexpr std::uint8_t kDirty = 4;

const char *
stateName(std::uint8_t badness)
{
    switch (badness) {
    case kFenced: return "FENCED";
    case kFlushed: return "FLUSHED";
    case kTagged: return "TAGGED";
    case kDirty: return "DIRTY";
    default: return "CLEAN";
    }
}

struct CfgNode
{
    const Stmt *op = nullptr;    //!< null for synthetic join nodes
    std::vector<int> succ;
    std::vector<int> loops;      //!< enclosing loop ids, innermost last
};

struct Cfg
{
    std::vector<CfgNode> nodes;
    int entry = -1;
    int exit = -1;
};

class CfgBuilder
{
  public:
    Cfg build(const Stmt &body)
    {
        cfg_.entry = newNode(nullptr);
        std::vector<int> out = lower(body, {cfg_.entry});
        cfg_.exit = newNode(nullptr);
        for (int p : out)
            edge(p, cfg_.exit);
        for (int p : returnPreds_)
            edge(p, cfg_.exit);
        return std::move(cfg_);
    }

  private:
    /** One enclosing `break`-able construct; `continue` binds to the
     *  innermost entry that is a loop. */
    struct Breakable
    {
        bool isLoop = false;
        int head = -1; //!< loop head (continue target); -1 for switch
        std::vector<int> breaks;
    };

    int newNode(const Stmt *op)
    {
        CfgNode n;
        n.op = op;
        n.loops = loopIds_;
        cfg_.nodes.push_back(std::move(n));
        return static_cast<int>(cfg_.nodes.size()) - 1;
    }

    void edge(int from, int to) { cfg_.nodes[from].succ.push_back(to); }

    std::vector<int> lower(const Stmt &s, std::vector<int> preds)
    {
        switch (s.kind) {
        case Stmt::Kind::Seq:
            for (const Stmt &child : s.children)
                preds = lower(child, std::move(preds));
            return preds;
        case Stmt::Kind::Op: {
            int n = newNode(&s);
            for (int p : preds)
                edge(p, n);
            return {n};
        }
        case Stmt::Kind::If: {
            std::vector<int> out = lower(s.children[0], preds);
            std::vector<int> other = lower(s.children[1], preds);
            out.insert(out.end(), other.begin(), other.end());
            return out;
        }
        case Stmt::Kind::Loop: {
            int head = newNode(nullptr);
            for (int p : preds)
                edge(p, head);
            loopIds_.push_back(nextLoopId_++);
            breakables_.push_back(Breakable{true, head, {}});
            std::vector<int> bodyOut = lower(s.children[0], {head});
            for (int p : bodyOut)
                edge(p, head); // back edge
            Breakable ctx = std::move(breakables_.back());
            breakables_.pop_back();
            loopIds_.pop_back();
            std::vector<int> out = std::move(ctx.breaks);
            if (s.postTest) {
                // do-while: exit only after at least one iteration.
                out.insert(out.end(), bodyOut.begin(), bodyOut.end());
            } else {
                out.push_back(head); // zero-iteration path
            }
            return out;
        }
        case Stmt::Kind::Switch: {
            breakables_.push_back(Breakable{false, -1, {}});
            std::vector<int> out;
            for (const Stmt &alt : s.children) {
                std::vector<int> altOut = lower(alt, preds);
                out.insert(out.end(), altOut.begin(), altOut.end());
            }
            if (!s.hasDefault || s.children.empty())
                out.insert(out.end(), preds.begin(), preds.end());
            out.insert(out.end(), breakables_.back().breaks.begin(),
                       breakables_.back().breaks.end());
            breakables_.pop_back();
            return out;
        }
        case Stmt::Kind::Return:
            returnPreds_.insert(returnPreds_.end(), preds.begin(),
                                preds.end());
            return {};
        case Stmt::Kind::Break:
            if (!breakables_.empty())
                breakables_.back().breaks.insert(
                    breakables_.back().breaks.end(), preds.begin(),
                    preds.end());
            return {};
        case Stmt::Kind::Continue:
            for (auto it = breakables_.rbegin();
                 it != breakables_.rend(); ++it) {
                if (it->isLoop) {
                    for (int p : preds)
                        edge(p, it->head);
                    break;
                }
            }
            return {};
        }
        return preds;
    }

    Cfg cfg_;
    std::vector<Breakable> breakables_;
    std::vector<int> loopIds_;
    std::vector<int> returnPreds_;
    int nextLoopId_ = 0;
};

// --- Abstract state ----------------------------------------------------------

struct LineVal
{
    std::uint8_t badness = kClean;
    std::set<int> storeLines; //!< stores that last dirtied this line

    bool operator==(const LineVal &o) const
    {
        return badness == o.badness && storeLines == o.storeLines;
    }
};

using State = std::map<std::string, LineVal>;

/** Pointwise max-join; returns true when @p into changed. */
bool
joinInto(State &into, const State &from)
{
    bool changed = false;
    for (const auto &[key, val] : from) {
        auto [it, inserted] = into.emplace(key, val);
        if (inserted) {
            changed = true;
            continue;
        }
        LineVal &cur = it->second;
        if (val.badness > cur.badness) {
            cur.badness = val.badness;
            changed = true;
        }
        for (int line : val.storeLines)
            changed |= cur.storeLines.insert(line).second;
    }
    return changed;
}

/**
 * Does a flush of @p flushArg cover the line @p key? Exact match,
 * plus two repo idioms the textual line abstraction would otherwise
 * miss (both checked at a token boundary, so `off` never matches
 * `offset`):
 *  - `flushRange(base, len)` spelled from the same base expression
 *    covers `base + <anything>` stores (frame loops, header strips);
 *  - `clflush(x & ~Mask{...})` is the line containing `x`.
 */
bool
flushCovers(const std::string &flushArg, const std::string &key)
{
    if (key == flushArg)
        return true;
    if (key.size() > flushArg.size()
        && key.compare(0, flushArg.size(), flushArg) == 0
        && key[flushArg.size()] == '+')
        return true;
    if (flushArg.size() > key.size()
        && flushArg.compare(0, key.size(), key) == 0
        && flushArg[key.size()] == '&')
        return true;
    return false;
}

void
transfer(const Stmt &op, State &state)
{
    switch (op.op) {
    case OpKind::Store:
        state[op.arg] = LineVal{kDirty, {op.line}};
        break;
    case OpKind::Cas:
        state[op.arg] = LineVal{kTagged, {op.line}};
        break;
    case OpKind::Flush: {
        for (auto &[key, val] : state)
            if (val.badness >= kFlushed && flushCovers(op.arg, key))
                val.badness = kFlushed;
        // Unmatched flush: leaves CLEAN alone (keeps the transfer
        // monotone; v2s evaluation looks at the incoming state).
        break;
    }
    case OpKind::Fence:
        for (auto &[key, val] : state)
            if (val.badness == kFlushed)
                val.badness = kFenced;
        break;
    case OpKind::TxEnd:
        // txEnd(false) closes an *aborted* write set: leftover dirty
        // lines are forgotten data, exempt at runtime too (V1 is only
        // checked for committed sets). Drop them so abort paths do
        // not accuse the commit path. Unknown args stay conservative.
        if (op.arg.find("false") != std::string::npos) {
            for (auto it = state.begin(); it != state.end();) {
                if (it->second.badness >= kTagged)
                    it = state.erase(it);
                else
                    ++it;
            }
        }
        break;
    case OpKind::ScratchStore:
    case OpKind::TxBegin:
    case OpKind::TxCommitPoint:
    case OpKind::LatchAcquire:
        break;
    }
}

std::string
describeLines(const std::set<int> &lines)
{
    std::ostringstream os;
    bool first = true;
    for (int line : lines) {
        os << (first ? "" : ", ") << line;
        first = false;
    }
    return os.str();
}

} // namespace

void
analyzeFunction(const Function &fn, const AnalysisOptions &opts,
                std::vector<Finding> &out)
{
    Cfg cfg = CfgBuilder().build(fn.body);

    bool participates = false; // calls sfence or txCommitPoint
    bool hasStore = false;
    for (const CfgNode &node : cfg.nodes) {
        if (node.op == nullptr)
            continue;
        if (node.op->op == OpKind::Fence
            || node.op->op == OpKind::TxCommitPoint)
            participates = true;
        if (node.op->op == OpKind::Store || node.op->op == OpKind::Cas)
            hasStore = true;
    }

    // Loop ids containing at least one store/cas (for fence-in-loop).
    std::set<int> dirtyingLoops;
    for (const CfgNode &node : cfg.nodes)
        if (node.op != nullptr
            && (node.op->op == OpKind::Store
                || node.op->op == OpKind::Cas))
            dirtyingLoops.insert(node.loops.begin(), node.loops.end());

    // --- Worklist fixpoint over the in-states --------------------------
    std::vector<State> inState(cfg.nodes.size());
    std::vector<bool> reached(cfg.nodes.size(), false);
    reached[cfg.entry] = true;

    for (int pass = 0; pass < 256; ++pass) {
        bool changed = false;
        for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
            if (!reached[n])
                continue;
            State outState = inState[n];
            if (cfg.nodes[n].op != nullptr)
                transfer(*cfg.nodes[n].op, outState);
            for (int s : cfg.nodes[n].succ) {
                if (!reached[s]) {
                    reached[s] = true;
                    changed = true;
                }
                changed |= joinInto(inState[s], outState);
            }
        }
        if (!changed)
            break;
    }

    // --- Rule evaluation ----------------------------------------------
    auto finding = [&](int line, const char *rule, std::string msg,
                       Severity sev) {
        out.push_back(
            {fn.file, line, rule, std::move(msg), fn.name, sev});
    };

    std::set<std::pair<int, std::string>> reported;

    for (std::size_t n = 0; n < cfg.nodes.size(); ++n) {
        const CfgNode &node = cfg.nodes[n];
        if (node.op == nullptr || !reached[n])
            continue;
        const Stmt &op = *node.op;

        if (op.op == OpKind::Cas && !opts.pmInternal) {
            finding(op.line, "raw-cas",
                    "PmDevice::casU64 outside src/pm (bare CAS skips "
                    "the dirty-tag protocol; route through "
                    "pm::Pcas::cas)",
                    Severity::Error);
        }

        if (op.op == OpKind::Flush && hasStore && inState[n].empty()) {
            finding(op.line, "v2s",
                    "flush of '" + op.arg
                        + "' with no PM store on any path into it "
                          "(static analog of runtime V2: flush "
                          "without a dominating store)",
                    Severity::Error);
        }

        if (op.op == OpKind::TxCommitPoint) {
            for (const auto &[key, val] : inState[n]) {
                if (val.badness <= kFenced)
                    continue;
                finding(
                    op.line, "v3s",
                    "commit point reachable while line '" + key
                        + "' is " + stateName(val.badness)
                        + " on some path (stored at line "
                        + describeLines(val.storeLines)
                        + "; static analog of runtime V3: every "
                          "written line must be flushed AND fenced "
                          "before the commit record is stored)",
                    Severity::Error);
            }
        }

        if (op.op == OpKind::Fence && !node.loops.empty()) {
            bool reDirties = std::any_of(
                node.loops.begin(), node.loops.end(),
                [&](int id) { return dirtyingLoops.count(id) != 0; });
            if (reDirties) {
                finding(op.line, "fence-in-loop",
                        "sfence inside a loop that also dirties PM: "
                        "flush per iteration and fence once after "
                        "the loop (per-iteration ordering costs a "
                        "stall each round trip)",
                        Severity::Warning);
            }
        }
    }

    // v1s: a store that may reach function exit unflushed, in a
    // function that itself participates in the persistence protocol.
    if (participates) {
        for (const auto &[key, val] : inState[cfg.exit]) {
            if (val.badness < kTagged)
                continue;
            for (int storeLine : val.storeLines) {
                if (!reported.emplace(storeLine, key).second)
                    continue;
                finding(
                    storeLine, "v1s",
                    "PM store to '" + key
                        + "' may reach function exit " +
                        (val.badness == kTagged ? "with its CAS tag "
                                                  "neither flushed "
                                                  "nor cleared"
                                                : "unflushed")
                        + " on some path (static analog of runtime "
                          "V1: dirty line at transaction end)",
                    Severity::Error);
            }
        }
    }
}

void
collectStoreSites(const Function &fn, std::vector<StoreSite> &out)
{
    struct Walker
    {
        const Function &fn;
        std::vector<StoreSite> &out;

        void walk(const Stmt &s)
        {
            if (s.kind == Stmt::Kind::Op) {
                const char *kind = nullptr;
                if (s.op == OpKind::Store)
                    kind = "store";
                else if (s.op == OpKind::ScratchStore)
                    kind = "scratch";
                else if (s.op == OpKind::Cas)
                    kind = "cas";
                if (kind != nullptr)
                    out.push_back({fn.file, s.line, fn.name,
                                   s.site.empty() ? "(none)" : s.site,
                                   kind});
            }
            for (const Stmt &child : s.children)
                walk(child);
        }
    };
    Walker{fn, out}.walk(fn.body);
}

} // namespace fasp::analyze
