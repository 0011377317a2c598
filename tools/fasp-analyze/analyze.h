/**
 * @file
 * fasp-analyze: compile-time persist-ordering verifier (DESIGN.md §15).
 *
 * The runtime PersistencyChecker (DESIGN.md §8) proves the paper's
 * ordering discipline — every PM store flushed and fenced before the
 * commit point — but only on the paths the tests happen to execute.
 * This tool checks the same per-line state machine over *all* paths at
 * compile time: it parses the repo's C++ into a small statement IR,
 * lowers each function to a control-flow graph (branches, loops, early
 * returns, switch, lambda bodies), and runs an intraprocedural abstract
 * interpretation whose lattice mirrors the runtime checker's line
 * states:
 *
 *     CLEAN < FENCED < FLUSHED < TAGGED < DIRTY
 *
 * ordered by "badness" (how far the line is from proven durability), so
 * the path-merge join is a pointwise max. Abstract "lines" are the
 * normalized source text of the offset expression handed to the
 * PmDevice call — `plan.off` stored and `plan.off` flushed is a match;
 * distinct expressions are distinct lines (sound for the repo's idiom,
 * where the flush reuses the store's offset expression).
 *
 * Rules (static analogs of the runtime violation classes):
 *
 *   v1s            A PM store with a path to function exit on which the
 *                  stored line is never flushed, in a function that
 *                  itself participates in the persistence protocol
 *                  (calls sfence or txCommitPoint). Functions that
 *                  never flush delegate durability to their caller and
 *                  are exempt (the runtime V1 catches those at txEnd).
 *   v2s            clflush/flushRange reachable with *no* PM store on
 *                  any path into it: a flush that cannot be ordering
 *                  anything this function wrote.
 *   v3s            txCommitPoint() reachable while some written line is
 *                  not FENCED on every incoming path.
 *   fence-in-loop  sfence inside a loop that also dirties PM: fence
 *                  once after the loop (a loop that only fences, or a
 *                  fence after the loop, does not fire).
 *   raw-cas        PmDevice::casU64 outside src/pm/: bare CAS skips the
 *                  dirty-tag protocol, so the checker's V4 carve-out
 *                  for CAS stores is only sound while this rule holds.
 *
 * Textual rules (per source line, comments and string bodies stripped;
 * the conventions -Wthread-safety cannot express):
 *
 *   pm-raw-access        The raw durable image (PmDevice::durableData)
 *                        is reachable only inside src/pm/; everything
 *                        else stores through PmDevice::write so the
 *                        checker sees every PM store.
 *   flush-outside-device Flush / fence instructions (_mm_clflush*,
 *                        _mm_clwb, _mm_sfence, inline asm) only in
 *                        src/pm/device.*; everyone else calls
 *                        PmDevice::clflush/sfence.
 *   bare-mutex-lock      No direct .lock()/.unlock()/.try_lock(): lock
 *                        through the RAII wrappers that carry the
 *                        capability annotations.
 *   no-volatile          `volatile` is not a concurrency or persistence
 *                        primitive.
 *   raw-std-sync         std::mutex / std::atomic /
 *                        std::condition_variable outside src/common/,
 *                        src/mc/ and src/pm/: engine code synchronizes
 *                        through the fasp wrappers so every blocking
 *                        point stays visible to fasp-mc. Wrapper
 *                        internals and lock-free stats carry a
 *                        file-level waiver instead.
 *
 * Meta rules:
 *
 *   stale-waiver   A waiver comment that suppressed nothing.
 *   waiver-needs-reason  Waiver without `-- <reason>` or naming an
 *                  unknown rule.
 *   frontend-error A source file the analyzer could not read (never
 *                  silently skipped).
 *
 * Waiver syntax (one grammar for every rule):
 *
 *     // fasp-analyze: allow(<rule>) -- <reason>        next code line
 *     // fasp-analyze: allow-file(<rule>) -- <reason>   whole file
 *
 * Front end: a built-in tokenizer + fuzzy statement parser over the
 * repo's C++ subset (frontend_internal.cc), with no toolchain
 * dependency. It does not type-check: it matches PmDevice receivers
 * by name (`device`, `device_`, `dev`, `dev_`), so the rules see
 * exactly the calls made through those names.
 */

#ifndef FASP_TOOLS_ANALYZE_H
#define FASP_TOOLS_ANALYZE_H

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace fasp::analyze {

// --- Statement IR ------------------------------------------------------------

/** PmDevice-protocol operations the transfer functions recognize. */
enum class OpKind : std::uint8_t {
    Store,         //!< write/writeU16/U32/U64/memset: arg = offset expr
    ScratchStore,  //!< writeScratch/markScratch (best-effort by contract)
    Flush,         //!< clflush/flushRange: arg = offset expr
    Fence,         //!< sfence
    Cas,           //!< casU64: arg = offset expr
    TxBegin,
    TxCommitPoint,
    TxEnd,
    LatchAcquire,  //!< fasp::MutexLock / PageLatch guard: arg = lock expr
};

const char *opKindName(OpKind kind);

/**
 * One node of the per-function statement tree. The front end lowers
 * C++ into this structured subset; the CFG builder lowers it further
 * into basic edges.
 */
struct Stmt
{
    enum class Kind : std::uint8_t {
        Seq,      //!< children in order
        If,       //!< children[0] = then, children[1] = else (maybe empty)
        Loop,     //!< children[0] = body; postTest for do-while
        Switch,   //!< children = alternative case bodies (join semantics)
        Return,
        Break,
        Continue,
        Op,       //!< a recognized device-protocol operation
    };

    Kind kind = Kind::Seq;
    OpKind op = OpKind::Fence;  //!< valid when kind == Op
    std::string arg;            //!< normalized primary argument
    std::string site;           //!< innermost SiteScope literal, or empty
    int line = 0;
    bool postTest = false;      //!< Loop: body runs at least once
    bool hasDefault = false;    //!< Switch: some alternative always taken
    std::vector<Stmt> children;

    static Stmt makeOp(OpKind k, std::string argument, int ln,
                       std::string siteTag = {})
    {
        Stmt s;
        s.kind = Kind::Op;
        s.op = k;
        s.arg = std::move(argument);
        s.site = std::move(siteTag);
        s.line = ln;
        return s;
    }
};

/** One analyzed function (only functions containing device ops are
 *  retained; the rest contribute nothing to any rule). */
struct Function
{
    std::string name;  //!< qualified where the front end knows it
    std::string file;  //!< path as reported to the user
    int line = 0;
    Stmt body;         //!< Kind::Seq
    std::vector<std::string> siteLiterals; //!< SiteScope strings seen
};

/** Per-file front-end result. */
struct FileIR
{
    std::string file;
    std::vector<Function> functions;
    std::vector<std::string> siteLiterals; //!< all SiteScope strings
};

// --- Findings ----------------------------------------------------------------

enum class Severity : std::uint8_t { Warning, Error };

struct Finding
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    std::string function;
    Severity severity = Severity::Error;
};

/** Known rule ids (for waiver validation). */
const std::set<std::string> &knownRules();

// --- Waivers -----------------------------------------------------------------

/**
 * Waivers parsed from one file's comments. A line waiver covers its
 * own line and the next line containing code; a file waiver covers the
 * whole file. Unused waivers become stale-waiver findings.
 */
struct WaiverSet
{
    struct Waiver
    {
        std::string rule;
        int line = 0;       //!< line of the waiver comment
        int coversLine = 0; //!< next code line (line waivers)
        bool wholeFile = false;
        bool used = false;
    };

    std::vector<Waiver> waivers;

    /** True (and marks the waiver used) when @p rule at @p line is
     *  suppressed. stale-waiver and waiver-needs-reason are never
     *  suppressible. */
    bool suppresses(const std::string &rule, int line);
};

/** Scan @p text (the raw source of @p file) for fasp-analyze waiver
 *  comments; malformed waivers are reported into @p out. */
WaiverSet scanWaivers(const std::string &text, const std::string &file,
                      std::vector<Finding> &out);

// --- Front end ---------------------------------------------------------------

/** Parse raw C++ @p text of @p file into IR. */
FileIR parseSourceInternal(const std::string &file,
                           const std::string &text);

// --- Analysis ----------------------------------------------------------------

struct AnalysisOptions
{
    bool pmInternal = false; //!< file lives under src/pm/ (raw-cas exempt)
};

/** Run the CFG + lattice analysis over @p fn, appending findings. */
void analyzeFunction(const Function &fn, const AnalysisOptions &opts,
                     std::vector<Finding> &out);

/** A PM-store site for --sites mode. */
struct StoreSite
{
    std::string file;
    int line = 0;
    std::string function;
    std::string site;   //!< innermost SiteScope literal or "(none)"
    std::string kind;   //!< "store" | "scratch" | "cas"
};

void collectStoreSites(const Function &fn, std::vector<StoreSite> &out);

/** Run the textual rules (see file comment) over the raw source @p text
 *  of @p file, with their src/ path exemptions, appending findings. */
void checkTextualRules(const std::string &file, const std::string &text,
                       std::vector<Finding> &out);

} // namespace fasp::analyze

#endif // FASP_TOOLS_ANALYZE_H
