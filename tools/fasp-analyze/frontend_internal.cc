/**
 * @file
 * Built-in front end: a tokenizer-driven fuzzy parser for the repo's
 * C++ subset. It does not type-check; it recognizes function
 * definitions structurally (`name(...) quals { ... }`, including ctor
 * init lists and thread-annotation macros after the parameter list)
 * and lowers their bodies into the statement IR, extracting the
 * PmDevice-protocol operations the analysis cares about.
 *
 * Receivers are matched by name (`device`, `device_`, `dev`, `dev_`):
 * the tree's uniform naming makes this exact in practice. A PmDevice
 * reached through any other name is invisible to every rule.
 *
 * Known approximations (shared with DESIGN.md §15):
 *  - loop/if condition expressions are evaluated once, before the
 *    construct (their rare device ops still reach the analysis);
 *  - switch alternatives are analyzed independently (fallthrough
 *    joins, which can only under-approximate dirtiness);
 *  - lambda bodies are inlined at their definition point (a callback
 *    that may run zero times is still analyzed once — conservative
 *    for missing-flush rules).
 */

#include <algorithm>
#include <cctype>

#include "analyze.h"
#include "lex.h"

namespace fasp::analyze {
namespace {

/** True for the receiver spellings that denote the PM device. */
bool
isDeviceReceiverName(const std::string &name)
{
    return name == "device" || name == "device_" || name == "dev"
           || name == "dev_";
}

/** Method name -> OpKind; null when not a PmDevice protocol call. */
const OpKind *
protocolMethodOp(const std::string &name)
{
    static const std::map<std::string, OpKind> kOps = {
        {"write", OpKind::Store},
        {"writeU16", OpKind::Store},
        {"writeU32", OpKind::Store},
        {"writeU64", OpKind::Store},
        {"memset", OpKind::Store},
        {"writeScratch", OpKind::ScratchStore},
        {"markScratch", OpKind::ScratchStore},
        {"clflush", OpKind::Flush},
        {"flushRange", OpKind::Flush},
        {"sfence", OpKind::Fence},
        {"casU64", OpKind::Cas},
        {"txBegin", OpKind::TxBegin},
        {"txCommitPoint", OpKind::TxCommitPoint},
        {"txEnd", OpKind::TxEnd},
    };
    auto it = kOps.find(name);
    return it == kOps.end() ? nullptr : &it->second;
}

/** True for the RAII latch-guard type names. */
bool
isGuardTypeName(const std::string &name)
{
    return name == "MutexLock" || name == "SharedPageLatchGuard"
           || name == "ExclusivePageLatchGuard";
}

bool
isWordCharStr(const std::string &s)
{
    return !s.empty()
           && (std::isalnum(static_cast<unsigned char>(s[0])) != 0
               || s[0] == '_');
}

class Parser
{
  public:
    Parser(const std::string &file, const std::vector<Token> &toks)
        : file_(file), toks_(toks)
    {}

    FileIR run()
    {
        scanDecls(toks_.size());
        return std::move(out_);
    }

  private:
    // --- token helpers -------------------------------------------------

    bool eof() const { return pos_ >= toks_.size(); }

    const Token &tok(std::size_t i) const { return toks_[i]; }

    bool is(std::size_t i, const char *s) const
    {
        return i < toks_.size() && toks_[i].text == s;
    }

    /** Index just past the bracket construct opening at @p i (which
     *  must be one of ( [ { ); returns toks_.size() when unbalanced. */
    std::size_t skipBalancedFrom(std::size_t i) const
    {
        int depth = 0;
        for (std::size_t j = i; j < toks_.size(); ++j) {
            const std::string &t = toks_[j].text;
            if (t == "(" || t == "[" || t == "{")
                ++depth;
            else if (t == ")" || t == "]" || t == "}")
                if (--depth == 0)
                    return j + 1;
        }
        return toks_.size();
    }

    /** Normalize a token span into the canonical expression text. */
    std::string normalize(std::size_t begin, std::size_t end) const
    {
        std::string outText;
        for (std::size_t i = begin; i < end && i < toks_.size(); ++i) {
            const std::string &t = toks_[i].text;
            if (!outText.empty() && isWordCharStr(t)
                && isWordCharStr(std::string(1, outText.back())))
                outText += ' ';
            outText += t;
        }
        return outText;
    }

    // --- declaration scanning ------------------------------------------

    /** Scan declarations until @p end, finding function definitions
     *  (recursing into namespace/class braces). */
    void scanDecls(std::size_t end)
    {
        while (pos_ < end && !eof()) {
            const Token &t = tok(pos_);
            if (t.is("namespace")) {
                ++pos_;
                while (pos_ < end && tok(pos_).isWord())
                    ++pos_; // name (inline namespaces, ::-joined)
                while (pos_ < end
                       && (is(pos_, ":") || tok(pos_).isWord()))
                    ++pos_;
                if (is(pos_, "{")) {
                    std::size_t close = skipBalancedFrom(pos_);
                    ++pos_;
                    scanDecls(close - 1);
                    pos_ = close;
                } else {
                    skipToSemi(end);
                }
                continue;
            }
            if (t.is("class") || t.is("struct") || t.is("union")
                || t.is("enum")) {
                bool isEnum = t.is("enum");
                ++pos_;
                // Scan to the body '{' or a ';' (fwd decl) at depth 0.
                while (pos_ < end && !is(pos_, "{") && !is(pos_, ";")) {
                    if (is(pos_, "(") || is(pos_, "[")) {
                        pos_ = skipBalancedFrom(pos_);
                        continue;
                    }
                    ++pos_;
                }
                if (is(pos_, "{")) {
                    std::size_t close = skipBalancedFrom(pos_);
                    if (isEnum) {
                        pos_ = close; // enumerators: nothing inside
                    } else {
                        ++pos_;
                        scanDecls(close - 1);
                        pos_ = close;
                    }
                }
                continue;
            }
            if (t.is("(") && tryFunctionAt(pos_, end))
                continue;
            ++pos_;
        }
        pos_ = end;
    }

    void skipToSemi(std::size_t end)
    {
        while (pos_ < end && !is(pos_, ";")) {
            if (is(pos_, "(") || is(pos_, "[") || is(pos_, "{")) {
                pos_ = skipBalancedFrom(pos_);
                continue;
            }
            ++pos_;
        }
        if (pos_ < end)
            ++pos_; // consume ';'
    }

    /**
     * @p lparen indexes a '(' whose preceding token may be a function
     * name. Returns true (with pos_ advanced past the body) when a
     * function definition was recognized and parsed; false leaves
     * pos_ untouched.
     */
    bool tryFunctionAt(std::size_t lparen, std::size_t end)
    {
        if (lparen == 0 || !tok(lparen - 1).isWord())
            return false;
        std::size_t afterParams = skipBalancedFrom(lparen);
        std::size_t i = afterParams;
        // Qualifiers: const/noexcept/override plus attribute-ish macro
        // words, each optionally with a parenthesized argument list
        // (REQUIRES(mu), EXCLUDES(mu), ...). '&'/'&&' ref-qualifiers.
        while (i < end) {
            if (tok(i).isWord()) {
                ++i;
                if (is(i, "("))
                    i = skipBalancedFrom(i);
                continue;
            }
            if (is(i, "&")) {
                ++i;
                continue;
            }
            if (is(i, "-") && is(i + 1, ">")) {
                // Trailing return type: consume to '{', ';' or '='.
                i += 2;
                while (i < end && !is(i, "{") && !is(i, ";")
                       && !is(i, "=")) {
                    if (is(i, "(") || is(i, "["))
                        i = skipBalancedFrom(i);
                    else
                        ++i;
                }
                continue;
            }
            break;
        }
        if (is(i, ":") && !is(i + 1, ":")) {
            // Constructor init list: consume to the body '{'.
            ++i;
            while (i < end && !is(i, "{")) {
                if (is(i, "(") || is(i, "[") || is(i, "<"))
                    i = is(i, "<") ? i + 1 : skipBalancedFrom(i);
                else if (is(i, ";"))
                    return false; // was not an init list after all
                else
                    ++i;
            }
            // Brace-init members (log_{...}) would have been skipped
            // as balanced groups only if reached via '(' paths; guard:
            // the '{' we stopped at could open a member brace-init.
            // The repo uses parenthesized init exclusively, so treat
            // the first depth-0 '{' as the body.
        }
        if (!is(i, "{"))
            return false;

        // Function name: walk back over Word ('::' Word)* and '~'.
        std::size_t n = lparen - 1;
        std::string name = tok(n).text;
        while (n >= 1 && tok(n - 1).is("~")) {
            name = "~" + name;
            --n;
        }
        while (n >= 2 && tok(n - 1).is(":") && tok(n - 2).is(":")) {
            if (n >= 3 && tok(n - 3).isWord()) {
                name = tok(n - 3).text + "::" + name;
                n -= 3;
            } else {
                break;
            }
        }
        // Reject control-flow keywords that reach here via macros.
        static const std::set<std::string> kNotAName = {
            "if",     "for",   "while",  "switch", "return",
            "sizeof", "catch", "static_assert", "alignof", "decltype",
        };
        if (kNotAName.count(tok(lparen - 1).text) != 0)
            return false;

        Function fn;
        fn.name = name;
        fn.file = file_;
        fn.line = tok(lparen).line;
        pos_ = i; // at '{'
        siteStack_.clear();
        fn.body = parseBlock();
        fn.siteLiterals = currentFnSites_;
        currentFnSites_.clear();
        if (containsOps(fn.body) || !fn.siteLiterals.empty())
            out_.functions.push_back(std::move(fn));
        return true;
    }

    static bool containsOps(const Stmt &s)
    {
        if (s.kind == Stmt::Kind::Op)
            return s.op != OpKind::LatchAcquire;
        return std::any_of(s.children.begin(), s.children.end(),
                           containsOps);
    }

    // --- statement parsing ---------------------------------------------

    Stmt parseBlock()
    {
        // pos_ at '{'
        Stmt seq;
        seq.kind = Stmt::Kind::Seq;
        seq.line = tok(pos_).line;
        std::size_t close = skipBalancedFrom(pos_);
        ++pos_;
        std::size_t siteDepth = siteStack_.size();
        while (pos_ < close - 1 && !eof())
            parseStmt(seq.children, close - 1);
        pos_ = close;
        siteStack_.resize(siteDepth); // SiteScope dies with its block
        return seq;
    }

    /** Parse one statement, appending IR to @p outStmts. @p end bounds
     *  the enclosing block. */
    void parseStmt(std::vector<Stmt> &outStmts, std::size_t end)
    {
        if (pos_ >= end || eof())
            return;
        const Token &t = tok(pos_);

        if (t.is("{")) {
            outStmts.push_back(parseBlock());
            return;
        }
        if (t.is(";")) {
            ++pos_;
            return;
        }
        if (t.is("if")) {
            ++pos_;
            if (is(pos_, "constexpr"))
                ++pos_;
            parseParenOps(outStmts, end);
            Stmt ifs;
            ifs.kind = Stmt::Kind::If;
            ifs.line = t.line;
            ifs.children.resize(2);
            ifs.children[0].kind = Stmt::Kind::Seq;
            ifs.children[1].kind = Stmt::Kind::Seq;
            parseStmt(ifs.children[0].children, end);
            if (is(pos_, "else")) {
                ++pos_;
                parseStmt(ifs.children[1].children, end);
            }
            outStmts.push_back(std::move(ifs));
            return;
        }
        if (t.is("for") || t.is("while")) {
            bool isFor = t.is("for");
            ++pos_;
            // Condition/header expressions run before the loop (and on
            // every iteration; approximated as once — see file note).
            parseParenOps(outStmts, end);
            Stmt loop;
            loop.kind = Stmt::Kind::Loop;
            loop.line = t.line;
            loop.children.resize(1);
            loop.children[0].kind = Stmt::Kind::Seq;
            (void)isFor;
            parseStmt(loop.children[0].children, end);
            outStmts.push_back(std::move(loop));
            return;
        }
        if (t.is("do")) {
            ++pos_;
            Stmt loop;
            loop.kind = Stmt::Kind::Loop;
            loop.postTest = true;
            loop.line = t.line;
            loop.children.resize(1);
            loop.children[0].kind = Stmt::Kind::Seq;
            parseStmt(loop.children[0].children, end);
            if (is(pos_, "while")) {
                ++pos_;
                parseParenOps(loop.children[0].children, end);
            }
            if (is(pos_, ";"))
                ++pos_;
            outStmts.push_back(std::move(loop));
            return;
        }
        if (t.is("switch")) {
            ++pos_;
            parseParenOps(outStmts, end);
            if (!is(pos_, "{")) {
                parseStmt(outStmts, end); // degenerate; keep going
                return;
            }
            outStmts.push_back(parseSwitchBody(t.line));
            return;
        }
        if (t.is("return")) {
            ++pos_;
            std::size_t exprBegin = pos_;
            skipToSemi(end);
            extractOps(exprBegin, pos_, outStmts);
            Stmt ret;
            ret.kind = Stmt::Kind::Return;
            ret.line = t.line;
            outStmts.push_back(std::move(ret));
            return;
        }
        if (t.is("break") || t.is("continue")) {
            Stmt s;
            s.kind = t.is("break") ? Stmt::Kind::Break
                                   : Stmt::Kind::Continue;
            s.line = t.line;
            ++pos_;
            if (is(pos_, ";"))
                ++pos_;
            outStmts.push_back(std::move(s));
            return;
        }
        if (t.is("try")) {
            ++pos_;
            if (is(pos_, "{"))
                outStmts.push_back(parseBlock());
            while (is(pos_, "catch")) {
                ++pos_;
                if (is(pos_, "("))
                    pos_ = skipBalancedFrom(pos_);
                // A catch body may or may not run: model as If.
                Stmt maybe;
                maybe.kind = Stmt::Kind::If;
                maybe.line = t.line;
                maybe.children.resize(2);
                maybe.children[0].kind = Stmt::Kind::Seq;
                maybe.children[1].kind = Stmt::Kind::Seq;
                if (is(pos_, "{"))
                    maybe.children[0].children.push_back(parseBlock());
                outStmts.push_back(std::move(maybe));
            }
            return;
        }
        if (t.is("else")) {
            // Dangling else from a brace-less construct we flattened;
            // parse its statement in place.
            ++pos_;
            parseStmt(outStmts, end);
            return;
        }

        // Declaration or expression statement: scan to ';' at depth 0.
        std::size_t begin = pos_;
        skipToSemi(end);
        recognizeDecl(begin, pos_);
        extractOps(begin, pos_, outStmts);
    }

    Stmt parseSwitchBody(int line)
    {
        Stmt sw;
        sw.kind = Stmt::Kind::Switch;
        sw.line = line;
        std::size_t close = skipBalancedFrom(pos_);
        ++pos_;
        std::size_t siteDepth = siteStack_.size();
        Stmt group;
        group.kind = Stmt::Kind::Seq;
        auto flush_group = [&]() {
            if (!group.children.empty())
                sw.children.push_back(std::move(group));
            group = Stmt{};
            group.kind = Stmt::Kind::Seq;
        };
        while (pos_ < close - 1 && !eof()) {
            if (is(pos_, "case")) {
                flush_group();
                // Skip the label: forward to the single ':' that is
                // not part of a '::'.
                ++pos_;
                while (pos_ < close - 1) {
                    if (is(pos_, ":") && !is(pos_ + 1, ":")) {
                        ++pos_;
                        break;
                    }
                    if (is(pos_, ":") && is(pos_ + 1, ":"))
                        pos_ += 2;
                    else
                        ++pos_;
                }
                continue;
            }
            if (is(pos_, "default")) {
                flush_group();
                sw.hasDefault = true;
                ++pos_;
                if (is(pos_, ":"))
                    ++pos_;
                continue;
            }
            parseStmt(group.children, close - 1);
        }
        flush_group();
        pos_ = close;
        siteStack_.resize(siteDepth);
        return sw;
    }

    /** Parse a parenthesized header, emitting any device ops found in
     *  it (condition/init/increment expressions). */
    void parseParenOps(std::vector<Stmt> &outStmts, std::size_t end)
    {
        if (!is(pos_, "("))
            return;
        std::size_t close = skipBalancedFrom(pos_);
        extractOps(pos_ + 1, close - 1, outStmts);
        pos_ = std::min(close, end);
    }

    /** RAII declarations the transfer functions know: SiteScope tags
     *  (bound to ops for --sites attribution) and latch guards. */
    void recognizeDecl(std::size_t begin, std::size_t end)
    {
        for (std::size_t i = begin; i + 2 < end; ++i) {
            if (!tok(i).isWord())
                continue;
            if (tok(i).text == "SiteScope" && tok(i + 1).isWord()
                && is(i + 2, "(")) {
                std::size_t close = skipBalancedFrom(i + 2);
                std::string site;
                for (std::size_t j = i + 3; j < close - 1; ++j) {
                    if (tok(j).isString()) {
                        const std::string &s = tok(j).text;
                        site = s.size() >= 2
                                   ? s.substr(1, s.size() - 2)
                                   : s;
                        break;
                    }
                }
                if (site.empty() && close >= 2) {
                    // Tag via a named constant: keep the spelling.
                    std::size_t comma = i + 3;
                    while (comma < close - 1 && !is(comma, ","))
                        ++comma;
                    site = normalize(comma + 1, close - 1);
                }
                if (!site.empty()) {
                    siteStack_.push_back(site);
                    currentFnSites_.push_back(site);
                    out_.siteLiterals.push_back(site);
                }
            }
        }
    }

    /** Scan a token span for recognized device-protocol calls and
     *  guard constructions, emitting Op statements in source order. */
    void extractOps(std::size_t begin, std::size_t end,
                    std::vector<Stmt> &outStmts)
    {
        for (std::size_t i = begin; i < end && i < toks_.size(); ++i) {
            if (tok(i).isWord() && isGuardTypeName(tok(i).text)
                && i + 1 < end && tok(i + 1).isWord()
                && is(i + 2, "(")) {
                std::size_t close = skipBalancedFrom(i + 2);
                outStmts.push_back(Stmt::makeOp(
                    OpKind::LatchAcquire,
                    normalize(i + 3, close - 1), tok(i).line,
                    currentSite()));
                continue;
            }
            if (!tok(i).isWord() || !is(i + 1, "("))
                continue;
            const OpKind *kind = protocolMethodOp(tok(i).text);
            if (kind == nullptr)
                continue;
            // Receiver: `recv.` or `recv->` immediately before.
            std::string recv;
            if (i >= 2 && is(i - 1, ".") && tok(i - 2).isWord())
                recv = tok(i - 2).text;
            else if (i >= 3 && is(i - 1, ">") && is(i - 2, "-")
                     && tok(i - 3).isWord())
                recv = tok(i - 3).text;
            if (!isDeviceReceiverName(recv))
                continue;
            std::size_t close = skipBalancedFrom(i + 1);
            std::size_t argEnd = i + 2;
            int depth = 0;
            while (argEnd < close - 1) {
                const std::string &tx = tok(argEnd).text;
                if (tx == "(" || tx == "[" || tx == "{")
                    ++depth;
                else if (tx == ")" || tx == "]" || tx == "}")
                    --depth;
                else if (tx == "," && depth == 0)
                    break;
                ++argEnd;
            }
            outStmts.push_back(Stmt::makeOp(
                *kind, normalize(i + 2, argEnd), tok(i).line,
                currentSite()));
        }
    }

    std::string currentSite() const
    {
        return siteStack_.empty() ? std::string() : siteStack_.back();
    }

    std::string file_;
    const std::vector<Token> &toks_;
    std::size_t pos_ = 0;
    FileIR out_;
    std::vector<std::string> siteStack_;
    std::vector<std::string> currentFnSites_;
};

} // namespace

FileIR
parseSourceInternal(const std::string &file, const std::string &text)
{
    std::vector<LineView> lines = lexLines(text);
    std::vector<Token> toks = tokenize(lines);
    Parser parser(file, toks);
    FileIR ir = parser.run();
    ir.file = file;
    return ir;
}

} // namespace fasp::analyze
