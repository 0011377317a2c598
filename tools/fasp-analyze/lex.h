/**
 * @file
 * Lexical layer shared by the front end, the textual rules
 * and the waiver scanner: comment/string-aware line views (so prose
 * never looks like code) and a coarse C++ tokenizer with line numbers.
 */

#ifndef FASP_TOOLS_ANALYZE_LEX_H
#define FASP_TOOLS_ANALYZE_LEX_H

#include <string>
#include <vector>

namespace fasp::analyze {

/** One physical source line split into code and comment parts. */
struct LineView
{
    std::string code;    //!< string/char literal bodies blanked
    std::string comment; //!< comment text only
};

/** Split a translation unit into per-line code/comment views. Handles
 *  line/block comments, string/char literals with escapes, and raw
 *  string literals. String literals keep their quotes and contents in
 *  `code` (the parser needs SiteScope tags); comments are fully
 *  separated out. */
std::vector<LineView> lexLines(const std::string &text);

struct Token
{
    enum class Kind : unsigned char { Word, String, Punct };
    Kind kind = Kind::Punct;
    std::string text;
    int line = 0;

    bool is(const char *s) const { return text == s; }
    bool isWord() const { return kind == Kind::Word; }
    bool isString() const { return kind == Kind::String; }
};

/** Tokenize the code parts of @p lines. Words are identifier/number
 *  runs; strings are single tokens including quotes; every other
 *  non-space character is a single punct token (no multi-char
 *  operators — the parser only needs brackets, separators and words).
 *  Preprocessor lines (first code char '#', plus backslash
 *  continuations) are dropped. */
std::vector<Token> tokenize(const std::vector<LineView> &lines);

} // namespace fasp::analyze

#endif // FASP_TOOLS_ANALYZE_LEX_H
