/**
 * @file
 * Minimal JSON parser and string escaper shared by the repo's tools.
 * The parser reads the subset the bench harness emits — objects,
 * arrays, strings with ASCII escapes, numbers, literals — into a small
 * DOM. Not a general-purpose JSON library.
 */
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace fasp::minijson {

/** @p s escaped for use inside a JSON string literal (quotes not
 *  added). Quote, backslash, newline, tab and carriage return take
 *  their two-character escapes; other control characters are
 *  hex-escaped. */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    bool isNumber() const { return kind == Number; }

    const JsonValue *
    find(const std::string &key) const
    {
        auto it = fields.find(key);
        return it == fields.end() ? nullptr : &it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    /** Parse the whole document; null on malformed input. */
    std::unique_ptr<JsonValue>
    parse()
    {
        auto value = std::make_unique<JsonValue>();
        if (!parseValue(*value))
            return nullptr;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters"), nullptr;
        return value;
    }

    const std::string &error() const { return error_; }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = what + " at byte " + std::to_string(pos_);
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind = JsonValue::String;
            return parseString(out.str);
          case 't':
          case 'f': return parseLiteral(out);
          case 'n': return parseLiteral(out);
          default: return parseNumber(out);
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Object;
        if (!consume('{'))
            return false;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            std::string key;
            skipWs();
            if (!parseString(key))
                return false;
            if (!consume(':'))
                return false;
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.fields.emplace(std::move(key), std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Array;
        if (!consume('['))
            return false;
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char esc = text_[pos_++];
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("bad \\u escape");
                    // ASCII-only decode: enough for this repo's output.
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    out += static_cast<char>(code & 0x7f);
                    break;
                  }
                  default: return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseLiteral(JsonValue &out)
    {
        auto matches = [&](std::string_view lit) {
            return text_.compare(pos_, lit.size(), lit) == 0;
        };
        if (matches("true")) {
            out.kind = JsonValue::Bool;
            out.boolean = true;
            pos_ += 4;
            return true;
        }
        if (matches("false")) {
            out.kind = JsonValue::Bool;
            pos_ += 5;
            return true;
        }
        if (matches("null")) {
            out.kind = JsonValue::Null;
            pos_ += 4;
            return true;
        }
        return fail("bad literal");
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        out.kind = JsonValue::Number;
        out.number =
            std::strtod(std::string(text_.substr(start, pos_ - start))
                            .c_str(),
                        nullptr);
        return true;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace fasp::minijson
