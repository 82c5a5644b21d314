#include "lex.hh"

#include <algorithm>
#include <cctype>

namespace mithra::lex
{

namespace
{

bool
identifierStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
identifierChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/**
 * Collect `mithra-lint: allow(<rule>)` annotations from one comment
 * body. `line` is the line the comment starts on; annotations inside a
 * multi-line comment are anchored to the line the marker sits on.
 */
void
parseAllows(const std::string &comment, std::size_t line,
            ScanResult &result)
{
    static const std::string marker = "mithra-lint: allow(";
    std::size_t at = 0;
    while ((at = comment.find(marker, at)) != std::string::npos) {
        const std::size_t open = at + marker.size();
        const std::size_t close = comment.find(')', open);
        if (close == std::string::npos)
            break;
        const std::size_t markerLine = line
            + static_cast<std::size_t>(std::count(
                comment.begin(),
                comment.begin() + static_cast<std::ptrdiff_t>(at),
                '\n'));
        result.allows.push_back(
            {markerLine, comment.substr(open, close - open)});
        at = close;
    }
}

/** True when `prefix` marks the upcoming `"` as a raw string. */
bool
rawStringPrefix(const std::string &prefix)
{
    return prefix == "R" || prefix == "LR" || prefix == "uR"
        || prefix == "UR" || prefix == "u8R";
}

/** True when `prefix` marks the upcoming `"` as an encoded string. */
bool
encodedStringPrefix(const std::string &prefix)
{
    return prefix == "L" || prefix == "u" || prefix == "U"
        || prefix == "u8";
}

/**
 * Consume a quoted literal (string or char) starting at src[i]; emits
 * a String token for `"` quotes (the body, escapes verbatim).
 */
std::size_t
takeQuoted(const std::string &src, std::size_t i, char quote,
           std::size_t &line, ScanResult &result)
{
    const std::size_t startLine = line;
    const std::size_t bodyStart = i + 1;
    ++i; // opening quote
    while (i < src.size()) {
        if (src[i] == '\\' && i + 1 < src.size()) {
            if (src[i + 1] == '\n')
                ++line;
            i += 2;
            continue;
        }
        if (src[i] == '\n')
            ++line; // ill-formed, but keep line numbers sane
        if (src[i] == quote)
            break;
        ++i;
    }
    const std::size_t bodyEnd = std::min(i, src.size());
    if (quote == '"') {
        result.tokens.push_back(
            {TokenKind::String,
             src.substr(bodyStart, bodyEnd - bodyStart), startLine});
    }
    return bodyEnd < src.size() ? bodyEnd + 1 : bodyEnd;
}

/** Consume a raw string R"delim( ... )delim" starting at the quote. */
std::size_t
takeRawString(const std::string &src, std::size_t i, std::size_t &line,
              ScanResult &result)
{
    const std::size_t startLine = line;
    ++i; // opening quote
    std::string delim;
    while (i < src.size() && src[i] != '(')
        delim.push_back(src[i++]);
    const std::size_t bodyStart = i < src.size() ? i + 1 : i;
    const std::string closer = ")" + delim + "\"";
    const std::size_t end = src.find(closer, i);
    const std::size_t bodyEnd = end == std::string::npos ? src.size() : end;
    const std::size_t stop =
        end == std::string::npos ? src.size() : end + closer.size();
    line += static_cast<std::size_t>(std::count(
        src.begin() + static_cast<std::ptrdiff_t>(i),
        src.begin() + static_cast<std::ptrdiff_t>(stop), '\n'));
    result.tokens.push_back(
        {TokenKind::String, src.substr(bodyStart, bodyEnd - bodyStart),
         startLine});
    return stop;
}

/**
 * If the `#` at src[i] opens an `#include` directive, record its
 * target. Purely a lookahead — consumes nothing, so the token stream
 * is unaffected and the directive still tokenizes as before.
 */
void
recordInclude(const std::string &src, std::size_t i, std::size_t line,
              ScanResult &result)
{
    std::size_t j = i + 1; // past '#'
    while (j < src.size() && (src[j] == ' ' || src[j] == '\t'))
        ++j;
    static const std::string word = "include";
    if (src.compare(j, word.size(), word) != 0)
        return;
    j += word.size();
    while (j < src.size() && (src[j] == ' ' || src[j] == '\t'))
        ++j;
    if (j >= src.size())
        return;
    const char open = src[j];
    if (open != '"' && open != '<')
        return;
    const char close = open == '"' ? '"' : '>';
    const std::size_t end = src.find_first_of(
        std::string(1, close) + "\n", j + 1);
    if (end == std::string::npos || src[end] != close)
        return;
    result.includes.push_back(
        {src.substr(j + 1, end - j - 1), line, open == '<'});
}

} // namespace

ScanResult
scan(const std::string &src)
{
    ScanResult result;
    std::size_t i = 0;
    std::size_t line = 1;
    const std::size_t n = src.size();

    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const std::size_t eol = src.find('\n', i);
            const std::size_t stop = eol == std::string::npos ? n : eol;
            parseAllows(src.substr(i, stop - i), line, result);
            i = stop;
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const std::size_t end = src.find("*/", i + 2);
            const std::size_t stop =
                end == std::string::npos ? n : end + 2;
            const std::string body = src.substr(i, stop - i);
            parseAllows(body, line, result);
            line += static_cast<std::size_t>(
                std::count(body.begin(), body.end(), '\n'));
            i = stop;
            continue;
        }
        if (c == '#') {
            recordInclude(src, i, line, result);
            result.tokens.push_back(
                {TokenKind::Punct, std::string(1, c), line});
            ++i;
            continue;
        }
        if (c == '"') {
            i = takeQuoted(src, i, '"', line, result);
            continue;
        }
        if (c == '\'') {
            i = takeQuoted(src, i, '\'', line, result);
            continue;
        }
        if (identifierStart(c)) {
            std::size_t j = i;
            while (j < n && identifierChar(src[j]))
                ++j;
            std::string text = src.substr(i, j - i);
            if (j < n && src[j] == '"' && rawStringPrefix(text)) {
                i = takeRawString(src, j, line, result);
                continue;
            }
            if (j < n && src[j] == '"' && encodedStringPrefix(text)) {
                i = takeQuoted(src, j, '"', line, result);
                continue;
            }
            if (j < n && src[j] == '\'' && encodedStringPrefix(text)) {
                i = takeQuoted(src, j, '\'', line, result);
                continue;
            }
            result.tokens.push_back(
                {TokenKind::Identifier, std::move(text), line});
            i = j;
            continue;
        }
        const bool numberStart =
            std::isdigit(static_cast<unsigned char>(c))
            || (c == '.' && i + 1 < n
                && std::isdigit(static_cast<unsigned char>(src[i + 1])));
        if (numberStart) {
            std::size_t j = i;
            while (j < n) {
                const char d = src[j];
                if (identifierChar(d) || d == '.' || d == '\'') {
                    ++j;
                    continue;
                }
                // Exponent signs: 1e+3, 0x1p-5.
                if ((d == '+' || d == '-') && j > i) {
                    const char prev = src[j - 1];
                    if (prev == 'e' || prev == 'E' || prev == 'p'
                        || prev == 'P') {
                        ++j;
                        continue;
                    }
                }
                break;
            }
            result.tokens.push_back(
                {TokenKind::Number, src.substr(i, j - i), line});
            i = j;
            continue;
        }
        result.tokens.push_back(
            {TokenKind::Punct, std::string(1, c), line});
        ++i;
    }
    return result;
}

bool
suppressed(const std::vector<Annotation> &allows, std::string_view rule,
           std::size_t line)
{
    for (const Annotation &allow : allows) {
        if (allow.rule == rule
            && (allow.line == line || allow.line + 1 == line)) {
            return true;
        }
    }
    return false;
}

} // namespace mithra::lex
