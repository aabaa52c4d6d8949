"""Lexer for mini-C, the C subset the corpus and examples are written in.

Mini-C covers the constructs PATA's evaluation exercises: structs with
designated initializers (module-interface registration), pointers, field
accesses, arrays, control flow including ``goto``, and the kernel-ish
allocation/locking APIs (recognized later, at lowering).

:func:`tokenize` is one loop over one compiled master regex: each
alternative is a named group for one token class, tried in order, so
the group that matched names what was read.  Positions come from the
offset of the last newline seen, not from per-character counters.
Every rejected input raises :class:`~repro.errors.LexError` with the
line and column the error was found at.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple

from ..errors import LexError

KEYWORDS = {
    "struct", "union", "enum", "typedef", "static", "extern", "inline",
    "const", "volatile", "unsigned", "signed", "void", "int", "char",
    "long", "short", "float", "double", "bool",
    "if", "else", "while", "for", "do", "return", "break", "continue",
    "goto", "switch", "case", "default", "sizeof", "NULL",
}

# Multi-character punctuation, longest first so maximal munch works.
PUNCT = [
    "<<=", ">>=", "...",
    "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ",", ".", "?", ":",
]


class Token(NamedTuple):
    kind: str  # 'id', 'num', 'char', 'string', 'kw', 'punct', 'eof'
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.line}:{self.column}"


# A string literal's body: a backslash escapes any character, newline included.
_STRING_BODY = r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'

# Alternatives are tried in this order; the first that matches wins.
_TOKEN_GROUPS = [
    # A run of whitespace, // and /* */ comments, and preprocessor lines
    # (ignored: the corpus does not rely on macros; a backslash-newline
    # continues the line).
    ("skip", r"(?:[ \t\r\n]+|//[^\n]*|/\*[\s\S]*?\*/|#[^\\\n]*(?:\\\n?[^\\\n]*)*)+"),
    # A /* that the skip group could not close.
    ("open_comment", r"/\*"),
    ("id", r"[A-Za-z_]\w*"),
    ("punct", "|".join(re.escape(p) for p in PUNCT if len(p) > 1)
     + "|[" + re.escape("".join(p for p in PUNCT if len(p) == 1)) + "]"),
    ("bad_hex", r"0[xX](?![0-9a-fA-F])"),
    # Decimal digits followed by a non-ASCII word character go to
    # ``digits``, which checks whether that character is a digit.
    ("num", r"(?:0[xX][0-9a-fA-F]+|[0-9]+(?![0-9]|[^\W\x00-\x7f]))[uUlL]*"),
    ("digits", r"[0-9]+"),
    # A word starting with a non-ASCII character: a letter starts an
    # identifier, a digit a malformed literal, anything else is an error.
    ("uword", r"[^\W\x00-\x7f]\w*"),
    ("string", f'"{_STRING_BODY}"'),
    ("char", r"'(?:\\[\s\S]|[^\\])'"),
    ("open_string", r'"'),
    ("open_char", r"'"),
    ("other", r"[\s\S]"),
]
_MASTER = re.compile("|".join(f"(?P<{name}>{pattern})" for name, pattern in _TOKEN_GROUPS))
_ESCAPE = re.compile(r"\\([\s\S])")
_CHAR_ESCAPES = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", "r": "\r"}


def _error(message: str, filename: str, source: str, offset: int) -> LexError:
    """A ``LexError`` at ``offset``; offsets past the end keep counting columns."""
    end = min(offset, len(source))
    line = source.count("\n", 0, end) + 1
    return LexError(message, filename, line, offset - source.rfind("\n", 0, end))


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenize ``source`` fully, returning the token list ending with EOF."""
    tokens: List[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) without the Python-level __new__ frame
    line = 1
    line_base = -1  # offset of the last newline seen; column = offset - line_base
    for match in _MASTER.finditer(source):
        kind = match.lastgroup
        text = match.group()
        start = match.start()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_base = start + text.rindex("\n")
        elif kind == "id":
            append(new(Token, ("kw" if text in KEYWORDS else "id", text, line, start - line_base)))
        elif kind == "punct" or kind == "num":
            append(new(Token, (kind, text, line, start - line_base)))
        elif kind == "string" or kind == "char":
            body = text[1:-1]
            if kind == "char":
                value = _CHAR_ESCAPES.get(body[1], body[1]) if body[0] == "\\" else body
            else:
                value = _ESCAPE.sub(r"\1", body) if "\\" in body else body
            append(new(Token, (kind, value, line, start - line_base)))
            if "\n" in text:
                line += text.count("\n")
                line_base = start + text.rindex("\n")
        else:
            append(_rare_token(kind, match, filename, line, start - line_base))
    append(Token("eof", "", line, len(source) - line_base))
    return tokens


def _rare_token(kind: str, match: re.Match, filename: str, line: int, column: int) -> Token:
    """The token for a match outside the common groups, or the error it is."""
    source, text, start = match.string, match.group(), match.start()
    if kind == "uword" and text[0].isalpha():
        return Token("id", text, line, column)
    if kind == "digits" and not source[match.end()].isdigit():
        return Token("num", text, line, column)
    if kind in ("bad_hex", "digits") or (kind == "uword" and text[0].isdigit()):
        raise LexError("malformed integer literal", filename, line, column)
    if kind == "open_comment":
        raise _error("unterminated block comment", filename, source, len(source))
    if kind == "open_string":
        end = re.compile(_STRING_BODY).match(source, start + 1).end()
        # A backslash stops the body only as the last character; its
        # escape then reads one past the end.
        raise _error("unterminated string literal", filename, source,
                     end + 2 if end < len(source) and source[end] == "\\" else end)
    if kind == "open_char":
        # Where the closing quote should have been.
        end = start + (3 if source[start + 1 : start + 2] == "\\" else 2)
        raise _error("unterminated character literal", filename, source, end)
    raise LexError(f"unexpected character {text[0]!r}", filename, line, column)


def parse_int_literal(text: str) -> int:
    """Parse a C integer literal (decimal or 0x hex, suffixes ignored)."""
    text = text.rstrip("uUlL")
    return int(text, 16) if text.lower().startswith("0x") else int(text, 10)
