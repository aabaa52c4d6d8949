"""Lexer unit tests."""

import time
from typing import Iterator, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import ALL_PROFILES, FIRMLAB, RACELAB, TAINTLAB, generate
from repro.errors import LexError
from repro.lang.lexer import KEYWORDS, PUNCT, Token, parse_int_literal, tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)[:-1]]  # drop EOF


def test_identifiers_and_keywords():
    toks = kinds_and_texts("int foo struct _bar baz42")
    assert toks == [
        ("kw", "int"), ("id", "foo"), ("kw", "struct"),
        ("id", "_bar"), ("id", "baz42"),
    ]


def test_numbers_decimal_and_hex():
    toks = kinds_and_texts("42 0x1F 0 123456789")
    assert all(k == "num" for k, _ in toks)
    assert [parse_int_literal(t) for _, t in toks] == [42, 31, 0, 123456789]


def test_integer_suffixes_are_consumed():
    assert parse_int_literal("42UL") == 42
    assert parse_int_literal("0x10u") == 16
    toks = kinds_and_texts("7ULL")
    assert toks == [("num", "7ULL")]


def test_multichar_punctuation_maximal_munch():
    toks = [t.text for t in tokenize("a->b >>= c << d <= e == f && g")[:-1]]
    assert "->" in toks and ">>=" in toks and "<<" in toks
    assert "<=" in toks and "==" in toks and "&&" in toks


def test_line_comments_skipped():
    toks = kinds_and_texts("a // comment with * and /\nb")
    assert toks == [("id", "a"), ("id", "b")]


def test_block_comments_skipped_multiline():
    toks = kinds_and_texts("a /* line1\nline2 * / almost */ b")
    assert toks == [("id", "a"), ("id", "b")]


def test_unterminated_block_comment_raises():
    with pytest.raises(LexError):
        tokenize("a /* never closed")


def test_preprocessor_lines_ignored():
    toks = kinds_and_texts("#include <stdio.h>\nint x;\n#define FOO 1\ny")
    assert ("id", "x") in toks and ("id", "y") in toks
    assert all(t != "include" for _, t in toks)


def test_preprocessor_continuation():
    toks = kinds_and_texts("#define FOO \\\n  more\nint x;")
    assert toks[0] == ("kw", "int")


def test_string_literal():
    toks = tokenize('"hello world"')
    assert toks[0].kind == "string" and toks[0].text == "hello world"


def test_string_escapes():
    toks = tokenize(r'"a\"b"')
    assert toks[0].text == 'a"b'


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize('"no close')


def test_char_literal_and_escape():
    toks = tokenize(r"'a' '\n' '\0'")
    values = [t.text for t in toks[:-1]]
    assert values == ["a", "\n", "\0"]


def test_positions_track_lines_and_columns():
    toks = tokenize("a\n  b")
    assert toks[0].line == 1 and toks[0].column == 1
    assert toks[1].line == 2 and toks[1].column == 3


def test_unexpected_character_raises():
    with pytest.raises(LexError):
        tokenize("int a = 1 @ 2;")


def test_null_is_a_keyword():
    toks = kinds_and_texts("NULL")
    assert toks == [("kw", "NULL")]


def test_eof_token_terminates_stream():
    toks = tokenize("x")
    assert toks[-1].kind == "eof"


# -- malformed integer literals ------------------------------------------------


@pytest.mark.parametrize("source, line, column", [
    ("return 0x;", 1, 8),
    ("int a[0x];", 1, 7),
    ("switch (x) {\n  case 0x: break;\n}", 2, 8),
    ("x = 0XUL;", 1, 5),
    ("return ²;", 1, 8),   # superscript two: a digit, not a decimal
    ("return 1²;", 1, 8),
    ("return ٣;", 1, 8),   # arabic-indic three
])
def test_malformed_integer_literal_raises_lex_error(source, line, column):
    with pytest.raises(LexError, match="malformed integer literal") as info:
        tokenize(source)
    assert (info.value.line, info.value.column) == (line, column)


def test_eof_column_is_one_past_the_last_character():
    assert tokenize("int x = 0")[-1][2:] == (1, 10)


def test_digits_before_a_non_ascii_letter_stay_a_number():
    assert kinds_and_texts("1é") == [("num", "1"), ("id", "é")]
    assert kinds_and_texts("x² é٣") == [("id", "x²"), ("id", "é٣")]


# -- regex blow-up guards -------------------------------------------------------

_BIG = 200_000


@pytest.mark.parametrize("source", [
    "/*" + "x" * _BIG,
    '"' + "x" * _BIG,
    "/*" * (_BIG // 2),
], ids=["unterminated-comment", "unterminated-string", "open-comment-run"])
def test_unterminated_input_fails_fast(source):
    start = time.perf_counter()
    with pytest.raises(LexError):
        tokenize(source)
    assert time.perf_counter() - start < 1.0


def test_long_comment_tokenizes_fast():
    source = "/*" + "x*" * (_BIG // 2) + "*/ a"
    start = time.perf_counter()
    tokens = tokenize(source)
    assert time.perf_counter() - start < 1.0
    assert [t[:2] for t in tokens] == [("id", "a"), ("eof", "")]


# -- the char-by-char lexer tokenize replaced, kept as the oracle ----------------


class _ReferenceLexer:
    """Streaming tokenizer over one mini-C source buffer."""

    def __init__(self, source: str, filename: str = "<input>"):
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    def _error(self, message: str) -> LexError:
        return LexError(message, self.filename, self.line, self.column)

    def _advance(self, count: int = 1) -> None:
        for _ in range(count):
            if self.pos < len(self.source) and self.source[self.pos] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source) and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self.pos >= len(self.source):
                    raise self._error("unterminated block comment")
                self._advance(2)
            elif ch == "#":
                while self.pos < len(self.source) and self._peek() != "\n":
                    if self._peek() == "\\" and self._peek(1) == "\n":
                        self._advance()
                    self._advance()
            else:
                return

    def tokens(self) -> Iterator[Token]:
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                yield Token("eof", "", self.line, self.column)
                return
            start_line, start_col = self.line, self.column
            ch = self._peek()
            if ch.isalpha() or ch == "_":
                text = self._lex_word()
                kind = "kw" if text in KEYWORDS else "id"
                yield Token(kind, text, start_line, start_col)
            elif ch.isdigit():
                yield Token("num", self._lex_number(), start_line, start_col)
            elif ch == '"':
                yield Token("string", self._lex_string(), start_line, start_col)
            elif ch == "'":
                yield Token("char", self._lex_char(), start_line, start_col)
            else:
                for punct in PUNCT:
                    if self.source.startswith(punct, self.pos):
                        self._advance(len(punct))
                        yield Token("punct", punct, start_line, start_col)
                        break
                else:
                    raise self._error(f"unexpected character {ch!r}")

    def _lex_word(self) -> str:
        start = self.pos
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        return self.source[start : self.pos]

    def _lex_number(self) -> str:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in "xX":
            self._advance(2)
            while self._peek() and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self._peek().isdigit():
                self._advance()
        while self._peek() and self._peek() in "uUlL":
            self._advance()
        return self.source[start : self.pos]

    def _lex_string(self) -> str:
        self._advance()  # opening quote
        chars: List[str] = []
        while True:
            ch = self._peek()
            if not ch or ch == "\n":
                raise self._error("unterminated string literal")
            if ch == '"':
                self._advance()
                return "".join(chars)
            if ch == "\\":
                self._advance()
                chars.append(self._peek())
                self._advance()
            else:
                chars.append(ch)
                self._advance()

    def _lex_char(self) -> str:
        self._advance()  # opening quote
        if self._peek() == "\\":
            self._advance()
            escapes = {"n": "\n", "t": "\t", "0": "\0", "\\": "\\", "'": "'", "r": "\r"}
            ch = escapes.get(self._peek(), self._peek())
            self._advance()
        else:
            ch = self._peek()
            self._advance()
        if self._peek() != "'":
            raise self._error("unterminated character literal")
        self._advance()
        return ch


def _reference_tokenize(source: str, filename: str = "<input>") -> List[Token]:
    return list(_ReferenceLexer(source, filename).tokens())


def _is_malformed_number(token: Token) -> bool:
    """A number the reference lexer accepted but ``tokenize`` rejects."""
    if token.kind != "num":
        return False
    if not token.text.isascii():
        return True
    try:
        parse_int_literal(token.text)
    except ValueError:
        return True
    return False


def _error_key(error: LexError):
    return (str(error), error.line, error.column)


def _assert_matches_reference(source: str, filename: str = "<input>") -> None:
    expected: List[Token] = []
    expected_error = None
    try:
        for token in _ReferenceLexer(source, filename).tokens():
            expected.append(token)
    except LexError as error:
        expected_error = error
    if expected_error is None and len(expected) > 1 and source.endswith("0"):
        last, eof = expected[-2:]
        if last[:2] == ("num", "0") and (last.line, last.column + 2) == (eof.line, eof.column):
            # The reference reads ``"" in "xX"`` as true, so a "0" that
            # ends the input steps one column past the end before EOF.
            expected[-1] = eof._replace(column=eof.column - 1)
    malformed = next((t for t in expected if _is_malformed_number(t)), None)
    if malformed is not None:
        with pytest.raises(LexError, match="malformed integer literal") as info:
            tokenize(source, filename)
        assert (info.value.line, info.value.column) == (malformed.line, malformed.column)
    elif expected_error is not None:
        with pytest.raises(LexError) as info:
            tokenize(source, filename)
        assert _error_key(info.value) == _error_key(expected_error)
    else:
        assert [tuple(t) for t in tokenize(source, filename)] == [tuple(t) for t in expected]


_MINI_C_ALPHABET = (
    "abcxyz_ABXZ0123456789 \t\r\n\\\"'#/*+-<>=!&|^~%()[]{};,.?:"
    "uUlL@$`\f"
    "éßж"  # letters: e-acute, sharp s, cyrillic zhe
    "٣²½"  # digits and numerics: arabic-indic three, superscript two, one half
)
_FRAGMENTS = ["/*", "*/", "//", "0x", "0X1f", "int", "\\\n", "'\\", '"\\', "->", "<<=", "..."]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_MINI_C_ALPHABET), st.sampled_from(_FRAGMENTS)),
                max_size=40).map("".join))
def test_tokenize_matches_reference_on_random_input(source):
    _assert_matches_reference(source, "fuzz.c")


@pytest.mark.parametrize("source", [
    "", "'", "'\\", "'a", "'ab'", "'\n'", "'''", "'\\''", '"', '"\\', '"a\\\nb"', '"a\nb"',
    "/*/", "/**/", "#x \\\\\ny", "#x\\\r\ny", "a\f", "1U²", "0x1²", "½x", "int x = 0", "0 #0",
])
def test_tokenize_matches_reference_on_edge_cases(source):
    _assert_matches_reference(source)


@pytest.mark.parametrize("profile", ALL_PROFILES + [TAINTLAB, RACELAB, FIRMLAB], ids=lambda p: p.name)
def test_tokenize_matches_reference_on_corpus(profile):
    for filename, source in generate(profile.scaled(0.1)).compiled_sources():
        assert tokenize(source, filename) == _reference_tokenize(source, filename)
