"""The character-at-a-time Core-Java lexer, kept as a test oracle.

This is the lexer :mod:`repro.frontend.lexer` replaced with a master
regular expression.  It walks the source one character at a time and
tracks line and column as it goes, which makes it slow but easy to read.
One change from the original: integer literals are ASCII ``[0-9]+``, so a
non-ASCII digit (``²``, ``٣``) at the start of a token is an unexpected
character instead of an integer that ``int()`` later rejects.

:func:`reference_tokens` returns ``(kind, text, line, col)`` tuples and
raises the production :class:`~repro.frontend.lexer.LexError` with the
same message and position the production lexer must report.
"""

from typing import List, Tuple

from repro.frontend.lexer import KEYWORDS, LexError
from repro.lang.ast import Pos

_MULTI_OPS = ("==", "!=", "<=", ">=", "&&", "||")
_SINGLE_OPS = "+-*/%<>=!.,;(){}[]"


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def reference_tokens(source: str) -> List[Tuple[str, str, int, int]]:
    """Lex ``source``; the list ends with one ``eof`` entry."""
    tokens: List[Tuple[str, str, int, int]] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def pos() -> Pos:
        return Pos(line, col)

    def emit(kind: str, text: str, p: Pos) -> None:
        tokens.append((kind, text, p.line, p.col))

    def advance(count: int) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                advance(1)
            continue
        if source.startswith("/*", i):
            start = pos()
            advance(2)
            while i < n and not source.startswith("*/", i):
                advance(1)
            if i >= n:
                raise LexError("unterminated block comment", start)
            advance(2)
            continue
        if _is_digit(ch):
            start, p = i, pos()
            while i < n and _is_digit(source[i]):
                advance(1)
            emit("int", source[start:i], p)
            continue
        if ch.isalpha() or ch == "_":
            start, p = i, pos()
            while i < n and (source[i].isalnum() or source[i] == "_"):
                advance(1)
            word = source[start:i]
            emit("kw" if word in KEYWORDS else "id", word, p)
            continue
        matched = False
        for op in _MULTI_OPS:
            if source.startswith(op, i):
                emit("op", op, pos())
                advance(len(op))
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_OPS:
            emit("op", ch, pos())
            advance(1)
            continue
        raise LexError(f"unexpected character {ch!r}", pos())

    emit("eof", "", pos())
    return tokens
