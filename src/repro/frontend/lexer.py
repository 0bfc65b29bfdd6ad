"""Lexer for Core-Java source text.

One compiled master regular expression scans the source.  The tokens are
kept as three parallel lists -- kind, text and start offset -- inside a
:class:`Tokens` sequence, so lexing allocates no per-token object; line
and column are computed from a newline-offset table only when the parser
or a diagnostic asks for a position.  Supports ``//`` line comments and
``/* ... */`` block comments.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from ..lang.ast import Pos

__all__ = ["Token", "Tokens", "LexError", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "class",
        "extends",
        "new",
        "null",
        "true",
        "false",
        "if",
        "else",
        "while",
        "return",
        "this",
        "static",
        "int",
        "bool",
        "boolean",
        "void",
        "letreg",
        "in",
        "where",
    }
)

#: Alternatives are tried in order at each offset: comments (and an
#: unterminated ``/*``) before the ``/`` operator, integers before words,
#: multi-character operators before their one-character prefixes
#: (maximal munch).  ``\w`` is exactly ``str.isalnum()`` plus ``_``; a
#: word must also *start* with a letter or ``_``, which :func:`tokenize`
#: checks.  Integer literals are ASCII digits only.
_MASTER = re.compile(
    r"""
      (?P<skip> [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )
    | (?P<int> [0-9]+ )
    | (?P<word> \w+ )
    | (?P<unclosed> /\* )
    | (?P<op> == | != | <= | >= | && | \|\| | [-+*/%<>=!.,;(){}\[\]] )
    | (?P<bad> . )
    """,
    re.VERBOSE | re.DOTALL,
)


class LexError(Exception):
    """Raised on malformed input text."""

    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.msg = message
        self.pos = pos


@dataclass(frozen=True)
class Token:
    """A lexical token, materialised on demand from :class:`Tokens`.

    ``kind`` is one of ``"id"``, ``"int"``, ``"kw"``, ``"op"``, ``"eof"``;
    ``text`` is the matched text (empty for eof).
    """

    kind: str
    text: str
    pos: Pos

    def is_kw(self, word: str) -> bool:
        return self.kind == "kw" and self.text == word

    def is_op(self, op: str) -> bool:
        return self.kind == "op" and self.text == op

    def __str__(self) -> str:
        return self.text if self.kind != "eof" else "<eof>"


class Tokens:
    """A lexed token stream: parallel ``kinds``/``texts``/``starts`` lists.

    The last token is always the one ``eof`` token.  Indexing builds a
    :class:`Token` view; the parser reads the lists directly.
    """

    __slots__ = (
        "source", "kinds", "texts", "starts", "_newlines", "_line_numbers"
    )

    def __init__(
        self, source: str, kinds: List[str], texts: List[str], starts: List[int]
    ):
        self.source = source
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self._newlines: Optional[List[int]] = None
        self._line_numbers: List[int] = []

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, i: int) -> Token:
        return Token(self.kinds[i], self.texts[i], self.pos(i))

    def __iter__(self) -> Iterator[Token]:
        for i in range(len(self.kinds)):
            yield self[i]

    def pos(self, i: int) -> Pos:
        """Line and column of token ``i``."""
        return self.pos_at(self.starts[i])

    def pos_at(self, offset: int) -> Pos:
        """The 1-based line and column of ``offset`` in the source.

        Columns count characters, so a tab or a ``\\r`` advances by one.
        """
        newlines = self._newlines
        if newlines is None:
            newlines = self._newlines = [
                m.start() for m in re.finditer("\n", self.source)
            ]
            # one int object per line, shared by every position on it (an
            # AST keeps thousands of positions alive; ints above 256 are
            # not cached by the interpreter)
            self._line_numbers = list(range(1, len(newlines) + 2))
        line = bisect_left(newlines, offset)
        return Pos(
            self._line_numbers[line],
            offset - newlines[line - 1] if line else offset + 1,
        )


def tokenize(source: str) -> Tokens:
    """Lex ``source`` into a token stream ending with one ``eof`` token."""
    kinds: List[str] = []
    texts: List[str] = []
    starts: List[int] = []
    tokens = Tokens(source, kinds, texts, starts)
    # one string object per distinct name or operator in this source (an
    # AST keeps every identifier it holds alive).  A table local to the
    # call, not ``sys.intern``: interned strings can outlive every parse
    # (CPython 3.12 never frees them), and a server lexes client text.
    seen: Dict[str, str] = {}
    for m in _MASTER.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        text = m.group()
        if kind == "word":
            first = text[0]
            if not (first.isalpha() or first == "_"):
                raise LexError(
                    f"unexpected character {first!r}", tokens.pos_at(m.start())
                )
            kind = "kw" if text in KEYWORDS else "id"
        elif kind == "unclosed":
            raise LexError("unterminated block comment", tokens.pos_at(m.start()))
        elif kind == "bad":
            raise LexError(
                f"unexpected character {text!r}", tokens.pos_at(m.start())
            )
        kinds.append(kind)
        texts.append(text if kind == "int" else seen.setdefault(text, text))
        starts.append(m.start())
    kinds.append("eof")
    texts.append("")
    starts.append(len(source))
    return tokens
