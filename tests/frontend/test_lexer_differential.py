"""Differential oracle: the regex lexer against the character-at-a-time one.

:mod:`reference_lexer` keeps the lexer the master-regex implementation
replaced.  On every input both must agree on each token's kind, text,
line and column, or raise :class:`LexError` with the same message at the
same position.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from reference_lexer import reference_tokens
from repro.frontend.lexer import LexError, tokenize
from repro.gen import GenSpec, generate_source

FIXTURES = Path(__file__).parent.parent / "fuzz" / "fixtures"


def production_tokens(source):
    toks = tokenize(source)
    return [
        (kind, text, toks.pos(i).line, toks.pos(i).col)
        for i, (kind, text) in enumerate(zip(toks.kinds, toks.texts))
    ]


def outcome(lex, source):
    try:
        return ("ok", lex(source))
    except LexError as err:
        return ("error", err.msg, err.pos.line, err.pos.col, str(err))


def assert_same(source):
    assert outcome(production_tokens, source) == outcome(reference_tokens, source)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in FIXTURES.glob("*.cj"))
)
def test_fuzz_fixture(name):
    assert_same((FIXTURES / name).read_text())


@pytest.mark.parametrize("seed", range(4))
def test_generated_program(seed):
    assert_same(generate_source(GenSpec(seed=seed).sized(10)))


@pytest.mark.parametrize(
    "source",
    [
        "",
        "int f() { ² }",
        "int f() { 1² }",
        "int x² = ١٢;",
        "a\r\nb\tc",
        "/* never closed",
        "a /* x\ny */ b // tail",
        "x = y / z; /",
        "é_1 ñ 日本 _",
        "a @ b",
        "½",
    ],
)
def test_edge_cases(source):
    assert_same(source)


_ALPHABET = st.sampled_from(
    [
        " ", "\t", "\r", "\n", "\r\n", "//", "/*", "*/", "/", "*",
        "0", "7", "42", "²", "٣", "½",
        "a", "Z", "_", "x1", "é", "ñ", "日", "Ω",
        "class", "int", "if", "else", "new", "null", "this", "return",
        "==", "!=", "<=", ">=", "&&", "||", "=", "<", ">", "!", "&", "|",
        "+", "-", "%", ".", ",", ";", "(", ")", "{", "}", "[", "]",
        "@", "#", "$", "\x0b", " ",
    ]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_ALPHABET, st.text(max_size=2)), max_size=40).map("".join))
def test_random_token_soup(source):
    assert_same(source)
