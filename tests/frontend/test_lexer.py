"""Unit tests for the Core-Java lexer."""

import sys
import uuid

import pytest

from repro.frontend.lexer import LexError, Token, tokenize


def kinds(src):
    return [(t.kind, t.text) for t in tokenize(src) if t.kind != "eof"]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1
        assert toks[0].kind == "eof"

    def test_identifiers_and_keywords(self):
        assert kinds("class Foo extends Bar") == [
            ("kw", "class"),
            ("id", "Foo"),
            ("kw", "extends"),
            ("id", "Bar"),
        ]

    def test_integers(self):
        assert kinds("42 0 123456") == [("int", "42"), ("int", "0"), ("int", "123456")]

    def test_underscore_identifiers(self):
        assert kinds("_x a_b") == [("id", "_x"), ("id", "a_b")]

    def test_positions(self):
        toks = tokenize("a\n  b")
        assert toks[0].pos.line == 1 and toks[0].pos.col == 1
        assert toks[1].pos.line == 2 and toks[1].pos.col == 3


class TestOperators:
    def test_multi_char_operators_maximal_munch(self):
        assert kinds("a<=b") == [("id", "a"), ("op", "<="), ("id", "b")]
        assert kinds("a==b") == [("id", "a"), ("op", "=="), ("id", "b")]
        assert kinds("a = =b") == [
            ("id", "a"),
            ("op", "="),
            ("op", "="),
            ("id", "b"),
        ]

    def test_logical_operators(self):
        assert kinds("a&&b||c") == [
            ("id", "a"),
            ("op", "&&"),
            ("id", "b"),
            ("op", "||"),
            ("id", "c"),
        ]

    def test_punctuation(self):
        assert [k for k, _ in kinds("(){};,.")] == ["op"] * 7


class TestComments:
    def test_line_comment(self):
        assert kinds("a // comment\nb") == [("id", "a"), ("id", "b")]

    def test_block_comment(self):
        assert kinds("a /* x\ny */ b") == [("id", "a"), ("id", "b")]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("/* never closed")


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError) as exc:
            tokenize("a @ b")
        assert "@" in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("ab\n  #")
        assert exc.value.pos.line == 2


class TestTokenHelpers:
    def test_is_kw(self):
        t = tokenize("class")[0]
        assert t.is_kw("class")
        assert not t.is_kw("extends")

    def test_is_op(self):
        t = tokenize("<=")[0]
        assert t.is_op("<=")
        assert not t.is_op("<")


class TestTextSharing:
    def test_repeated_name_shares_one_string(self):
        texts = tokenize("foo = foo + foo;").texts
        assert texts[0] == "foo"
        assert texts[0] is texts[2] is texts[4]

    def test_names_are_not_interned_process_wide(self):
        # interned strings can outlive the program text (CPython 3.12 never
        # frees them), so lexing client text must not intern its names
        name = "fresh_" + uuid.uuid4().hex
        tokens = tokenize(f"int {name} = 1;")
        assert tokens.texts[1] == name
        probe = "".join(["fresh_", name[len("fresh_"):]])
        # with no interned copy of the name, ``probe`` itself becomes it
        assert sys.intern(probe) is probe
