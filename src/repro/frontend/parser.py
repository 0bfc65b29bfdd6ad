"""Recursive-descent parser for Core-Java.

The grammar follows the paper's Fig 1(a), extended with the constructs the
benchmark programs need (arithmetic, ``while``, statement-``if``, casts,
``return``).  Blocks are expression-valued: the value of
``{ s1; ...; sk; e }`` is ``e`` (or ``void`` with a trailing statement);
``return e;`` as the last item is accepted as sugar for a result
expression.

Entry points: :func:`parse_program`, :func:`parse_expr`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from typing import Union

from ..lang import ast as S
from ..lang.ast import Pos
from .lexer import LexError, tokenize

__all__ = [
    "ParseError",
    "Parser",
    "parse_program",
    "parse_program_tolerant",
    "parse_expr",
]

_PRIM_TYPES = {"int": S.INT, "bool": S.BOOL, "boolean": S.BOOL, "void": S.VOID}

#: binary operators by binding strength, loosest first; all associate left
_BINOP_LEVELS = {
    "||": 0,
    "&&": 1,
    "==": 2,
    "!=": 2,
    "<": 3,
    "<=": 3,
    ">": 3,
    ">=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "%": 5,
}

#: tokens that may start an expression (used to disambiguate casts)
_EXPR_START_KWS = {"new", "null", "this", "true", "false", "if"}


class ParseError(Exception):
    """Raised on syntactically invalid input."""

    def __init__(self, message: str, pos: Pos):
        super().__init__(f"{pos}: {message}")
        self.msg = message
        self.pos = pos


class Parser:
    """A single-pass recursive-descent parser over a token stream.

    Tokens are addressed by index into the stream's parallel lists;
    positions are computed only for the tokens that become AST nodes or
    diagnostics.  Operator and keyword texts never occur as another
    kind's text, so a text comparison alone identifies them.
    """

    def __init__(self, source: str):
        self._tokens = tokenize(source)
        self._kinds = self._tokens.kinds
        self._texts = self._tokens.texts
        self._eof = len(self._kinds) - 1
        self._i = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self, ahead: int = 0) -> int:
        """Index of the token ``ahead`` past the cursor (eof past the end)."""
        j = self._i + ahead
        return j if j < self._eof else self._eof

    def _next(self) -> int:
        j = self._i
        if j < self._eof:
            self._i = j + 1
        return j

    def _at(self, text: str, ahead: int = 0) -> bool:
        """Is the token ``ahead`` past the cursor this operator or keyword?"""
        return self._texts[self._peek(ahead)] == text

    def _kind(self, ahead: int = 0) -> str:
        return self._kinds[self._peek(ahead)]

    def _text(self, ahead: int = 0) -> str:
        return self._texts[self._peek(ahead)]

    def _pos(self, j: int) -> Pos:
        return self._tokens.pos(j)

    def _show(self, j: int) -> str:
        return self._texts[j] if j < self._eof else "<eof>"

    def _error(self, message: str, j: int) -> "ParseError":
        return ParseError(message, self._pos(j))

    def _expect_op(self, op: str) -> int:
        j = self._next()
        if self._texts[j] != op:
            raise self._error(f"expected {op!r}, found {self._show(j)}", j)
        return j

    def _expect_kw(self, word: str) -> int:
        j = self._next()
        if self._texts[j] != word:
            raise self._error(
                f"expected keyword {word!r}, found {self._show(j)}", j
            )
        return j

    def _expect_id(self) -> int:
        j = self._next()
        if self._kinds[j] != "id":
            raise self._error(f"expected identifier, found {self._show(j)}", j)
        return j

    def _accept(self, text: str) -> bool:
        """Consume the next token if it is this operator or keyword."""
        if self._at(text):
            self._next()
            return True
        return False

    # -- types -----------------------------------------------------------------
    def _at_type(self, ahead: int = 0) -> bool:
        j = self._peek(ahead)
        kind = self._kinds[j]
        return (kind == "kw" and self._texts[j] in _PRIM_TYPES) or kind == "id"

    def _parse_type(self) -> S.Type:
        j = self._next()
        kind, text = self._kinds[j], self._texts[j]
        if kind == "kw" and text in _PRIM_TYPES:
            return _PRIM_TYPES[text]
        if kind == "id":
            return S.ClassType(text)
        raise self._error(f"expected a type, found {self._show(j)}", j)

    # -- program -----------------------------------------------------------------
    def parse_program(self, errors: Optional[List[ParseError]] = None) -> S.Program:
        """Parse a whole program.

        With ``errors`` given, parsing becomes *tolerant*: a syntax error
        inside one top-level declaration is recorded there, the parser
        resynchronises at the next top-level declaration, and parsing
        continues — callers get every diagnosable declaration instead of
        dying on the first bad one.
        """
        classes: List[S.ClassDecl] = []
        statics: List[S.MethodDecl] = []
        while self._i < self._eof:
            try:
                if self._at("class"):
                    classes.append(self._parse_class())
                else:
                    statics.append(self._parse_method(static=True))
            except ParseError as err:
                if errors is None:
                    raise
                errors.append(err)
                self._sync_top_level()
        return S.Program(classes=classes, statics=statics)

    def _sync_top_level(self) -> None:
        """Skip past the offending declaration (balanced-brace heuristic).

        Advances until the next ``class`` keyword at brace depth zero, or a
        plausible top-level method header after a balanced close brace.
        """
        depth = 0
        while self._i < self._eof:
            text = self._texts[self._i]
            if text == "{":
                depth += 1
            elif text == "}":
                depth = max(0, depth - 1)
                self._next()
                if depth == 0:
                    return
                continue
            elif depth == 0 and text == "class":
                return
            self._next()

    def _parse_class(self) -> S.ClassDecl:
        pos = self._pos(self._expect_kw("class"))
        name = self._texts[self._expect_id()]
        super_name = "Object"
        if self._accept("extends"):
            super_name = self._texts[self._expect_id()]
        self._expect_op("{")
        fields: List[S.FieldDecl] = []
        methods: List[S.MethodDecl] = []
        while not self._at("}"):
            # member: type ID ';' (field)  vs  type ID '(' (method)
            member_pos = self._pos(self._peek())
            mtype = self._parse_type()
            mname = self._texts[self._expect_id()]
            if self._accept(";"):
                fields.append(S.FieldDecl(mtype, mname, pos=member_pos))
            elif self._at("("):
                methods.append(self._finish_method(mtype, mname, member_pos, static=False))
            else:
                raise self._error(
                    f"expected ';' or '(' after member {mname!r}", self._peek()
                )
        self._expect_op("}")
        return S.ClassDecl(name=name, super_name=super_name, fields=fields, methods=methods, pos=pos)

    def _parse_method(self, static: bool) -> S.MethodDecl:
        self._accept("static")
        pos = self._pos(self._peek())
        ret = self._parse_type()
        name = self._texts[self._expect_id()]
        return self._finish_method(ret, name, pos, static=static)

    def _finish_method(
        self, ret: S.Type, name: str, pos: Pos, static: bool
    ) -> S.MethodDecl:
        self._expect_op("(")
        params: List[S.Param] = []
        if not self._at(")"):
            while True:
                ptype = self._parse_type()
                pname = self._texts[self._expect_id()]
                params.append(S.Param(ptype, pname))
                if not self._accept(","):
                    break
        self._expect_op(")")
        body = self._parse_block()
        return S.MethodDecl(
            ret_type=ret, name=name, params=params, body=body, is_static=static, pos=pos
        )

    # -- blocks and statements --------------------------------------------------
    def _parse_block(self) -> S.Block:
        pos = self._pos(self._expect_op("{"))
        stmts: List[S.Stmt] = []
        result: Optional[S.Expr] = None
        while not self._at("}"):
            if result is not None:
                raise self._error("result expression must end the block", self._peek())
            item = self._parse_block_item()
            if isinstance(item, S.Stmt):
                stmts.append(item)
            else:
                result = item
        self._expect_op("}")
        return S.Block(stmts=stmts, result=result, pos=pos)

    def _at_local_decl(self) -> bool:
        """Lookahead: ``type ID`` followed by ``=`` or ``;``."""
        if not self._at_type(0):
            return False
        if self._kind(1) != "id":
            return False
        return self._at("=", 2) or self._at(";", 2)

    def _parse_block_item(self):
        """A statement, or the block's trailing result expression."""
        j = self._peek()
        text = self._texts[j]
        if text == "return":
            self._next()
            if self._accept(";"):
                return S.Block(stmts=[], result=None, pos=self._pos(j))  # `return;` == void result
            e = self.parse_expr()
            self._expect_op(";")
            return e  # becomes the block result
        if text == "while":
            self._next()
            self._expect_op("(")
            cond = self.parse_expr()
            self._expect_op(")")
            body = self._parse_block()
            return S.ExprStmt(S.While(cond, body, pos=self._pos(j)))
        if text == "if":
            # statement-if unless it turns out to be the block result; we
            # parse as expression-if when an `else` is present and the next
            # token closes the block.
            return self._parse_if_item()
        if self._at_local_decl():
            pos = self._pos(self._peek())
            dtype = self._parse_type()
            name = self._texts[self._expect_id()]
            init: Optional[S.Expr] = None
            if self._accept("="):
                init = self.parse_expr()
            self._expect_op(";")
            return S.LocalDecl(dtype, name, init, pos=pos)
        e = self.parse_expr()
        if self._accept(";"):
            return S.ExprStmt(e)
        if self._at("}"):
            return e  # trailing result expression
        j = self._peek()
        raise self._error(f"expected ';' or '}}', found {self._show(j)}", j)

    def _parse_if_item(self):
        pos = self._pos(self._expect_kw("if"))
        self._expect_op("(")
        cond = self.parse_expr()
        self._expect_op(")")
        then = self._parse_stmt_arm()
        els: S.Expr = S.Block(stmts=[], result=None)
        if self._accept("else"):
            els = self._parse_stmt_arm()
        node = S.If(cond, then, els, pos=pos)
        if self._at("}"):
            return node  # if-expression as the block result
        return S.ExprStmt(node)

    def _parse_stmt_arm(self) -> S.Expr:
        """An arm of a statement-level if: a block or a single statement."""
        if self._at("{"):
            return self._parse_block()
        if self._at("if"):
            item = self._parse_if_item()
            return item.expr if isinstance(item, S.ExprStmt) else item
        e = self.parse_expr()
        self._expect_op(";")
        return S.Block(stmts=[S.ExprStmt(e)], result=None)

    # -- expressions -------------------------------------------------------------
    def parse_expr(self) -> S.Expr:
        return self._parse_assign()

    def _parse_assign(self) -> S.Expr:
        lhs = self._parse_binary()
        if self._at("="):
            pos = self._pos(self._next())
            if not isinstance(lhs, (S.Var, S.FieldRead)):
                raise ParseError("assignment target must be a variable or field", pos)
            rhs = self._parse_assign()
            return S.Assign(lhs, rhs, pos=pos)
        return lhs

    def _parse_binary(self, level: int = 0) -> S.Expr:
        """A left-associative binary chain of operators at ``level`` or
        tighter (precedence climbing over :data:`_BINOP_LEVELS`)."""
        left = self._parse_unary()
        while True:
            j = self._peek()
            op = self._texts[j]
            prec = _BINOP_LEVELS.get(op)
            if prec is None or prec < level:
                return left
            self._next()
            right = self._parse_binary(prec + 1)
            left = S.Binop(op, left, right, pos=self._pos(j))

    def _parse_unary(self) -> S.Expr:
        j = self._peek()
        text = self._texts[j]
        if text == "!" or text == "-":
            self._next()
            operand = self._parse_unary()
            return S.Unop(text, operand, pos=self._pos(j))
        return self._parse_postfix()

    def _parse_postfix(self) -> S.Expr:
        e = self._parse_primary()
        while self._accept("."):
            j = self._expect_id()
            name = self._texts[j]
            if self._at("("):
                args = self._parse_args()
                e = S.Call(e, name, args, pos=self._pos(j))
            else:
                e = S.FieldRead(e, name, pos=self._pos(j))
        return e

    def _parse_args(self) -> List[S.Expr]:
        self._expect_op("(")
        args: List[S.Expr] = []
        if not self._at(")"):
            while True:
                args.append(self.parse_expr())
                if not self._accept(","):
                    break
        self._expect_op(")")
        return args

    def _looks_like_cast(self) -> bool:
        """At ``(``: is this ``(Type) expr`` rather than ``(expr)``?"""
        k1, t1 = self._kind(1), self._text(1)
        if k1 == "kw" and t1 in _PRIM_TYPES:
            return self._at(")", 2)
        if k1 == "id" and self._at(")", 2):
            # `(Name)` followed by something that can start an expression
            k3, t3 = self._kind(3), self._text(3)
            if k3 in ("id", "int"):
                return True
            if k3 == "kw" and t3 in _EXPR_START_KWS:
                return True
            if t3 == "(" or t3 == "!":
                return True
        return False

    def _parse_primary(self) -> S.Expr:
        j = self._peek()
        kind, text = self._kinds[j], self._texts[j]
        if kind == "int":
            self._next()
            return S.IntLit(int(text), pos=self._pos(j))
        if kind == "id":
            self._next()
            if self._at("("):
                args = self._parse_args()
                return S.Call(None, text, args, pos=self._pos(j))
            return S.Var(text, pos=self._pos(j))
        if text == "true" or text == "false":
            self._next()
            return S.BoolLit(text == "true", pos=self._pos(j))
        if text == "null":
            self._next()
            return S.Null(None, pos=self._pos(j))
        if text == "this":
            self._next()
            return S.Var(S.THIS, pos=self._pos(j))
        if text == "new":
            self._next()
            cname = self._texts[self._expect_id()]
            args = self._parse_args()
            return S.New(cname, args, pos=self._pos(j))
        if text == "if":
            self._next()
            self._expect_op("(")
            cond = self.parse_expr()
            self._expect_op(")")
            then = self._parse_expr_arm()
            self._expect_kw("else")
            els = self._parse_expr_arm()
            return S.If(cond, then, els, pos=self._pos(j))
        if text == "{":
            return self._parse_block()
        if text == "(":
            if self._looks_like_cast():
                self._next()
                ctype = self._parse_type()
                self._expect_op(")")
                target = self._parse_unary()
                if isinstance(ctype, S.ClassType):
                    if isinstance(target, S.Null):
                        return S.Null(ctype.name, pos=self._pos(j))  # `(cn) null`
                    return S.Cast(ctype.name, target, pos=self._pos(j))
                raise self._error("casts to primitive types are not supported", j)
            self._next()
            e = self.parse_expr()
            self._expect_op(")")
            return e
        raise self._error(f"unexpected token {self._show(j)}", j)

    def _parse_expr_arm(self) -> S.Expr:
        if self._at("{"):
            return self._parse_block()
        return self.parse_expr()


def parse_program(source: str) -> S.Program:
    """Parse a full Core-Java program from text."""
    parser = Parser(source)
    return parser.parse_program()


def parse_program_tolerant(
    source: str,
) -> Tuple[S.Program, List[Union[ParseError, LexError]]]:
    """Parse a full program, collecting errors instead of raising.

    Returns the program built from every declaration that parsed, plus the
    list of errors encountered (empty for valid input).  A lexical error
    aborts tokenisation, so it yields an empty program with that single
    :class:`LexError` — preserved as-is so diagnostic codes stay stable
    between strict and tolerant parsing.
    """
    errors: List[Union[ParseError, LexError]] = []
    try:
        parser = Parser(source)
    except LexError as err:
        return S.Program(classes=[], statics=[]), [err]
    program = parser.parse_program(errors)
    return program, errors


def parse_expr(source: str) -> S.Expr:
    """Parse a single expression (convenience for tests)."""
    parser = Parser(source)
    e = parser.parse_expr()
    tail = parser._peek()
    if tail != parser._eof:
        raise parser._error(f"trailing input {parser._show(tail)}", tail)
    return e
