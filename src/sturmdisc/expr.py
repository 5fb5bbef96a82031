"""Potential expressions: a tiny arithmetic language over the variable ``x``.

Potentials are entered as strings like ``"cos(x) + 0.5i*sin(2*x)"``, parsed
to ASTs and compiled to numpy callables for the ODE right-hand sides.  The
AST stays available so that a polynomial potential can be read off exactly
(:func:`as_polynomial`) and so that a splice can add a term to a piece.

Grammar (no implicit multiplication, ``^`` only with unsigned integer
exponents)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' unsigned-int)?
    base   := number | number 'i' | 'x' | func '(' expr ')'
            | '(' expr ')' | '-' base
    func   := 'sin' | 'cos' | 'exp' | 'sinh' | 'cosh'

A :class:`PotentialExpr` is a piecewise list of such ASTs tiling an interval
``[0, L]``; a plain expression is the single-piece special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "sinh", "cosh")

_NUMPY_ENV = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "__builtins__": {},
}


class ExprError(ValueError):
    """Parse or evaluation error carrying the offending source offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Node:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Node):
    value: complex


@dataclass(frozen=True)
class Var(Node):
    pass


@dataclass(frozen=True)
class BinOp(Node):
    op: str  # one of + - * /
    left: Node
    right: Node


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    exponent: int  # unsigned per grammar


@dataclass(frozen=True)
class Call(Node):
    func: str
    arg: Node


@dataclass(frozen=True)
class Neg(Node):
    arg: Node


X = Var()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ExprError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Node:
        node = self.expr()
        self._skip_ws()
        if self.pos != len(self.src):
            raise ExprError("unexpected trailing input", self.pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while self._peek() and self._peek() in "+-":
            op = self.src[self.pos]
            self.pos += 1
            rhs = self.term()
            node = BinOp(op, node, rhs)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self._peek() and self._peek() in "*/":
            op = self.src[self.pos]
            self.pos += 1
            rhs = self.factor()
            node = BinOp(op, node, rhs)
        return node

    def factor(self) -> Node:
        node = self.base()
        if self._peek() == "^":
            self.pos += 1
            self._skip_ws()
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise ExprError("exponent must be an unsigned integer", start)
            n = int(self.src[start : self.pos])
            if not isinstance(node, Const):
                return Pow(node, n)
            try:
                return Const(node.value**n)
            except OverflowError:
                raise ExprError("constant power overflows", start) from None
        return node

    def base(self) -> Node:
        ch = self._peek()
        if ch == "":
            raise ExprError("unexpected end of input", self.pos)
        if ch == "-":
            self.pos += 1
            return Neg(self.base())
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch.isdigit() or ch == ".":
            return self.number()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.src) and self.src[self.pos].isalnum():
                self.pos += 1
            name = self.src[start : self.pos]
            if name == "x":
                return X
            if name in FUNCTIONS:
                self._expect("(")
                arg = self.expr()
                self._expect(")")
                return Call(name, arg)
            raise ExprError(f"unknown identifier {name!r}", start)
        raise ExprError(f"unexpected character {ch!r}", self.pos)

    def number(self) -> Node:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] == ".":
            self.pos += 1
            while self.pos < len(self.src) and self.src[self.pos].isdigit():
                self.pos += 1
        if self.pos < len(self.src) and self.src[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(self.src) and self.src[self.pos].isdigit():
                while self.pos < len(self.src) and self.src[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent after all
        text = self.src[start : self.pos]
        try:
            value = float(text)
        except ValueError:
            raise ExprError(f"bad number {text!r}", start) from None
        if not math.isfinite(value):
            raise ExprError(f"number {text!r} out of range", start)
        if self.pos < len(self.src) and self.src[self.pos] == "i":
            self.pos += 1
            return Const(value * 1j)
        return Const(value)


def parse_expr(source: str) -> Node:
    """Parse a single expression string into an AST."""

    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# AST operations
# ---------------------------------------------------------------------------


def _compile_src(node: Node) -> str:
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"(-{_compile_src(node.arg)})"
    if isinstance(node, BinOp):
        return f"({_compile_src(node.left)} {node.op} {_compile_src(node.right)})"
    if isinstance(node, Pow):
        return f"({_compile_src(node.base)} ** {node.exponent})"
    if isinstance(node, Call):
        return f"{node.func}({_compile_src(node.arg)})"
    raise TypeError(f"unknown node {node!r}")


def compile_node(node: Node) -> Callable:
    """Compile the AST to a numpy-aware callable of ``x``."""

    return eval(f"lambda x: ({_compile_src(node)}) + 0*x", dict(_NUMPY_ENV))


def as_polynomial(node: Node):
    """Return the AST as a ``numpy.polynomial.Polynomial`` with complex
    coefficients, or ``None`` if it involves a transcendental function or a
    non-constant divisor; a constant divisor 0 is an :class:`ExprError`."""

    P = np.polynomial.Polynomial
    if isinstance(node, Const):
        return P([node.value])
    if isinstance(node, Var):
        return P([0.0, 1.0])
    if isinstance(node, Neg):
        inner = as_polynomial(node.arg)
        return None if inner is None else -inner
    if isinstance(node, Pow):
        inner = as_polynomial(node.base)
        return None if inner is None else inner**node.exponent
    if isinstance(node, BinOp):
        left = as_polynomial(node.left)
        right = as_polynomial(node.right)
        if left is None or right is None:
            return None
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right.degree() == 0:
                if right.coef[0] == 0:
                    raise ExprError("division by zero")
                return left / right.coef[0]
            return None
    return None


def _degree_bound(node: Node) -> float:
    """An upper bound of the degree of ``node`` and of every polynomial
    :func:`as_polynomial` forms on the way; ``inf`` for a function call."""

    if isinstance(node, Const):
        return 0
    if isinstance(node, Var):
        return 1
    if isinstance(node, Neg):
        return _degree_bound(node.arg)
    if isinstance(node, Pow):
        return _degree_bound(node.base) * node.exponent
    if isinstance(node, BinOp):
        left, right = _degree_bound(node.left), _degree_bound(node.right)
        return max(left, right) if node.op in "+-" else left + right
    return math.inf


def _real_pole(node: Node, lo: float, hi: float) -> float | None:
    """A real root in ``[lo, hi]`` of a polynomial divisor inside ``node``,
    or ``None``.  A root counts as real when the divisor vanishes to
    rounding at its real part; this also catches the multiple roots that
    root finding splits off the axis, and flags complex roots so close to
    it that the divisor is zero to rounding there too."""

    if isinstance(node, BinOp):
        # the bound keeps a divisor like (x^2 + 1)^100000 from being expanded
        if node.op == "/" and _degree_bound(node.right) <= 64:
            div = as_polynomial(node.right)
            if div is not None and div.degree() > 0:
                for root in div.roots():
                    x = float(np.real(root))
                    # 64 ulps of the rounding bound of evaluating div at x
                    tiny = 1e-14 * np.polynomial.polynomial.polyval(abs(x), np.abs(div.coef))
                    if lo - 1e-12 <= x <= hi + 1e-12 and abs(div(x)) <= tiny:
                        return x
        children = (node.left, node.right)
    elif isinstance(node, (Neg, Call)):
        children = (node.arg,)
    elif isinstance(node, Pow):
        children = (node.base,)
    else:
        return None
    for child in children:
        pole = _real_pole(child, lo, hi)
        if pole is not None:
            return pole
    return None


# ---------------------------------------------------------------------------
# Piecewise potential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    node: Node


class PotentialExpr:
    """A potential on ``[0, length]`` given piecewise by expression ASTs.

    Pieces must tile the interval in order.  Evaluation at an interior
    breakpoint takes the left piece by default; the one-sided value is
    available via ``side``.  Each piece is evaluated at 9 points including
    its ends when the potential is built; a value that is not finite, or an
    evaluation that raises, is an :class:`ExprError`.  A divisor that is a
    polynomial (:func:`as_polynomial`) with a real root on the piece is an
    :class:`ExprError` as well; any other divisor is checked only at those
    9 points, so a pole between them passes.
    """

    def __init__(self, pieces: Sequence[Piece], length: float = math.pi):
        pieces = list(pieces)
        if not pieces:
            raise ExprError("potential needs at least one piece")
        if abs(pieces[0].lo) > 1e-12:
            raise ExprError("first piece must start at 0")
        if abs(pieces[-1].hi - length) > 1e-9:
            raise ExprError(f"last piece must end at {length!r}")
        for a, b in zip(pieces, pieces[1:]):
            if abs(a.hi - b.lo) > 1e-12:
                raise ExprError("pieces must tile the interval without gaps")
        for p in pieces:
            if not p.hi > p.lo:
                raise ExprError("piece endpoints must be increasing")
        self.pieces = pieces
        self.length = float(length)
        self._fns = [compile_node(p.node) for p in pieces]
        for p, fn in zip(pieces, self._fns):
            try:
                with np.errstate(all="ignore"):
                    finite = np.isfinite(fn(np.linspace(p.lo, p.hi, 9))).all()
            except ArithmeticError as exc:
                raise ExprError(f"potential on [{p.lo}, {p.hi}] fails to evaluate: {exc}") from None
            if not finite:
                raise ExprError(f"potential on [{p.lo}, {p.hi}] is not finite")
            pole = _real_pole(p.node, p.lo, p.hi)
            if pole is not None:
                raise ExprError(f"potential on [{p.lo}, {p.hi}] has a pole at or near x = {pole:.6g}")

    # -- constructors -----------------------------------------------------

    @classmethod
    def parse(cls, source: str, length: float = math.pi) -> "PotentialExpr":
        return cls([Piece(0.0, length, parse_expr(source))], length)

    @classmethod
    def from_spec(cls, spec, length: float = math.pi) -> "PotentialExpr":
        """Build from a string or a list of ``{"interval": [a, b], "expr": s}``."""

        if isinstance(spec, str):
            return cls.parse(spec, length)
        if isinstance(spec, PotentialExpr):
            return spec
        pieces = []
        for item in spec:
            lo, hi = item["interval"]
            pieces.append(Piece(float(lo), float(hi), parse_expr(item["expr"])))
        return cls(pieces, length)

    # -- evaluation -------------------------------------------------------

    def piece_index(self, x: float, side: str = "left") -> int:
        if x < self.pieces[0].lo - 1e-9 or x > self.length + 1e-9:
            raise ExprError(f"x={x!r} outside [0, {self.length!r}]")
        for i, p in enumerate(self.pieces):
            if x < p.hi or (side == "left" and x <= p.hi):
                if x >= p.lo or i == 0:
                    return i
        return len(self.pieces) - 1

    def __call__(self, x, side: str = "left"):
        if np.isscalar(x):
            return complex(self._fns[self.piece_index(float(x), side)](x))
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for i, p in enumerate(self.pieces):
            if i == 0:
                mask = x <= p.hi
            elif i == len(self.pieces) - 1:
                mask = x > p.lo
            else:
                mask = (x > p.lo) & (x <= p.hi)
            out[mask] = self._fns[i](x[mask])
        return out

    def piece_fn(self, lo: float, hi: float) -> Callable:
        """Compiled callable valid on ``[lo, hi]`` (which must lie inside
        one piece)."""

        mid = 0.5 * (lo + hi)
        for i, p in enumerate(self.pieces):
            if p.lo - 1e-12 <= mid <= p.hi + 1e-12:
                return self._fns[i]
        raise ExprError(f"[{lo}, {hi}] spans a piece boundary")

    def breakpoints(self) -> list[float]:
        pts = [p.lo for p in self.pieces] + [self.length]
        return pts

    def __repr__(self) -> str:
        return f"PotentialExpr({self.pieces!r})"
