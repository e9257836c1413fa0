"""Parse, evaluate and band-limit closed-form test functions on the torus.

The input grammar covers real-valued expressions in the variables
``x1..xn, y1..yn``::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ('-'? INTEGER))*
    atom   := NUMBER | 'pi' | VARIABLE | NAME '(' expr ')' | '(' expr ')'
    NAME   := 'sin' | 'cos' | 'exp'

so precedence is ^ above unary minus above * and / above + and -.
Exponents must be integer literals.  Parse errors carry a 1-based character
position.

``sample_lattice`` evaluates an expression on a uniform lattice, vectorized
over the axes it reads.  ``lattice_mean``, its mean for a real or a complex
expression, gives traces and reference means: it evaluates a lattice of more
than SLAB_POINTS samples a slab of rows at a time and combines the slab sums
by numpy's pairwise halving, so its memory is one slab's and, on a
power-of-two grid, its value is bit for bit the one-pass mean.  ``project``
turns an expression into a :class:`~torusquant.trigpoly.TrigPoly` by sampling
on a uniform grid and taking the discrete Fourier transform, keeping
frequencies inside the requested band.  The scalar ``evaluate`` is the pointwise reference.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .trigpoly import PRUNE_REL, TrigPoly, box_keys


class ExpressionError(ValueError):
    """Problem with an input expression; ``position`` is 1-based."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (position {position})"
        super().__init__(message)
        self.position = position


class ExprSyntaxError(ExpressionError):
    pass


class UnknownIdentifierError(ExpressionError):
    pass


class ArityError(ExpressionError):
    pass


class EvaluationError(ValueError):
    """Expression cannot be evaluated at the requested point or grid;
    ``lattice_mean`` sets ``part`` to "expr" or "expr_im"."""

    part: str | None = None


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class PiConstant:
    pass


@dataclass(frozen=True)
class Variable:
    axis: str  # "x" or "y"
    index: int  # 1-based


@dataclass(frozen=True)
class Unary:
    op: str  # "neg" | "sin" | "cos" | "exp"
    operand: "ExprAst"


@dataclass(frozen=True)
class Binary:
    op: str  # "+" | "-" | "*" | "/" | "^"
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True, eq=False)
class Samples:
    """The samples of a subexpression on a lattice, evaluated once: a mean
    over slabs puts them in place of a subexpression that does not read the
    slab axis (``_slab_mean``)."""

    values: np.ndarray


ExprAst = Union[Number, PiConstant, Variable, Unary, Binary, Samples]

_FUNCTIONS = ("sin", "cos", "exp")

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^(),])
    | (?P<ws>\s+)
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"^([xy])([1-9]\d*)$")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int  # 1-based position of the first character


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[i]!r}", i + 1)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), i + 1))
        i = m.end()
    tokens.append(_Token("end", "", len(source) + 1))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected {text!r}", tok.pos)
        return self.advance()

    def parse(self) -> ExprAst:
        node = self.expr()
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected {tail.text!r}", tail.pos)
        return node

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.term())
        return node

    def term(self) -> ExprAst:
        node = self.unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.power()

    def power(self) -> ExprAst:
        node = self.atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = Binary("^", node, self.exponent())
        return node

    def exponent(self) -> ExprAst:
        # grammar restriction: exponents are integer literals, optionally signed
        negate = False
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
            tok = self.peek()
        if tok.kind != "num":
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        self.advance()
        value = float(tok.text)
        if value != int(value):
            raise ExprSyntaxError("exponent must be an integer literal", tok.pos)
        value = int(value)
        return Number(float(-value if negate else value))

    def atom(self) -> ExprAst:
        tok = self.advance()
        if tok.kind == "num":
            return Number(float(tok.text))
        if tok.kind == "name":
            return self.name_atom(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {tok.text!r}" if tok.kind != "end" else "unexpected end of input", tok.pos)

    def name_atom(self, tok: _Token) -> ExprAst:
        if tok.text == "pi":
            return PiConstant()
        if tok.text in _FUNCTIONS:
            open_tok = self.peek()
            if open_tok.kind != "op" or open_tok.text != "(":
                raise ExprSyntaxError(f"{tok.text} must be called as {tok.text}(...)", open_tok.pos)
            self.advance()
            args = []
            if not (self.peek().kind == "op" and self.peek().text == ")"):
                args.append(self.expr())
                while self.peek().kind == "op" and self.peek().text == ",":
                    self.advance()
                    args.append(self.expr())
            self.expect_op(")")
            if len(args) != 1:
                raise ArityError(f"{tok.text} takes exactly 1 argument, got {len(args)}", tok.pos)
            return Unary(tok.text, args[0])
        m = _VAR_RE.match(tok.text)
        if m:
            return Variable(m.group(1), int(m.group(2)))
        raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.pos)


def parse(source: str) -> ExprAst:
    """Parse a source string into an AST; raises ExpressionError subclasses."""
    return _Parser(source).parse()


def variables(ast: ExprAst) -> set[Variable]:
    """Every variable that occurs in the expression."""
    if isinstance(ast, Variable):
        return {ast}
    if isinstance(ast, Unary):
        return variables(ast.operand)
    if isinstance(ast, Binary):
        return variables(ast.left) | variables(ast.right)
    return set()


def max_variable_index(ast: ExprAst) -> int:
    return max((v.index for v in variables(ast)), default=0)


# -- evaluation --------------------------------------------------------------


def evaluate(ast: ExprAst, x: Sequence[float], y: Sequence[float]) -> float:
    """Evaluate at a single point; x and y are length-n coordinate vectors.

    As in ``sample_lattice``, a division by zero, a zero raised to a
    negative power or a non-finite value, an overflow included, is an
    EvaluationError.
    """
    xs = tuple(float(v) for v in np.atleast_1d(x))
    ys = tuple(float(v) for v in np.atleast_1d(y))
    value = _eval(ast, xs, ys, scalar=True)
    _check_finite(value, "the expression")
    return value


def _eval(ast: ExprAst, xs, ys, scalar: bool):
    if isinstance(ast, Number):
        return ast.value
    if isinstance(ast, PiConstant):
        return math.pi
    if isinstance(ast, Variable):
        block = xs if ast.axis == "x" else ys
        if ast.index > len(block):
            raise EvaluationError(
                f"variable {ast.axis}{ast.index} out of range for n={len(block)}"
            )
        return block[ast.index - 1]
    if isinstance(ast, Samples):
        return ast.values
    if isinstance(ast, Unary):
        v = _eval(ast.operand, xs, ys, scalar)
        if ast.op == "neg":
            return -v
        try:
            out = getattr(math if scalar else np, ast.op)(v)
        except (OverflowError, ValueError):  # math's range and domain errors; numpy gives inf or nan
            out = math.nan
        _check_finite(out, ast.op)
        return out
    if isinstance(ast, Binary):
        a = _eval(ast.left, xs, ys, scalar)
        b = _eval(ast.right, xs, ys, scalar)
        if ast.op == "+":
            return a + b
        if ast.op == "-":
            return a - b
        if ast.op == "*":
            return a * b
        if ast.op == "/":
            if np.any(np.asarray(b) == 0):
                raise EvaluationError("division by zero")
            return a / b
        if ast.op == "^":
            e = int(ast.right.value)
            if e < 0 and np.any(np.asarray(a) == 0):
                raise EvaluationError("zero raised to a negative exponent")
            if not scalar:
                return np.power(a, e)
            try:
                return a ** e
            except OverflowError:  # np.power gives inf here, which the finiteness check refuses
                return math.inf
    raise TypeError(f"not an expression node: {ast!r}")


def _check_finite(values, where: str) -> None:
    if not np.all(np.isfinite(values)):
        raise EvaluationError(f"non-finite value produced by {where}")


# -- sampling and projection -------------------------------------------------

# Most points one sampled lattice may hold: the cap, checked at parse time,
# on projection grids, whose samples are held at once (128 MiB of float64),
# and on the levels of a trace config and the reference grids, whose means
# are summed a slab at a time, so that there it bounds time, not memory.
SAMPLE_BUDGET = 2**24

# Points in one slab of a lattice mean (1 MiB of float64).  On the 1024^2
# and 2048^2 trace references, 2^14-point slabs take 3x the time of one pass
# and 2^15-point slabs 1.4x, as every slab re-evaluates the subexpressions
# that do not read its axis; 2^16 to 2^18 match one pass or beat it.
SLAB_POINTS = 2**17


def default_grid(bandwidth: int) -> int:
    return max(4 * (bandwidth + 1), 16)


@dataclass(frozen=True)
class ProjectionSpec:
    """Band limit and sampling resolution for projection.

    ``grid`` points per axis must be even and at least ``2*bandwidth + 2`` so
    every retained frequency is alias-distinguishable on the grid.
    """

    bandwidth: int
    grid: int = 0  # 0 means: use default_grid(bandwidth)

    def __post_init__(self):
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")
        grid = self.grid or default_grid(self.bandwidth)
        if grid % 2 != 0:
            raise ValueError(f"grid must be even, got {grid}")
        if grid < 2 * self.bandwidth + 2:
            raise ValueError(
                f"grid {grid} too small for bandwidth {self.bandwidth}; need at least {2 * self.bandwidth + 2}"
            )
        object.__setattr__(self, "grid", grid)


def sample_lattice(ast: ExprAst, n: int, grid: int) -> np.ndarray:
    """Evaluate on the uniform lattice (j_1..j_n, l_1..l_n)/grid, sparsely.

    The result broadcasts to shape (grid,)*2n, x-axes first, with length 1
    along every axis the expression does not read, so it holds the points of
    the axes read, all at once.  A division by zero, a zero raised to a
    negative power or a non-finite value is an EvaluationError.
    """
    return _sample(ast, n, _lattice_axes(n, grid))


def _lattice_axes(n: int, grid: int) -> list[np.ndarray]:
    coords = np.arange(grid, dtype=float) / grid
    return list(np.meshgrid(*([coords] * (2 * n)), indexing="ij", sparse=True))


def _sample(ast: ExprAst, n: int, axes: Sequence[np.ndarray]) -> np.ndarray:
    # overflow surfaces as EvaluationError via the finiteness check below
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(_eval(ast, tuple(axes[:n]), tuple(axes[n:]), scalar=False), dtype=float)
    _check_finite(values, "the expression")
    return values


def lattice_mean(symbol, n: int, grid: int) -> complex:
    """Mean on the uniform lattice of an expression: an AST, or a pair (real
    AST, imaginary AST or None), summed a slab at a time (_slab_mean).  An
    EvaluationError names its ``part``."""
    means = [0.0, 0.0]
    for i, ast in enumerate(symbol if isinstance(symbol, tuple) else (symbol,)):
        try:
            means[i] = 0.0 if ast is None else _slab_mean(ast, n, grid)
        except EvaluationError as exc:
            exc.part = ("expr", "expr_im")[i]
            raise
    return complex(*means)


def _slab_mean(ast: ExprAst, n: int, grid: int) -> float:
    """sample_lattice(ast, n, grid).mean(), a slab of rows along the
    outermost axis read at a time: SLAB_POINTS points a slab, or one row
    where a row holds more.  A lattice of at most SLAB_POINTS points is one
    slab, and its sum is np.add.reduce of the whole, as in mean().

    numpy sums a contiguous array pairwise, splitting a power-of-two count
    at its halves down to blocks of 128.  On a power-of-two grid every slab
    is a power-of-two run of SLAB_POINTS points or more, so np.add.reduce
    gives that slab's subtree and combining the slab sums by halving gives
    numpy's sum bit for bit; on other grids the two orders agree to
    rounding.  Each slab is checked as sample_lattice checks the whole
    lattice, so a fault anywhere is an EvaluationError, though with several
    faults not always the one a single pass reports first.

    Every subexpression that reads variables but not the slab axis is
    evaluated once per mean, before the slabs, and its samples stand in for
    it on every slab (``_hoisted``): they are the values each slab would
    compute again, so the mean is unchanged bit for bit.
    """
    read = sorted(_axes_read(ast, n))
    points = grid ** len(read)
    axes = _lattice_axes(n, grid)
    outer = read[0] if read else 0
    ast = _hoisted(ast, n, axes, outer)
    coords = axes[outer]
    rows = max(1, SLAB_POINTS * grid // points)
    sums = []
    for start in range(0, grid, rows):
        axes[outer] = coords[(slice(None),) * outer + (slice(start, start + rows),)]
        sums.append(np.add.reduce(_sample(ast, n, axes), axis=None))
    return _halving_sum(sums) / points


def _axes_read(ast: ExprAst, n: int) -> set[int]:
    """The lattice axes (x axes 0..n-1, then y axes) the expression reads."""
    return {v.index - 1 + (n if v.axis == "y" else 0) for v in variables(ast) if v.index <= n}


def _hoisted(ast: ExprAst, n: int, axes: Sequence[np.ndarray], axis: int) -> ExprAst:
    """ast with every largest subexpression that reads variables but not
    lattice axis ``axis`` replaced by its ``Samples`` on ``axes``, evaluated
    as ``_sample`` evaluates the whole."""
    if not isinstance(ast, (Unary, Binary)):
        return ast
    if axis not in _axes_read(ast, n):
        if not variables(ast):
            return ast
        with np.errstate(over="ignore", invalid="ignore"):
            return Samples(_eval(ast, tuple(axes[:n]), tuple(axes[n:]), scalar=False))
    if isinstance(ast, Unary):
        return Unary(ast.op, _hoisted(ast.operand, n, axes, axis))
    return Binary(ast.op, _hoisted(ast.left, n, axes, axis), _hoisted(ast.right, n, axes, axis))


def _halving_sum(sums: list):
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return _halving_sum(sums[:half]) + _halving_sum(sums[half:])


def project(ast: ExprAst, spec: ProjectionSpec, n: int | None = None) -> TrigPoly:
    """Band-limit an expression to |p_i|, |q_i| <= bandwidth.

    Samples on the uniform grid and reads coefficients from the discrete
    Fourier transform; exact (up to rounding) whenever the input is itself a
    trig polynomial within the band, otherwise the band's alias-folded
    coefficients.
    """
    if n is None:
        n = max(max_variable_index(ast), 1)
    if n < 1:
        raise ValueError("n must be at least 1")
    B = spec.bandwidth
    M = spec.grid
    samples = np.broadcast_to(sample_lattice(ast, n, M), (M,) * (2 * n))
    spectrum = np.fft.fftn(samples) / float(M ** (2 * n))
    keys = box_keys(n, B)
    values = spectrum[tuple((keys % M).T)]  # negative frequencies wrap around
    return TrigPoly._from_arrays(n, keys, values).truncate(PRUNE_REL)
