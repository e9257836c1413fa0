"""Exact coefficient algebra for trigonometric polynomials on the torus.

A trigonometric polynomial on R^{2n}/Z^{2n} is a finite sum

    f(x, y) = sum_{p,q in Z^n} c_{p,q} e^{2 pi i (p.x + q.y)}

stored as two arrays: ``keys``, the frequency rows (p_1..p_n, q_1..q_n) as a
(T, 2n) int64 array sorted lexicographically with no repeats, and
``values``, the (T,) complex128 amplitudes, none of them zero.  Keys are
checked only where they enter from outside (the constructor, ``harmonic``,
``from_records``, ``random_trig_poly``); every operation builds its result
directly from arrays.

All ring operations (sum, product, derivative, Poisson bracket) act exactly
on coefficients.  A sum or a product collects its terms by one deterministic
reduction: a stable lexicographic sort of the keys, then a segmented sum of
the values of equal keys, in their original order.  Arithmetic drops only
amplitudes that are exactly zero, so it is associative up to rounding;
``truncate`` drops small ones on request.  Grid evaluation exists only so
tests can cross-check the coefficient routes against pointwise ones.

The sort runs on one integer code per key (``_group_pairs``).  With lo_c and
s_c = hi_c - lo_c + 1 the least entry and the span of column c, the row u
has the code sum_c (u_c - lo_c) S_c, where S_c = s_{c+1} ... s_{2n-1}: its
mixed-radix digits over the box the columns span.  Every digit lies in
[0, s_c), so codes compare as the rows do lexicographically, and a stable
sort of the codes is a stable lexicographic sort of the rows.  The codes are
stored in the narrowest unsigned integer type that holds the box's cell
count, so that boxes of at most 2^16 cells, which most products have, are
radix-sorted.  A product codes each term pair as code(f-term) plus
code(g-term) over the box of the pair sums and never forms their keys.
Boxes of 2^63 cells or more, which only keys near ``MAX_FREQ`` on several
axes reach, have codes past int64 and take ``np.lexsort`` of the rows.
One key, or a product with a one-term factor, is in order and sorts nothing.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

FreqVector = tuple[int, ...]

TWO_PI = 2.0 * math.pi

# Relative cutoff that band-limited projections of expressions apply once,
# through ``TrigPoly.truncate``, to drop the rounding dust of their FFT.
PRUNE_REL = 1e-14

# Largest |p_i| or |q_i| a polynomial may be built with.  For keys of this
# size the pair sums and the dot products of the star phases stay inside
# int64 for any n below 2^13.
MAX_FREQ = 2**24

# Key boxes with this many cells or more have codes past int64: their rows
# are sorted by np.lexsort.
CODE_CELLS = 2**63


class DimensionMismatchError(ValueError):
    """Raised when operands live on tori of different dimension."""


def _as_freq(v: Sequence[int], n: int, what: str = "frequency") -> FreqVector:
    t = tuple(int(c) for c in v)
    if len(t) != n:
        raise DimensionMismatchError(f"{what} has length {len(t)}, expected {n}")
    for orig, cast in zip(v, t):
        if cast != orig:
            raise ValueError(f"{what} components must be integers, got {orig!r}")
    return t


def _as_point(v, n: int, what: str) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape != (n,):
        raise DimensionMismatchError(f"{what} has shape {arr.shape}, expected ({n},)")
    return tuple(arr)


class TrigPoly:
    """Sparse trigonometric polynomial on R^{2n}/Z^{2n}.

    ``keys`` is the (T, 2n) int64 array of frequency rows (p, q) in
    lexicographic order and ``values`` the (T,) complex128 amplitudes; both
    are read-only.  ``terms()`` gives the same data as ``((p, q), c)`` items,
    so serialization and repr are reproducible.  Instances are immutable:
    every operation returns a new object.
    """

    __slots__ = ("n", "keys", "values")

    def __init__(self, n: int, coeffs: Mapping | Iterable = ()):
        if int(n) != n or n < 1:
            raise ValueError(f"torus half-dimension n must be a positive integer, got {n!r}")
        n = int(n)
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        rows: list[FreqVector] = []
        vals: list[complex] = []
        for (p, q), c in items:
            row = _as_freq(p, n, "x-frequency") + _as_freq(q, n, "y-frequency")
            if max(map(abs, row)) > MAX_FREQ:
                raise ValueError(f"frequency components must be at most {MAX_FREQ} in size, got {row}")
            rows.append(row)
            vals.append(complex(c))
        keys = np.array(rows, dtype=np.int64).reshape(-1, 2 * n)
        poly = _collect(n, keys, np.array(vals, dtype=complex))
        self.n, self.keys, self.values = n, poly.keys, poly.values

    @classmethod
    def _from_arrays(cls, n: int, keys: np.ndarray, values: np.ndarray) -> "TrigPoly":
        """Wrap arrays that already hold sorted, unique keys; drops exact zeros."""
        live = values != 0
        if not live.all():
            keys, values = keys[live], values[live]
        keys.flags.writeable = False
        values.flags.writeable = False
        out = object.__new__(cls)
        out.n = n
        out.keys = keys
        out.values = values
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "TrigPoly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value: complex) -> "TrigPoly":
        z = (0,) * n
        return cls(n, {(z, z): value})

    @classmethod
    def harmonic(cls, n: int, p: Sequence[int], q: Sequence[int], amplitude: complex = 1.0) -> "TrigPoly":
        """Single exponential ``amplitude * e^{2 pi i (p.x + q.y)}``."""
        return cls(n, {(tuple(p), tuple(q)): amplitude})

    # -- inspection --------------------------------------------------------

    def terms(self) -> list[tuple[tuple[FreqVector, FreqVector], complex]]:
        """Coefficient items sorted lexicographically by (p, q)."""
        n = self.n
        return [
            ((tuple(row[:n]), tuple(row[n:])), c)
            for row, c in zip(self.keys.tolist(), self.values.tolist())
        ]

    def __iter__(self) -> Iterator:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self.values)

    def coeff(self, p: Sequence[int], q: Sequence[int]) -> complex:
        key = _as_freq(p, self.n, "x-frequency") + _as_freq(q, self.n, "y-frequency")
        hit = np.flatnonzero((self.keys == key).all(axis=1))
        return complex(self.values[hit[0]]) if len(hit) else 0.0j

    @property
    def mean(self) -> complex:
        """The (0,0) amplitude: the average of f over the torus."""
        return self.coeff((0,) * self.n, (0,) * self.n)

    def x_bandwidth(self) -> int:
        return int(np.abs(self.keys[:, : self.n]).max(initial=0))

    def y_bandwidth(self) -> int:
        return int(np.abs(self.keys[:, self.n :]).max(initial=0))

    def bandwidth(self) -> int:
        return max(self.x_bandwidth(), self.y_bandwidth())

    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.keys, other.keys)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None

    def l1_distance(self, other: "TrigPoly") -> float:
        return (self - other).l1_norm()

    def truncate(self, tol: float) -> "TrigPoly":
        """Drop every amplitude below ``tol`` times the largest one."""
        mags = np.abs(self.values)
        keep = mags >= tol * mags.max(initial=0.0)
        return TrigPoly._from_arrays(self.n, self.keys[keep], self.values[keep])

    def __repr__(self) -> str:
        return f"TrigPoly(n={self.n}, terms={len(self)})"

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "TrigPoly") -> None:
        if self.n != other.n:
            raise DimensionMismatchError(f"mixing n={self.n} with n={other.n}")

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        self._check_same(other)
        return _collect(
            self.n,
            np.concatenate([self.keys, other.keys]),
            np.concatenate([self.values, other.values]),
        )

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + (-other)

    def __neg__(self) -> "TrigPoly":
        return self.scale(-1.0)

    def scale(self, value: complex) -> "TrigPoly":
        return TrigPoly._from_arrays(self.n, self.keys, self.values * complex(value))

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return self.multiply(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def multiply(self, other: "TrigPoly") -> "TrigPoly":
        """Pointwise product by convolution of coefficient arrays."""
        self._check_same(other)
        return _sum_groups(self.n, *_pair_terms(self, other))

    def conjugate(self) -> "TrigPoly":
        # negating every key reverses lexicographic order
        return TrigPoly._from_arrays(self.n, -self.keys[::-1], self.values[::-1].conj())

    def differentiate(self, x_orders: Sequence[int] = (), y_orders: Sequence[int] = ()) -> "TrigPoly":
        """Mixed partial derivative d^{|I|+|J|} f / dx^I dy^J.

        ``x_orders`` and ``y_orders`` are multi-indices of length n (empty
        means no derivative in that block).  Each exponential picks up the
        factor prod_j (2 pi i p_j)^{I_j} (2 pi i q_j)^{J_j}.
        """
        n = self.n
        orders = _as_order(x_orders, n) + _as_order(y_orders, n)
        if not any(orders):
            return self
        factor = np.ones(len(self), dtype=complex)
        for column, order in enumerate(orders):
            if order:
                factor *= (2j * math.pi * self.keys[:, column]) ** order
        return TrigPoly._from_arrays(n, self.keys, self.values * factor)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x, y) -> complex:
        xx = _as_point(x, self.n, "x")
        yy = _as_point(y, self.n, "y")
        total = 0.0 + 0.0j
        for (p, q), c in self.terms():
            phase = sum(pi_ * xi for pi_, xi in zip(p, xx))
            phase += sum(qi * yi for qi, yi in zip(q, yy))
            total += c * cmath.exp(2j * math.pi * phase)
        return total

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict]:
        """Lex-ordered list of {"p": [...], "q": [...], "re": .., "im": ..}."""
        return [
            {"p": list(p), "q": list(q), "re": c.real, "im": c.imag}
            for (p, q), c in self.terms()
        ]

    @classmethod
    def from_records(cls, n: int, records: Iterable[Mapping]) -> "TrigPoly":
        coeffs = []
        for rec in records:
            coeffs.append(((tuple(rec["p"]), tuple(rec["q"])), complex(rec["re"], rec.get("im", 0.0))))
        return cls(n, coeffs)


def _as_order(orders: Sequence[int], n: int) -> tuple[int, ...]:
    if len(orders) == 0:
        return (0,) * n
    t = tuple(int(o) for o in orders)
    if len(t) != n:
        raise DimensionMismatchError(f"derivative multi-index has length {len(t)}, expected {n}")
    if any(o < 0 for o in t):
        raise ValueError("derivative orders must be non-negative")
    return t


def _pair_terms(f: TrigPoly, g: TrigPoly) -> tuple[tuple, np.ndarray]:
    """``_group_keys`` runs and amplitudes of every term pair of f and g,
    f-major: pair i * len(g) + j is the i-th term of f with the j-th of g,
    at the frequency sum and with the amplitude product.  A one-term factor
    translates the other's sorted, unique keys: one run per pair, no sort."""
    amps = (f.values[:, None] * g.values[None, :]).reshape(-1)
    if min(len(f), len(g)) == 1:
        pairs = np.arange(len(amps), dtype=np.intp)
        return (pairs, pairs, (f.keys[:, None, :] + g.keys[None, :, :]).reshape(len(amps), -1)), amps
    return _group_pairs(f.keys, g.keys), amps


def _box(keys: np.ndarray) -> tuple[list[int], list[int]]:
    """(least entry, span) of each column of the key rows; span is the
    largest entry minus the least plus one, and 1 for no rows."""
    if not len(keys):
        return [0] * keys.shape[1], [1] * keys.shape[1]
    lows = keys.min(axis=0).tolist()
    return lows, [high - low + 1 for low, high in zip(lows, keys.max(axis=0).tolist())]


def _code_dtype(cells: int) -> type:
    """The narrowest unsigned integer type that holds codes 0..cells-1."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if cells <= 1 << (8 * np.dtype(dtype).itemsize):
            return dtype
    return np.uint64


def _codes(keys: np.ndarray, lows: list[int], spans: list[int], dtype: type) -> np.ndarray:
    """sum_c (keys[:, c] - lows[c]) * spans[c+1] ... spans[-1] for each row,
    one int64 product whose partial sums stay below the box's cell count."""
    strides = np.array([math.prod(spans[c + 1 :]) for c in range(len(spans))], dtype=np.int64)
    return ((keys - np.array(lows, dtype=np.int64)) @ strides).astype(dtype)


def _group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic sort of key rows, split into runs of equal keys.

    Returns ``(order, starts, unique)``: ``keys[order]`` is sorted with rows
    of equal keys left in their given order, each run begins at an index of
    ``starts``, and ``unique`` holds one key per run.  Past one row it is
    ``_group_pairs`` of the rows with one zero row, which gives the same
    box, codes and code type as the rows alone.
    """
    if len(keys) < 2:
        rows = np.arange(len(keys), dtype=np.intp)
        return rows, rows, keys
    return _group_pairs(keys, np.zeros((1, keys.shape[1]), dtype=np.int64))


def _group_pairs(f_keys: np.ndarray, g_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_group_keys`` of the f-major pair sums f_keys[i] + g_keys[j]: a
    stable ``np.argsort`` of their codes (see the module docstring), taken
    without forming the sums.  Rows come in any order, so one row sorts too.

    The pair sums span the box whose column c runs from the sum of the two
    least entries over the sum of the two spans less one.  Over that box a
    pair's code is the code of its f row plus the code of its g row, each
    taken from its own least entries, so one outer sum of two short code
    arrays gives every pair code, and each run's key is the sum of the rows
    of its first pair.  A box of ``CODE_CELLS`` cells or more forms the sums
    and takes ``np.lexsort`` of them, which gives the same three arrays.
    """
    f_lows, f_spans = _box(f_keys)
    g_lows, g_spans = _box(g_keys)
    spans = [a + b - 1 for a, b in zip(f_spans, g_spans)]
    cells = math.prod(spans)
    if cells >= CODE_CELLS:
        keys = (f_keys[:, None, :] + g_keys[None, :, :]).reshape(-1, f_keys.shape[1])
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        first = np.ones(len(keys), dtype=bool)
        np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
        starts = np.flatnonzero(first)
        return order, starts, ordered[starts]
    dtype = _code_dtype(cells)
    codes = np.add.outer(_codes(f_keys, f_lows, spans, dtype), _codes(g_keys, g_lows, spans, dtype)).reshape(-1)
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    first = np.ones(len(codes), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    i, j = np.divmod(order[starts], len(g_keys))
    return order, starts, f_keys[i] + g_keys[j]


def _sum_groups(n: int, groups, values: np.ndarray) -> TrigPoly:
    """The polynomial sum_m values[m] e^{2 pi i keys[m]} over ``_group_keys`` runs."""
    order, starts, unique = groups
    return TrigPoly._from_arrays(n, unique, np.add.reduceat(values[order], starts))


def _collect(n: int, keys: np.ndarray, values: np.ndarray) -> TrigPoly:
    return _sum_groups(n, _group_keys(keys), values)


def box_keys(n: int, bandwidth: int) -> np.ndarray:
    """Every key with |p_i|, |q_i| <= bandwidth, in lexicographic order."""
    side = 2 * bandwidth + 1
    # key m's entries are the base-side digits of m, so no array has an axis per entry
    strides = side ** np.arange(2 * n - 1, -1, -1, dtype=np.int64)
    return np.arange(side ** (2 * n), dtype=np.int64)[:, None] // strides % side - bandwidth


def poisson_bracket(f: TrigPoly, g: TrigPoly) -> TrigPoly:
    """{f, g} = sum_i (df/dx_i dg/dy_i - df/dy_i dg/dx_i)."""
    f._check_same(g)
    n = f.n
    out = TrigPoly.zero(n)
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        out = out + f.differentiate(e, ()).multiply(g.differentiate((), e))
        out = out - f.differentiate((), e).multiply(g.differentiate(e, ()))
    return out


def random_trig_poly(
    rng: np.random.Generator, n: int, bandwidth: int, decay: float = 3.0
) -> TrigPoly:
    """Random polynomial with full box support |p_i|, |q_i| <= bandwidth.

    Amplitudes are drawn uniformly on the unit disc (radius sqrt(U), uniform
    angle) and damped by (1 + |p|^2 + |q|^2)^(-decay/2), the spectral profile
    of a random smooth function; keys are visited in lexicographic order so a
    seeded generator reproduces the result.  ``decay=0`` gives a flat box.
    """
    if bandwidth < 0:
        raise ValueError("bandwidth must be non-negative")
    keys = box_keys(n, bandwidth)
    # one draw, per key a radius and then an angle, is the stream of the
    # per-key scalar draws; weights and phases stay the scalar math and
    # cmath calls, whose bits numpy's vectorized power and exp need not match
    draws = rng.uniform(size=(len(keys), 2)).tolist()
    values = np.array(
        [
            math.sqrt(u) * (1.0 + sum(v * v for v in key)) ** (-decay / 2.0) * cmath.exp(1j * (TWO_PI * w))
            for key, (u, w) in zip(keys.tolist(), draws)
        ],
        dtype=complex,
    )
    return TrigPoly._from_arrays(n, keys, values)
