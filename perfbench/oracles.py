"""Independent numpy references for the benchmark's correctness checks.

Nothing here imports torusquant.  A symbol is a pair ``(keys, coeffs)``:
``keys`` is an int64 array of shape (T, 2n) holding the frequency vectors
(p_1..p_n, q_1..q_n) of the terms ``c e^{2 pi i (p.x + q.y)}``, ``coeffs`` a
complex array of shape (T,).  Products are vectorised outer sums over the
two term lists with the closed-form phases of each orientation; Toeplitz
matrices are built from the shift-and-clock formula with Kronecker products.
Each ``check_*`` function returns a list of problems, empty when the program
output agrees with the reference.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

# Coefficient comparisons: l1 distance over the l1 size of the reference terms.
COEFF_REL_TOL = 1e-10
# Exact norms (l1, linf and the LAPACK 2-norm) of the same error operator built
# two ways agree to rounding.
NORM_REL_TOL = 1e-8
NORM_ABS_TOL = 1e-14
# Power iteration may read low, never high.  Its stopping rule (relative
# change between steps <= 1e-10) does not bound the error, and readings up to
# 7e-4 below the LAPACK 2-norm occur at k <= 128; a reading more than this
# far below is a gross error.
L2_LOW_TOL = 1e-2
# Errors at or below this are exact zeros and are left out of slope fits.
ERROR_FLOOR = 1e-13
# An order-N truncation must fit a log-log slope in [N + 0.8, N + 2.2].
SLOPE_BELOW = 0.2
SLOPE_ABOVE = 1.2

ORIENTATIONS = ("star", "check_star", "moyal")


def symbol(poly) -> tuple[np.ndarray, np.ndarray]:
    """(keys, coeffs) arrays of anything with ``terms()`` -> [((p, q), c)]."""
    terms = poly.terms()
    n = poly.n
    keys = np.array([list(p) + list(q) for (p, q), _c in terms], dtype=np.int64).reshape(-1, 2 * n)
    coeffs = np.array([c for _k, c in terms], dtype=complex)
    return keys, coeffs


def combine(keys: np.ndarray, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum coefficients of equal keys; keys come back sorted and unique."""
    if len(keys) == 0:
        return keys, coeffs
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    out = np.zeros(len(uniq), dtype=complex)
    np.add.at(out, inverse.reshape(-1), coeffs)
    return uniq, out


def _pairs(f, g, orientation: str):
    """Outer-sum keys, amplitude products and phase angles theta with the
    exact product phase e^{i theta hbar}."""
    fk, fc = f
    gk, gc = g
    n = fk.shape[1] // 2
    p, a = fk[:, :n], fk[:, n:]
    q, b = gk[:, :n], gk[:, n:]
    aq = (a @ q.T).astype(float)
    pb = (p @ b.T).astype(float)
    if orientation == "star":
        theta = 2.0 * math.pi * aq
    elif orientation == "check_star":
        theta = -2.0 * math.pi * pb
    elif orientation == "moyal":
        theta = math.pi * (aq - pb)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    keys = (fk[:, None, :] + gk[None, :, :]).reshape(-1, 2 * n)
    amp = (fc[:, None] * gc[None, :]).reshape(-1)
    return keys, amp, theta.reshape(-1)


def exact_product(f, g, k: int, orientation: str):
    """Convergent product at hbar = 1/k: phases e^{2 pi i hbar a.q} (star),
    e^{-2 pi i hbar p.b} (check_star), e^{pi i hbar (a.q - p.b)} (moyal)."""
    keys, amp, theta = _pairs(f, g, orientation)
    terms = amp * np.exp(1j * theta / k)
    return combine(keys, terms), float(np.abs(amp).sum())


def truncated_product(f, g, order: int, orientation: str):
    """Order-j coefficients of the product series: the j-th Taylor
    coefficient (i theta)^j / j! of the exact phase.  Returns a list of
    (symbol, l1 size of its unreduced terms)."""
    keys, amp, theta = _pairs(f, g, orientation)
    out = []
    for j in range(order + 1):
        terms = amp * (1j * theta) ** j / math.factorial(j)
        out.append((combine(keys, terms), float(np.abs(terms).sum())))
    return out


def _pa(f) -> np.ndarray:
    keys, _c = f
    n = keys.shape[1] // 2
    return np.einsum("ij,ij->i", keys[:, :n], keys[:, n:]).astype(float)


def berezin_exact(f, k: int):
    """Exact transform: the (p, a) amplitude times e^{+2 pi i hbar p.a}."""
    keys, coeffs = f
    return combine(keys, coeffs * np.exp(2j * math.pi * _pa(f) / k))


def berezin_series(f, order: int):
    """Order-j coefficients (2 pi i p.a)^j / j! of the transform series."""
    keys, coeffs = f
    pa = _pa(f)
    out = []
    for j in range(order + 1):
        terms = coeffs * (2j * math.pi * pa) ** j / math.factorial(j)
        out.append((combine(keys, terms), float(np.abs(terms).sum())))
    return out


def evaluate_series(coefficients, hbar: float):
    """Sum_j hbar^j c_j of a list of symbols."""
    keys = np.concatenate([c[0] for c in coefficients])
    coeffs = np.concatenate([c[1] * hbar**j for j, c in enumerate(coefficients)])
    return combine(keys, coeffs)


def distance(poly, ref) -> float:
    """l1 distance between a program polynomial and a reference symbol."""
    keys, coeffs = ref
    n = poly.n
    want = {(tuple(int(v) for v in key[:n]), tuple(int(v) for v in key[n:])): c for key, c in zip(keys, coeffs)}
    got = dict(poly.terms())
    return float(sum(abs(got.get(key, 0.0) - want.get(key, 0.0)) for key in set(got) | set(want)))


def check_coefficients(label: str, poly, ref, size: float) -> list[str]:
    """Program polynomial against a reference symbol, relative to ``size``."""
    d = distance(poly, ref)
    if d > COEFF_REL_TOL * max(size, 1e-300):
        return [f"{label}: l1 distance {d:.3e} from the reference exceeds {COEFF_REL_TOL:.0e} x {size:.3e}"]
    return []


# -- Toeplitz matrices -----------------------------------------------------------


def toeplitz(sym, k: int, momentum: bool = False) -> np.ndarray:
    """Dense level-k matrix of a symbol from shift and clock.

    On each axis e^{2 pi i x} is the cyclic shift S (|m> -> |m+1>) and
    e^{2 pi i y} the clock C = diag(e^{2 pi i m / k}).  The position basis
    takes a term to S^p C^q; the momentum basis to C^q S^p, which is
    e^{2 pi i p.q / k} S^p C^q.  Axes combine by Kronecker products in
    row-major index order.
    """
    keys, coeffs = sym
    n = keys.shape[1] // 2
    m = np.arange(k)
    dim = k**n
    out = np.zeros((dim, dim), dtype=complex)
    for key, c in zip(keys, coeffs):
        factors = []
        for i in range(n):
            p, q = int(key[i]), int(key[n + i])
            factor = np.roll(np.diag(np.exp(2j * math.pi * q * m / k)), p, axis=0)
            if momentum:
                factor = factor * np.exp(2j * math.pi * p * q / k)
            factors.append(factor)
        out += c * reduce(np.kron, factors)
    return out


def norms(matrix: np.ndarray) -> dict[str, float]:
    """l1 (max column sum), linf (max row sum) and the LAPACK 2-norm."""
    a = np.abs(matrix)
    return {
        "l1": float(a.sum(axis=0).max()),
        "linf": float(a.sum(axis=1).max()),
        "l2": float(np.linalg.norm(matrix, 2)),
    }


def product_error_norms(f, g, order: int, k: int, orientation: str = "star") -> dict[str, float]:
    """Norms of Q_f Q_g - Q_{f *_N g (1/k)}."""
    series = [s for s, _size in truncated_product(f, g, order, orientation)]
    approx = evaluate_series(series, 1.0 / k)
    return norms(toeplitz(f, k) @ toeplitz(g, k) - toeplitz(approx, k))


def intertwine_error_norms(f, order: int, k: int) -> dict[str, float]:
    """Norms of the momentum-basis matrix minus Q of the order-N transform."""
    series = [s for s, _size in berezin_series(f, order)]
    approx = evaluate_series(series, 1.0 / k)
    return norms(toeplitz(f, k, momentum=True) - toeplitz(approx, k))


def l2_shortfall(value: float, reference: float) -> float:
    """How far an l2 reading sits below the LAPACK 2-norm, relative to it."""
    return (reference - value) / reference if reference > 0 else 0.0


def check_norm(label: str, kind: str, value: float, reference: float) -> list[str]:
    """Exact kinds must match; l2 may read low by L2_LOW_TOL, never high."""
    slack = NORM_REL_TOL * reference + NORM_ABS_TOL
    if kind == "l2":
        if value > reference + slack:
            return [f"{label}: l2 {value!r} above the LAPACK 2-norm {reference!r}"]
        if value < reference * (1.0 - L2_LOW_TOL) - NORM_ABS_TOL:
            return [f"{label}: l2 {value!r} more than {L2_LOW_TOL:.0e} below the LAPACK 2-norm {reference!r}"]
        return []
    if abs(value - reference) > slack:
        return [f"{label}: {kind} {value!r} differs from the reference {reference!r}"]
    return []


def check_interpolation(label: str, by_kind: dict[str, float]) -> list[str]:
    """l2 <= sqrt(l1 * linf) at one level."""
    bound = math.sqrt(by_kind["l1"] * by_kind["linf"])
    if by_kind["l2"] > bound * (1.0 + 1e-12):
        return [f"{label}: l2 {by_kind['l2']!r} exceeds sqrt(l1*linf) {bound!r}"]
    return []


def check_slope(label: str, points: list[tuple[int, float]], order: int) -> list[str]:
    """Errors of an order-N truncation fall at rate N+1: the least-squares
    slope of log(error) on log(1/k), over errors above the floor, lies in
    the window."""
    usable = [(k, e) for k, e in points if e > ERROR_FLOOR]
    if not usable:
        return []
    if len(usable) < 3:
        return [f"{label}: fewer than three errors above the floor"]
    slope = float(np.polyfit(np.log([1.0 / k for k, _e in usable]), np.log([e for _k, e in usable]), 1)[0])
    lo, hi = order + 1 - SLOPE_BELOW, order + 1 + SLOPE_ABOVE
    if not lo <= slope <= hi:
        return [f"{label}: slope {slope:.4f} outside [{lo}, {hi}]"]
    return []
