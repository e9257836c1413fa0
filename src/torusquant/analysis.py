"""Norms, error operators and convergence-rate experiments.

Everything here measures how fast quantization errors shrink as the level k
grows (hbar = 1/k).  Sweeps produce (k, hbar, error) rows per norm kind;
log-log slope fits turn them into empirical convergence orders, with an
error floor below which values count as exact zeros so rounding noise never
produces garbage slopes.

Traces build no operator.  By Poisson summation hbar^n tr Q_f is
``lattice_mean``, the mean of f on the lattice (Z/k)^{2n}: for a TrigPoly
the sum of its amplitudes on kZ^{2n}, so its error is an exact zero beyond
the bandwidth; for an expression the mean of its samples there
(``funcexpr.lattice_mean``), with no projection.  A Riemann sum is the trace
of an x-free symbol.

The other sweeps and the acceptance checks take their operators, defects
and norms from the wrapped-diagonal form of each operator
(``quantize.DiagonalOperator`` and its operator algebra), with no dense
product or assembly; only the LAPACK l2 route below scatters a matrix.  l1
and linf are exact column and row sums.  l2 is the LAPACK 2-norm up to
dimension LAPACK_L2_MAX_DIM, where it is the cheaper route.  Above it, l2
is the square root of the top Ritz value theta of a three-term Lanczos
recurrence on A*A, which holds two vectors whatever its step budget,
certified by a block Cholesky factorization of theta (1 + L2_CERT_DELTA) I -
A*A; where a block would pass the dense cap, the run does not converge or
the certificate fails, it is the LAPACK 2-norm again, and above the dense
cap an ``L2RouteError``.  A certified value sits below the true norm by less than
L2_CERT_DELTA / 2 relative and never above it beyond rounding;
``L2Reading`` says which route answered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from . import funcexpr
from .config import SWEEP_KINDS, ConfigError, ExperimentConfig, expression_mean
from .quantize import (
    DENSE_DIM_CAP,
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    QuantumOperator,
    intertwine,
    toeplitz_diagonals,
    torus_generator_diagonals,
)
from .starprod import HbarValue, berezin_exact, berezin_truncated, star_exact, star_truncated
from .trigpoly import TrigPoly

# Measured errors at or below this are double-precision accumulation noise
# and are treated as exact zeros.
ERROR_FLOOR = 1e-13

# Empirical slope for an order-N truncation must land in
# [N + 1 - SLOPE_BELOW, N + 1 + SLOPE_ABOVE].
SLOPE_BELOW = 0.2
SLOPE_ABOVE = 1.2

# Relative margin of the l2 certificate: a Lanczos value sqrt(theta) counts
# once theta (1 + L2_CERT_DELTA) I - A*A is shown positive definite.
L2_CERT_DELTA = 1e-10
# Most steps of one Lanczos run on A*A; the top Ritz pair is tested for
# convergence every LANCZOS_CHECK steps.  Memory does not grow with the
# budget.  n = 1 norm_bound symbols (bandwidth 2 to 4, decay 8) took up to
# 136 steps at k = 1024, 184 at 2048 and 264 at 4096, the dense cap; a run
# that uses all 512 spends about 0.55 s in its 64 eigh checks (26-31 ms at
# 512 x 512), against more than a minute for one LAPACK SVD at dimension 4096.
LANCZOS_BUDGET = 512
LANCZOS_CHECK = 8
# Up to this dimension the LAPACK 2-norm answers l2: it is cheaper there than
# certified three-term Lanczos (per call, 0.11-0.18 against 0.75-1.2 ms at
# dim 32, 0.38-0.71 against 0.80-16 ms at dim 64); at dim 128 Lanczos is the
# cheaper (1.2-3.6 against 8.0-8.7 ms).  See the README's table for the set-up.
LAPACK_L2_MAX_DIM = 64
# Largest diagonal block that the certificate's triangular solve hands to
# np.linalg.solve; larger ones are halved, and the off-diagonal part goes
# through one matrix product.
LOWER_SOLVE_LEAF = 256

# O(hbar^infinity) statements are operationalized as "error * k^RATE_EXPONENT
# keeps decreasing over the sweep"; reports flag this as a chosen rendering.
RATE_EXPONENT = 4.0


class NormKind(Enum):
    L1 = "l1"
    LINF = "linf"
    L2 = "l2"


NORM_ORDER = (NormKind.L1, NormKind.L2, NormKind.LINF)  # report row order


class PowerIterationWarning(UserWarning):
    """Former spectral-norm power-iteration cap warning.

    Kept so that code filtering or subclassing it still imports; nothing in
    the package raises it since l2 norms come from the LAPACK SVD.
    """


def spectral_norm(matrix) -> float:
    """Largest singular value, ``np.linalg.norm(a, 2)`` (LAPACK SVD).

    Exact to rounding; empty matrices have norm 0.
    """
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _entries(op) -> np.ndarray:
    return op.entries if isinstance(op, QuantumOperator) else np.asarray(op, dtype=complex)


class L2Reading(float):
    """An l2 norm that says how it was obtained.

    The float is the reported value.  ``method`` is ``"lapack_svd"`` (exact
    to rounding; ``upper`` is the value itself), ``"interp_bound"`` (the
    bound sqrt(l1 * linf), at least the norm; ``upper`` is the value itself)
    or ``"lanczos_certified"``: the value sqrt(theta) is at most the norm
    and below it by less than L2_CERT_DELTA / 2 relative, and ``upper`` =
    sqrt(theta (1 + L2_CERT_DELTA)) is certified to be at least the norm.
    ``steps`` counts Lanczos steps.
    """

    def __new__(cls, value: float, method: str, upper: float, steps: int = 0):
        out = super().__new__(cls, value)
        out.method, out.upper, out.steps = method, float(upper), steps
        return out

    def describe(self) -> dict:
        if self.method != "lanczos_certified":
            return {"method": self.method}
        return {"method": self.method, "steps": self.steps}


class L2RouteError(ValueError):
    """Certified Lanczos did not answer an l2 norm above the dense cap, where
    no LAPACK fallback exists."""


def certified_l2_norm(op, tol: float) -> L2Reading:
    """l2 norm for comparisons against a tolerance.

    Returns the interpolation bound sqrt(l1 * linf), method
    ``interp_bound``, when it already sits at or below ``tol``: the bound
    dominates the l2 norm, so it certifies the check without an SVD.  For a
    DiagonalOperator l1 and linf are exact sums over its diagonals.
    Otherwise returns the reading of the l2 route (``operator_norm``).
    """
    bound = float(np.sqrt(operator_norm(op, NormKind.L1) * operator_norm(op, NormKind.LINF)))
    if bound <= tol:
        return L2Reading(bound, "interp_bound", bound)
    value = operator_norm(op, NormKind.L2)
    return value if isinstance(value, L2Reading) else L2Reading(value, "lapack_svd", value)


def _interleaving(op: DiagonalOperator) -> tuple[np.ndarray, int] | None:
    """(permutation, block size) that makes A*A block tridiagonal, or None
    when a block would hold more than DENSE_DIM_CAP entries.

    The diagonals of A*A sit at the shifts s - r of pairs of diagonals of A;
    on the outermost axis they reach at most w residues either way,
    cyclically.  Ordering that axis 0, k-1, 1, k-2, ... puts cyclic
    neighbours at most 2w positions apart, so blocks of 2w slices (k^(n-1)
    entries each) couple only to the blocks next to them; with one or two
    blocks that holds trivially.  ``perm[new] = old`` on flat indices.
    """
    k, inner = op.spec.k, op.spec.dim // op.spec.k
    axis0 = op.shifts[:, 0]
    reach = (axis0[None, :] - axis0[:, None]) % k
    block = max(2 * int(np.minimum(reach, k - reach).max(initial=0)), 1)
    if block * inner > DENSE_DIM_CAP:
        return None
    order = np.empty(k, dtype=np.int64)
    order[0::2] = np.arange((k + 1) // 2)
    order[1::2] = k - 1 - np.arange(k // 2)
    return (order[:, None] * inner + np.arange(inner)).ravel(), block * inner


def _lower_solve(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lower^{-1} rhs for a lower-triangular ``lower``, written over ``rhs``
    and returned: recursive halving, so that most of the work is the GEMM
    update of the bottom half, with ``np.linalg.solve`` on diagonal blocks
    of at most LOWER_SOLVE_LEAF."""
    size = len(lower)
    if size <= LOWER_SOLVE_LEAF:
        rhs[...] = np.linalg.solve(lower, rhs)
        return rhs
    half = size // 2
    top = _lower_solve(lower[:half, :half], rhs[:half])
    rhs[half:] -= lower[half:, :half] @ top
    _lower_solve(lower[half:, half:], rhs[half:])
    return rhs


def _schur_update(factor: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """C S^{-1} C* for S = factor factor*: x* x with x = factor^{-1} C*."""
    x = _lower_solve(factor, coupling.conj().T)
    return x.conj().T @ x


def _panel_entries(gram: DiagonalOperator, perm: np.ndarray, bs: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of -G in the interleaved blocks on and below the block
    diagonal, sorted by block row: (flat place in the b x 2b panel of its
    block row, which covers the columns of blocks i - 1 and i; value; the
    start of each block row).  The blocks above the diagonal mirror these."""
    dim = gram.spec.dim
    position = np.empty(dim, dtype=np.int64)
    position[perm] = np.arange(dim)
    rows = position[gram.rows]  # the columns are the positions of m'
    below = rows // bs - position // bs
    keep = (below == 0) | (below == 1)
    rows, cols = rows[keep], np.broadcast_to(position, keep.shape)[keep]
    block = rows // bs
    order = np.argsort(block, kind="stable")
    flat = ((rows - block * bs) * (2 * bs) + cols - (block - 1) * bs)[order]
    starts = np.searchsorted(block[order], np.arange(-(-dim // bs) + 1))
    return flat, -gram.values[keep][order], starts


def _certify(gram: DiagonalOperator, mu: float, interleaving: tuple[np.ndarray, int]) -> bool:
    """Whether mu I - G is positive definite, by a block Cholesky
    factorization of its interleaved block-tridiagonal form, one block row
    at a time: O(S k^n + b^2) memory for S diagonals and blocks of b
    entries, O(k^n b^2) time, no k^n x k^n array.  The place of every
    entry in its block row is computed once (``_panel_entries``), and one
    panel of b x 2b entries is refilled for each block row."""
    perm, bs = interleaving
    flat, values, starts = _panel_entries(gram, perm, bs)
    diagonal = np.arange(bs) * (2 * bs + 1) + bs  # the flat places of mu I
    panel = np.empty((bs, 2 * bs), dtype=complex)
    factor = None
    try:
        for start, stop in zip(starts[:-1], starts[1:]):
            panel.fill(0.0)
            panel.reshape(-1)[flat[start:stop]] = values[start:stop]
            panel.reshape(-1)[diagonal] += mu  # the padding of the last block is mu I
            diag = panel[:, bs:]
            if factor is not None:
                diag -= _schur_update(factor, panel[:, :bs])
            factor = np.linalg.cholesky(diag)
    except np.linalg.LinAlgError:
        return False
    return True


def _lanczos_top(gram: DiagonalOperator) -> tuple[float | None, int]:
    """(top Ritz value, steps) of Lanczos on the Hermitian ``gram`` from a
    seeded start; the value is None when the Ritz pair has not converged
    within LANCZOS_BUDGET steps.

    The plain three-term recurrence keeps two vectors, O(S k^n) memory for
    S diagonals whatever the budget.  Its lost orthogonality only shows once
    a Ritz value has converged (Paige), so the top one converges as it does
    with reorthogonalization.  Converged means the residual rho of the top
    Ritz pair satisfies min(rho, rho^2 / gap) <= theta L2_CERT_DELTA / 4,
    gap being the distance to the next Ritz value; the certificate, not this
    test, decides.
    """
    dim = gram.spec.dim
    budget = min(LANCZOS_BUDGET, dim)
    rng = np.random.default_rng(0)
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v, previous = start / np.linalg.norm(start), None
    alpha, beta = np.zeros(budget), np.zeros(budget)
    for j in range(budget):
        # every update is in place: one new vector per step, from rmatvec
        w = gram.rmatvec(v)  # G* = G
        if previous is not None:
            previous *= beta[j - 1]
            w -= previous
        alpha[j] = np.vdot(v, w).real
        w -= alpha[j] * v
        beta[j] = math.sqrt(np.vdot(w, w).real)
        steps = j + 1
        if steps % LANCZOS_CHECK == 0 or steps == budget or beta[j] == 0:
            off = beta[: steps - 1]
            ritz, vectors = np.linalg.eigh(np.diag(alpha[:steps]) + np.diag(off, 1) + np.diag(off, -1))
            theta, rho = ritz[-1], beta[j] * abs(vectors[-1, -1])
            gap = theta - ritz[-2] if steps > 1 else np.inf
            if min(rho, rho * rho / gap if gap > 0 else np.inf) <= theta * L2_CERT_DELTA / 4:
                return float(theta), steps
            if beta[j] == 0:
                break
        w /= beta[j]
        previous, v = v, w
    return None, steps


def _l2_diagonal(op: DiagonalOperator) -> L2Reading:
    if op.spec.dim > LAPACK_L2_MAX_DIM:
        steps, interleaving = 0, _interleaving(op)
        if interleaving is None:
            failed = f"the band of A*A needs certificate blocks above {DENSE_DIM_CAP} entries"
        else:
            gram = op.adjoint() @ op
            theta, steps = _lanczos_top(gram)
            if theta is None:
                failed = "the convergence test of the top Ritz pair failed"
            else:
                mu = theta * (1.0 + L2_CERT_DELTA)
                if _certify(gram, mu, interleaving):
                    return L2Reading(np.sqrt(theta), "lanczos_certified", np.sqrt(mu), steps)
                failed = "the certificate refused theta (1 + L2_CERT_DELTA)"
        if op.spec.dim > DENSE_DIM_CAP:
            raise L2RouteError(
                f"no l2 norm at level k = {op.spec.k}, dimension {op.spec.dim}: {failed} after {steps} Lanczos steps "
                f"(LANCZOS_BUDGET = {LANCZOS_BUDGET}), and the LAPACK fallback needs a dense "
                f"matrix, capped at dimension {DENSE_DIM_CAP}"
            )
    value = spectral_norm(op.dense().entries)
    return L2Reading(value, "lapack_svd", value)


def operator_norm(op, kind: NormKind | str) -> float:
    """Operator norm of a DiagonalOperator, a QuantumOperator or a matrix.

    ``l1`` is the max column absolute sum and ``linf`` the max row absolute
    sum, exact to rounding; for a DiagonalOperator they are sums of |D| over
    its diagonals.  ``l2`` is the largest singular value: the LAPACK 2-norm
    of a matrix (see spectral_norm), and an ``L2Reading`` for a
    DiagonalOperator, LAPACK up to LAPACK_L2_MAX_DIM and certified Lanczos
    above it, as the module docstring describes.
    """
    kind = NormKind(kind) if not isinstance(kind, NormKind) else kind
    if isinstance(op, DiagonalOperator):
        if kind is NormKind.L1:
            return float(np.abs(op.values).sum(axis=0).max(initial=0.0))
        if kind is NormKind.LINF:
            weights = np.abs(op.values).ravel()
            return float(np.bincount(op.rows.ravel(), weights, op.spec.dim).max())
        return _l2_diagonal(op)
    a = _entries(op)
    if a.size == 0:
        return 0.0
    if kind is NormKind.L1:
        return float(np.abs(a).sum(axis=0).max())
    if kind is NormKind.LINF:
        return float(np.abs(a).sum(axis=1).max())
    return spectral_norm(a)


# -- error operators ----------------------------------------------------------
#
# Quantization is an exact homomorphism for the convergent products on the
# torus: Q_f Q_g = Q_{star_exact(f, g, 1/k)}, and re-expressing a dual-basis
# matrix in the primary basis gives Q_{berezin_exact(f, 1/k)}.  So each
# truncation error is the Toeplitz operator of a remainder symbol, exact minus
# truncated series at hbar = 1/k: one assembly, no matrix product.  The
# k-independent series is computed once per sweep.


def _remainder_at(exact: Callable[[HbarValue], TrigPoly], series) -> Callable[[int], DiagonalOperator]:
    """Level k -> wrapped diagonals of the Toeplitz operator of
    exact(1/k) - series(1/k)."""

    def at(k: int) -> DiagonalOperator:
        h = HbarValue(k)
        remainder = exact(h) - series.evaluate(h.hbar)
        return toeplitz_diagonals(remainder, HilbertSpec(remainder.n, k))

    return at


def _product_remainder(f: TrigPoly, g: TrigPoly, order: int) -> Callable[[int], DiagonalOperator]:
    return _remainder_at(lambda h: star_exact(f, g, h), star_truncated(f, g, order))


def _berezin_remainder(f: TrigPoly, order: int) -> Callable[[int], DiagonalOperator]:
    return _remainder_at(lambda h: berezin_exact(f, h), berezin_truncated(f, order))


def error_product(f: TrigPoly, g: TrigPoly, order: int, k: int) -> QuantumOperator:
    """Q_f Q_g - Q_{f *_order g at hbar=1/k} in the position basis.

    Built as the Toeplitz operator of the remainder symbol
    star_exact(f, g, 1/k) - star_truncated(f, g, order)(1/k), which equals
    the dense difference to rounding.
    """
    return _product_remainder(f, g, order)(k).dense()


def error_intertwine(f: TrigPoly, order: int | None, k: int) -> QuantumOperator:
    """Dual-basis quantization re-expressed, minus quantization of the
    Berezin-transformed symbol.

    With an integer ``order`` this is the Toeplitz operator of the remainder
    symbol berezin_exact(f, 1/k) - berezin_truncated(f, order)(1/k).
    ``order=None`` compares the exact transform against the basis change
    itself, intertwine(Q^dual_f) - Q_{berezin_exact f}: two independent
    routes, so it checks the identity the remainder route relies on.
    """
    if order is not None:
        return _berezin_remainder(f, order)(k).dense()
    return _exact_transform_defect(f, k).dense()


def _exact_transform_defect(f: TrigPoly, k: int) -> DiagonalOperator:
    """intertwine(Q^dual_f) - Q_{berezin_exact f} in wrapped-diagonal form."""
    dual = toeplitz_diagonals(f, HilbertSpec(f.n, k, Polarization.MOMENTUM))
    exact = toeplitz_diagonals(berezin_exact(f, HbarValue(k)), HilbertSpec(f.n, k, Polarization.POSITION))
    return intertwine(dual) - exact


def lattice_mean(f, k: int, n: int | None = None) -> complex:
    """hbar^n tr Q_f at level k in either polarization: by Poisson summation
    the mean of f on the lattice (Z/k)^{2n}.  For a TrigPoly that is the sum,
    in key order, of its amplitudes on kZ^{2n}; for an expression on the
    torus of dimension 2n, the mean of its samples (funcexpr.lattice_mean)."""
    if isinstance(f, TrigPoly):
        return complex(f.values[~(f.keys % k).any(axis=1)].sum())
    return funcexpr.lattice_mean(f, n, k)


def trace_error(f, k: int, reference: complex | None = None, n: int | None = None) -> float:
    """|lattice_mean(f, k, n) - reference|; reference defaults to the mean of
    a TrigPoly and is required for an expression."""
    if reference is None:
        if not isinstance(f, TrigPoly):
            raise ValueError("reference is required for expression symbols")
        reference = f.mean
    return abs(lattice_mean(f, k, n) - complex(reference))


def riemann_sum_error(
    profile,
    k: int,
    n: int | None = None,
    mean: complex | None = None,
) -> float:
    """|mean - k^{-n} sum over the lattice (m/k)|: the trace_error of an
    x-free profile, a TrigPoly (mean defaults to its coefficient average) or
    the AST of an expression in y on the torus of dimension 2n (n defaults
    to 1), whose ``mean`` the caller supplies."""
    if isinstance(profile, TrigPoly):
        reads_x = profile.x_bandwidth() != 0
    else:
        reads_x = any(v.axis == "x" for v in funcexpr.variables(profile))
    if reads_x:
        raise ValueError("profile must not depend on x")
    return trace_error(profile, k, reference=mean, n=n or 1)


# -- slope fitting -------------------------------------------------------------


class TooFewPointsError(ValueError):
    """Fewer than three points survive the error floor."""

    def __init__(self, n_points: int, n_usable: int):
        super().__init__(
            f"{n_usable} of {n_points} points above the error floor; need at least 3 to fit"
        )
        self.n_points = n_points
        self.n_usable = n_usable


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    residual: float  # rms of log-error residuals about the fit line
    n_used: int
    n_excluded: int


def fit_slope(points: Iterable[tuple[float, float]], floor: float = ERROR_FLOOR) -> SlopeFit:
    """Least-squares slope of log(error) against log(hbar).

    Points with error at or below ``floor`` are excluded (they are exact
    zeros); raises TooFewPointsError when fewer than three remain.
    """
    pts = [(float(h), float(e)) for h, e in points]
    usable = [(h, e) for h, e in pts if e > floor]
    if len(usable) < 3:
        raise TooFewPointsError(len(pts), len(usable))
    xs = np.log([h for h, _ in usable])
    ys = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return SlopeFit(
        slope=float(slope),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_used=len(usable),
        n_excluded=len(pts) - len(usable),
    )


# -- experiment driver ---------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    k: int
    hbar: float
    error: float
    norm_kind: str

    def to_dict(self) -> dict:
        return {"k": self.k, "hbar": self.hbar, "error": self.error, "norm_kind": self.norm_kind}


@dataclass(frozen=True)
class SeriesSummary:
    name: str
    norm_kind: str
    outcome: str  # "fit" | "exact_identity" | "bound" | "insufficient_points"
    passed: bool
    slope: float | None = None
    residual: float | None = None
    expected_slope: float | None = None
    window: tuple[float, float] | None = None
    n_excluded: int = 0

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "norm_kind": self.norm_kind,
            "outcome": self.outcome,
            "passed": self.passed,
            "n_excluded": self.n_excluded,
        }
        if self.slope is not None:
            out["slope"] = self.slope
            out["residual"] = self.residual
        if self.expected_slope is not None:
            out["expected_slope"] = self.expected_slope
        if self.window is not None:
            out["window"] = list(self.window)
        return out


@dataclass
class ConvergenceReport:
    experiment: str
    rows: list[SweepPoint]
    series: list[SeriesSummary]
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "rows": [r.to_dict() for r in sorted(self.rows, key=lambda r: (r.k, r.norm_kind))],
            "series": [s.to_dict() for s in self.series],
            "passed": self.passed,
            "details": self.details,
        }


def slope_window(order: int) -> tuple[float, float]:
    expected = order + 1.0
    return (expected - SLOPE_BELOW, expected + SLOPE_ABOVE)


def _fit_series(kind: str, points: list[tuple[float, float]], order: int) -> SeriesSummary:
    lo, hi = slope_window(order)
    if all(e <= ERROR_FLOOR for _, e in points):
        return SeriesSummary(name=kind, norm_kind=kind, outcome="exact_identity", passed=True,
                             n_excluded=len(points))
    try:
        fit = fit_slope(points)
    except TooFewPointsError as exc:
        return SeriesSummary(
            name=kind, norm_kind=kind, outcome="insufficient_points", passed=False,
            n_excluded=exc.n_points - exc.n_usable,
        )
    passed = lo <= fit.slope <= hi
    return SeriesSummary(
        name=kind,
        norm_kind=kind,
        outcome="fit",
        passed=passed,
        slope=fit.slope,
        residual=fit.residual,
        expected_slope=order + 1.0,
        window=(lo, hi),
        n_excluded=fit.n_excluded,
    )


def superpoly_decay_ok(points: Sequence[tuple[int, float]], exponent: float = RATE_EXPONENT) -> tuple[bool, bool]:
    """(passed, exact_identity) for a faster-than-k^{-exponent} claim.

    Scaled values error * k^exponent must strictly decrease while above the
    error floor; once a value falls to the floor, later ones must stay there.
    All-floor data is an exact identity and passes vacuously.
    """
    scaled = [(k, e * float(k) ** exponent, e) for k, e in points]
    exact = all(e <= ERROR_FLOOR for _, _, e in scaled)
    if exact:
        return True, True
    prev = None
    seen_floor = False
    for _k, value, raw in scaled:
        if raw <= ERROR_FLOOR:
            seen_floor = True
            continue
        if seen_floor:
            return False, False  # error came back up above the floor
        if prev is not None and value >= prev:
            return False, False
        prev = value
    return True, False


def _l2_details(ks: Sequence[int], readings: Sequence[L2Reading]) -> dict:
    """Report details naming the l2 route of each level."""
    return {
        "l2_methods": [{"k": k, **r.describe()} for k, r in zip(ks, readings)],
        "l2_cert_delta": L2_CERT_DELTA,
    }


def _norm_report(
    experiment: str,
    ks: Sequence[int],
    error_at: Callable[[int], DiagonalOperator],
    order: int,
    details: dict,
    extra: Sequence[SeriesSummary] = (),
) -> ConvergenceReport:
    """Rows of the three norms of ``error_at(k)`` per level, one slope fit
    per norm against the order-``order`` window, then the ``extra`` series."""
    cells = [{kind.value: operator_norm(op, kind) for kind in NORM_ORDER} for op in map(error_at, ks)]
    rows = [
        SweepPoint(k, 1.0 / k, float(norms[kind.value]), kind.value)
        for k, norms in zip(ks, cells)
        for kind in NORM_ORDER
    ]
    series = [
        _fit_series(kind.value, [(1.0 / k, norms[kind.value]) for k, norms in zip(ks, cells)], order)
        for kind in NORM_ORDER
    ]
    series += extra
    details = {"order": order, **details, **_l2_details(ks, [norms[NormKind.L2.value] for norms in cells])}
    return ConvergenceReport(experiment, rows, series, all(s.passed for s in series), details)


# -- sweeps --------------------------------------------------------------------
#
# One sweep per experiment kind, over realized symbols and explicit levels.
# run_experiment feeds them from a config; the acceptance criteria in
# checks.py feed them their own corpora.


def product_sweep(f: TrigPoly, g: TrigPoly, order: int, ks: Sequence[int]) -> ConvergenceReport:
    """Norms of Q_f Q_g - Q_{f *_order g} per level, slope-fitted per norm."""
    return _norm_report("product", ks, _product_remainder(f, g, order), order, {"error_floor": ERROR_FLOOR})


def intertwine_sweep(f: TrigPoly, order: int, ks: Sequence[int]) -> ConvergenceReport:
    """Norms of the order-``order`` intertwining error per level, slope-fitted
    per norm, plus the exact-transform identity checked to 1e-10 in l2."""
    exact_tol = 1e-10
    readings = [certified_l2_norm(_exact_transform_defect(f, k), exact_tol) for k in ks]
    exact_errors = [{"k": k, "error": float(e), **e.describe()} for k, e in zip(ks, readings)]
    exact_max = float(max(readings))
    exact = SeriesSummary(
        name="exact_transform",
        norm_kind=NormKind.L2.value,
        outcome="exact_identity" if exact_max <= exact_tol else "violation",
        passed=exact_max <= exact_tol,
    )
    details = {
        "transform_phase": "+p.a",  # exact transform multiplies (p,a)-amplitudes by e^{+2 pi i hbar p.a}
        "exact_errors": exact_errors,
        "exact_max_error": exact_max,
        "exact_tolerance": exact_tol,
    }
    return _norm_report("intertwine", ks, _berezin_remainder(f, order), order, details, [exact])


def trace_sweep(f, ks: Sequence[int], reference: complex | None = None, n: int | None = None) -> ConvergenceReport:
    """|hbar^n tr Q_f - reference| per level, one ``abs`` row each.

    Without a reference, f is a TrigPoly, band-limited with its own mean as
    the reference: traces must be exact to 1e-12 once k exceeds its
    bandwidth.  A given reference, the mean of an expression f on the torus
    of dimension 2n, asks for faster-than-any-power decay instead
    (superpoly_decay_ok).
    """
    errors = [trace_error(f, k, reference=reference, n=n) for k in ks]
    if reference is None:
        reference, tol, bandwidth = f.mean, 1e-12, f.bandwidth()
        judged = [(k, e) for k, e in zip(ks, errors) if k > bandwidth]
        ok = bool(judged) and all(e <= tol for _k, e in judged)
        name, outcome = "band_limited_trace", "exact_identity" if ok else "violation"
        details = {"bandwidth": bandwidth, "levels_judged": [k for k, _e in judged], "tolerance": tol}
    else:
        ok, exact = superpoly_decay_ok(list(zip(ks, errors)))
        name, outcome = "trace_decay", "exact_identity" if exact else ("fit" if ok else "violation")
        details = {
            "rate_exponent": RATE_EXPONENT,
            "rate_rule": "error*k^4 strictly decreasing above the floor (chosen rendering of faster-than-any-power decay)",
        }
    reference = complex(reference)
    details.update(error_floor=ERROR_FLOOR, reference_re=reference.real, reference_im=reference.imag)
    rows = [SweepPoint(k, 1.0 / k, e, "abs") for k, e in zip(ks, errors)]
    series = [SeriesSummary(name=name, norm_kind="abs", outcome=outcome, passed=ok)]
    return ConvergenceReport("trace", rows, series, ok, details)


def norm_bound_sweep(f: TrigPoly, ks: Sequence[int]) -> ConvergenceReport:
    """||Q_f||_2 per level against the coefficient bound ||f||_l1 (tolerance
    1e-10 relative plus 1e-12).

    Rows carry the reported l2 value; the pass rule judges its certified
    upper value (``L2Reading.upper``), so a Lanczos value that reads low
    cannot pass the check on its own.
    """
    bound = f.l1_norm()
    values = [
        operator_norm(toeplitz_diagonals(f, HilbertSpec(f.n, k, Polarization.POSITION)), NormKind.L2) for k in ks
    ]
    rows = [SweepPoint(k, 1.0 / k, float(v), "l2") for k, v in zip(ks, values)]
    tol = bound * 1e-10 + 1e-12
    max_upper = max(v.upper for v in values)
    ok = max_upper <= bound + tol
    series = [SeriesSummary(name="coefficient_bound", norm_kind="l2", outcome="bound", passed=ok)]
    return ConvergenceReport(
        experiment="norm_bound",
        rows=rows,
        series=series,
        passed=ok,
        details={
            "bound": bound,
            "max_norm": float(max(values)),
            "max_upper": max_upper,
            "tolerance": tol,
            "note": "rows carry the measured l2 norm, not an error; the bound is judged on max_upper",
            **_l2_details(ks, values),
        },
    )


def _power(op: DiagonalOperator, exponent: int) -> DiagonalOperator:
    """op^exponent by repeated squaring, exponent >= 1."""
    result = None
    while True:
        if exponent & 1:
            result = op if result is None else result @ op
        exponent >>= 1
        if not exponent:
            return result
        op = op @ op


def torus_relation_defects(n: int, k: int, tol: float = 1e-12) -> tuple[L2Reading, int | None]:
    """(max relation defect, measured commutation sign) at one level.

    Checks unitarity, k-th powers, same-axis commutation with the measured
    sign, and cross-axis commutation, all in the operator 2-norm (via
    certified_l2_norm against ``tol``), on the one-diagonal generators and
    their products in wrapped-diagonal form.  The defect is the
    ``L2Reading`` of the worst relation, or inf (method
    ``"sign_inconsistent"``) when the axes disagree on the sign.  The sign
    is None at k = 2 where e^{2 pi i hbar} is real and both signs coincide.
    """
    spec = HilbertSpec(n, k, Polarization.POSITION)
    hbar = spec.hbar
    eye = DiagonalOperator.identity(spec)
    gens = [torus_generator_diagonals(spec, axis) for axis in range(1, n + 1)]
    defects = []
    sign: int | None = None
    for u, v in gens:
        for w in (u, v):
            defects.append(certified_l2_norm(w.adjoint() @ w - eye, tol))
            defects.append(certified_l2_norm(_power(w, k) - eye, tol))
        uv = u @ v
        vu = v @ u  # one diagonal, at the same shift as uv
        idx = int(np.argmax(np.abs(vu.values)))
        ratio = uv.values.flat[idx] / vu.values.flat[idx]
        minus = complex(np.exp(-2j * np.pi * hbar))
        plus = complex(np.exp(2j * np.pi * hbar))
        if abs(minus - plus) > 1e-9:
            axis_sign = -1 if abs(ratio - minus) <= abs(ratio - plus) else 1
            if sign is not None and axis_sign != sign:
                # inconsistent within one level; surface as a huge defect
                return L2Reading(float("inf"), "sign_inconsistent", float("inf")), None
            sign = axis_sign
        phase = minus if (sign or -1) == -1 else plus
        defects.append(certified_l2_norm(uv - vu.scale(phase), tol))
    for i in range(n):
        for j in range(i + 1, n):
            ui, vi = gens[i]
            uj, vj = gens[j]
            for a, b in ((ui, uj), (vi, vj), (ui, vj), (vi, uj)):
                defects.append(certified_l2_norm(a @ b - b @ a, tol))
    return max(defects), sign


def torus_relations_sweep(n: int, ks: Sequence[int]) -> ConvergenceReport:
    """Generator relation defects per level (tolerance 1e-12) and one
    commutation sign across all levels where it is observable; the details
    name the l2 route of each level's worst defect."""
    tol = 1e-12
    cells = [torus_relation_defects(n, k, tol) for k in ks]
    rows = [SweepPoint(k, 1.0 / k, float(d), "l2") for k, (d, _s) in zip(ks, cells)]
    signs = {k: s for k, (_d, s) in zip(ks, cells) if s is not None}
    distinct = sorted(set(signs.values()))
    max_defect = float(max(d for d, _s in cells))
    ok = len(distinct) <= 1 and max_defect <= tol
    series = [
        SeriesSummary(
            name="generator_relations",
            norm_kind="l2",
            outcome="exact_identity" if ok else "violation",
            passed=ok,
        )
    ]
    return ConvergenceReport(
        experiment="torus_relations",
        rows=rows,
        series=series,
        passed=ok,
        details={
            "commutation_sign": distinct[0] if distinct else None,
            "signs_by_level": {str(k): s for k, s in sorted(signs.items())},
            "max_defect": max_defect,
            "tolerance": tol,
            "note": "sign is unobservable at k=2 where the phase is real",
            **_l2_details(ks, [d for d, _s in cells]),
        },
    )


# -- experiment driver ---------------------------------------------------------


def _expression_mean(spec_f, n: int, k_max: int) -> complex:
    """Reference mean of an expression on a fine grid.

    Uses at least 4x the finest sweep resolution and 1024 points per axis,
    capped so that the points sampled along the axes the expression reads
    stay within funcexpr.SAMPLE_BUDGET; for analytic integrands this
    trapezoid rule is exact to rounding.  An expression that cannot be
    evaluated on this grid is a ConfigError on f.expr or f.expr_im.
    """
    axes = max(len(funcexpr.variables(ast)) for ast in spec_f.asts() if ast is not None)
    m = min(max(4 * k_max, 1024), int(2 ** (math.log2(funcexpr.SAMPLE_BUDGET) / max(axes, 1))))
    return expression_mean(spec_f, n, m + m % 2, "f")


def run_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Realize a config's inputs and run the sweep of its kind.

    Random symbols are drawn f first, then g, from one generator seeded with
    cfg.seed.  An expression is traced as itself, not as its projection,
    against its mean on a fine reference grid (_expression_mean).  A
    polarization other than position is refused, since sweeps fix their
    own bases.  The ``check`` criteria call the same sweeps on their own
    corpora; see the package README for the per-kind row and series layout.
    """
    kind = cfg.experiment
    if kind not in SWEEP_KINDS:
        raise ValueError(f"experiment {kind!r} is not a sweep; use the star subcommand")
    if cfg.polarization != "position":
        raise ConfigError("polarization", "only the assemble subcommand reads it")
    ks = cfg.k_values()
    if kind == "torus_relations":
        return torus_relations_sweep(cfg.n, ks)
    if kind == "trace" and cfg.f.kind == "expr":
        reference = _expression_mean(cfg.f, cfg.n, max(ks))
        try:
            return trace_sweep(cfg.f.asts(), ks, reference, cfg.n)
        except funcexpr.EvaluationError as exc:
            raise ConfigError(f"f.{exc.part}", f"{exc} on the level-k lattice") from exc
    rng = np.random.default_rng(cfg.seed)
    f = cfg.f.realize(cfg.n, rng)
    if kind == "product":
        return product_sweep(f, cfg.g.realize(cfg.n, rng), cfg.order, ks)
    if kind == "intertwine":
        return intertwine_sweep(f, cfg.order, ks)
    if kind == "trace":
        return trace_sweep(f, ks)
    return norm_bound_sweep(f, ks)
