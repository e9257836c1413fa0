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

A product or intertwine sweep builds once what does not depend on the
level, the exact map with its terms grouped by key, and reads each level's
remainder symbol off it as one segmented sum of per-term Taylor
remainders (``ExactMap.remainder``), then assembles it.

The other sweeps and the acceptance checks take their operators, defects
and norms from the wrapped-diagonal form of each operator
(``quantize.DiagonalOperator`` and its operator algebra), with no dense
product or assembly; only the LAPACK l2 route below scatters a matrix.  l1
and linf are exact column and row sums, kept on each operator once
computed.  Both l2 entry points read one route function, ``_l2_route``,
with a tolerance (0 for ``operator_norm``, the check's own for
``certified_l2_norm``); ``L2Reading`` says which route answered:

1. ``interp_bound``, the bound sqrt(l1 linf), when it is within the
   tolerance, so an exactly zero operator reads 0 at every dimension.  It
   is the root of the product where that is a normal float and the product
   of the roots outside, so it neither underflows to 0 nor overflows.
2. The LAPACK 2-norm, up to dimension LAPACK_L2_MAX_DIM, where it is the
   cheaper route.
3. Certified Lanczos: the square root of the top Ritz value theta of a
   three-term Lanczos recurrence on A*A from a seeded start, holding two
   vectors whatever its step budget, certified by a block Cholesky
   factorization of theta (1 + L2_CERT_DELTA) I - A*A, made block
   tridiagonal by interleaving the outermost axis and factored in block
   rows of at least CERT_MIN_ROWS entries, each carrying only the last
   interleaving block of the row before it (``_certify``); the Schur update
   halves at the slice boundaries of that coupling to skip its zero blocks
   (``_schur_update``).  Both see A divided by 2^e, e the binary exponent
   of the bound, so A*A neither overflows nor underflows and every product
   stays exact.  The value sits below the true norm by less than
   L2_CERT_DELTA / 2 relative and never above it beyond rounding.
4. Where ``config.certificate_shape``, one rule for both caps at parse
   time and here (on A*A's diagonals counted off A's shifts, before A*A
   is formed), refuses, Lanczos does not converge or the certificate
   fails: the LAPACK 2-norm again, above the dense cap ``L2RouteError``.

Conventions are stated once and checked, never measured: TRANSFORM_PHASE
is the phase of the exact Berezin transform that ``intertwine`` checks,
and COMMUTATION_SIGN the sign of the quantum-torus relation
U_i V_i = e^{2 pi i COMMUTATION_SIGN hbar} V_i U_i that
``torus_relations_sweep`` checks at every level.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from . import funcexpr
from .config import ConfigError, ExperimentConfig, certificate_shape, check_pair_product, expression_mean
from .quantize import (
    DENSE_DIM_CAP,
    DiagonalOperator,
    HilbertSpec,
    Polarization,
    _residue_codes,
    intertwine,
    toeplitz_diagonals,
    torus_generator_diagonals,
)
from .starprod import ExactMap, HbarValue, berezin_exact, berezin_map, product_map
from .trigpoly import TrigPoly, _code_dtype

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
# that uses all 512 spends about 0.19 s in its 64 checks (0.27 s when each
# formed the eigenvectors), against more than a minute for one LAPACK SVD
# at dimension 4096.
LANCZOS_BUDGET = 512
LANCZOS_CHECK = 8
# Up to this dimension the LAPACK 2-norm answers l2: it is cheaper there than
# certified three-term Lanczos (per call, 0.12-0.24 against 0.56-1.1 ms at
# dim 32, 0.38-0.42 against 0.60-0.91 ms at dim 64); at dim 128 Lanczos is
# the cheaper (1.0-2.9 against 4.1-4.8 ms).  See the README's table for the
# set-up.
LAPACK_L2_MAX_DIM = 64
# Largest block that the certificate's Schur update handles whole: the
# triangular solve hands diagonal blocks of at most this many entries to
# np.linalg.solve and halves larger ones, the off-diagonal part going through
# one matrix product, and the slice-triangular recursion of ``_solve_gram``
# stops at this size too.  At n = 2, k = 64 and 128, leaves of 128, 256 and
# 512 entries gave certificates within 7 % of each other.
LOWER_SOLVE_LEAF = 256
# Fewest entries in a block row of the certificate: interleaving blocks of
# fewer entries are merged into block rows of at least this many, since at
# n = 1 (blocks of 8 to 16) the cost is one LAPACK call per block row, not
# its arithmetic.
CERT_MIN_ROWS = 32

# O(hbar^infinity) statements are operationalized as "error * k^RATE_EXPONENT
# keeps decreasing over the sweep"; reports flag this as a chosen rendering.
RATE_EXPONENT = 4.0

# intertwine checks its exact-transform identity in l2 to this times
# max(1, ||f||_l1), so that a large symbol is judged as a small one is, and
# reports the transform's phase convention: it multiplies the
# (p, a)-amplitudes by e^{+2 pi i hbar p.a}.
EXACT_TRANSFORM_TOL = 1e-10
TRANSFORM_PHASE = "+p.a"
# The quantum-torus generators at level k = 1/hbar obey
# U_i V_i = e^{2 pi i COMMUTATION_SIGN hbar} V_i U_i, and every generator
# relation holds to TORUS_RELATION_TOL in l2.
COMMUTATION_SIGN = -1
TORUS_RELATION_TOL = 1e-12


class NormKind(Enum):
    L1 = "l1"
    LINF = "linf"
    L2 = "l2"


NORM_ORDER = (NormKind.L1, NormKind.L2, NormKind.LINF)  # report row order


class PowerIterationWarning(UserWarning):
    """Former power-iteration cap warning; nothing raises it, and only the
    benchmark tracer still subclasses it."""


class L2Reading(float):
    """An l2 norm that says how it was obtained.

    The float is the reported value.  ``method`` is one of three routes:
    ``"lapack_svd"`` (exact to rounding; ``upper`` is the value itself),
    ``"interp_bound"`` (the bound sqrt(l1 * linf), at least the norm;
    ``upper`` is the value itself) or ``"lanczos_certified"``: the value
    sqrt(theta) is at most the norm and below it by less than
    L2_CERT_DELTA / 2 relative, and ``upper`` = sqrt(theta (1 +
    L2_CERT_DELTA)) is certified to be at least the norm.
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


def certified_l2_norm(op: DiagonalOperator, tol: float) -> L2Reading:
    """l2 norm for comparisons against a tolerance: the reading of the l2
    route (``_l2_route``) with tolerance ``tol``, so the interpolation
    bound answers whenever it already certifies the check."""
    return _l2_route(op, tol)


def _interleaving(op: DiagonalOperator) -> tuple[np.ndarray, int] | str:
    """(permutation, block size) that makes A*A block tridiagonal, or the
    refusal of ``config.certificate_shape``, which reads the reach below and
    the number of A*A's diagonals.

    The diagonals of A*A sit at the shifts s - r of pairs of diagonals of A;
    on the outermost axis they reach at most w residues either way,
    cyclically.  Ordering that axis 0, k-1, 1, k-2, ... puts cyclic
    neighbours at most 2w positions apart, so blocks of 2w slices (k^(n-1)
    entries each) couple only to the blocks next to them; with one or two
    blocks that holds trivially.  ``perm[new] = old`` on flat indices.
    """
    k, inner = op.spec.k, op.spec.dim // op.spec.k
    codes = _residue_codes((op.shifts[None, :, :] - op.shifts[:, None, :]).reshape(-1, op.spec.n), k)
    outer = codes // inner  # codes: A*A's diagonals; outer: their outermost residues
    reach = int(np.minimum(outer, k - outer).max(initial=0))
    block = certificate_shape(op.spec.n, k, reach, int(np.count_nonzero(np.bincount(codes))))
    if isinstance(block, str):
        return block
    order = np.empty(k, dtype=np.int64)
    order[0::2] = np.arange((k + 1) // 2)
    order[1::2] = k - 1 - np.arange(k // 2)
    return (order[:, None] * inner + np.arange(inner)).ravel(), block


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


def _solve_gram(lower: np.ndarray, rhs: np.ndarray, inner: int) -> np.ndarray:
    """x* x for x = lower^{-1} rhs, with x written over ``rhs``, for a
    lower-triangular ``lower`` and a ``rhs`` lower block-triangular in slices
    of ``inner`` entries, as x then is.

    Halving at the slice boundary nearest the middle, x = [[x11, 0], [x21,
    x22]]: the diagonal blocks recurse against the diagonal blocks of
    ``lower`` only, x21 is one GEMM update and a dense ``_lower_solve``, and
    each level computes one off-diagonal block of x* x, x21* x22, and
    mirrors it.  A block of at most LOWER_SOLVE_LEAF entries, or of one
    slice, is one dense solve and one GEMM."""
    size = len(lower)
    if size <= LOWER_SOLVE_LEAF or size < 2 * inner:
        x = _lower_solve(lower, rhs)
        return x.conj().T @ x
    half = size // inner // 2 * inner
    out = np.empty((size, size), dtype=complex)
    out[:half, :half] = _solve_gram(lower[:half, :half], rhs[:half, :half], inner)
    x21 = rhs[half:, :half]
    x21 -= lower[half:, :half] @ rhs[:half, :half]
    _lower_solve(lower[half:, half:], x21)
    out[half:, half:] = _solve_gram(lower[half:, half:], rhs[half:, half:], inner)
    adjoint = x21.conj().T  # the level's one conjugate copy
    out[:half, :half] += adjoint @ x21
    out[:half, half:] = adjoint @ rhs[half:, half:]
    np.conjugate(out[:half, half:].T, out=out[half:, :half])
    return out


def _schur_update(factor: np.ndarray, coupling: np.ndarray, inner: int) -> np.ndarray:
    """C S^{-1} C* for S = factor factor*: x* x with x = factor^{-1} C*.

    C couples an interleaving block to the one before it.  The interleaved
    Gram matrix reaches at most one block from its diagonal, in slices of
    ``inner`` entries, so slice q of a block meets only slices p >= q of the
    block before: C is upper block-triangular, and C* and x are lower
    block-triangular, which ``_solve_gram`` follows.  Every n = 1 block
    (at most 16 entries) is a single leaf."""
    return _solve_gram(factor, coupling.conj().T, inner)


def _panel_entries(
    gram: DiagonalOperator, perm: np.ndarray, bs: int, size: int, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The entries of mu I - G in the interleaved order that the block rows
    of ``size`` entries (a multiple of the interleaving block ``bs``)
    factor, sorted by block row: (flat place in the size x (bs + size)
    panel of its block row, which covers the last bs columns of the
    previous block row and its own columns; value; the start of each block
    row).  An entry couples back at most one interleaving block, so these
    are all the entries on and below the diagonal; the ones above mirror
    them.  mu is added once to the diagonal of -G, the zero shift, and the
    padding of the last block row past the dimension is mu I."""
    dim = gram.spec.dim
    position = np.empty(dim, dtype=np.int64)
    position[perm] = np.arange(dim)
    rows = position[gram.rows]  # the columns are the positions of m'
    block = rows // size
    column = position - (block * size - bs)  # the place in the panel's width
    keep = (column >= 0) & (column < bs + size)
    rows, block, column = rows[keep], block[keep], column[keep]
    count = -(-dim // size)
    order = np.argsort(block.astype(_code_dtype(count)), kind="stable")
    values = -gram.values
    values[~gram.shifts.any(axis=1)] += mu
    padding = np.arange(dim - (count - 1) * size, size)  # rows of the last panel
    flat = np.concatenate([((rows - block * size) * (bs + size) + column)[order], padding * (bs + size + 1) + bs])
    values = np.concatenate([values[keep][order], np.full(len(padding), mu, dtype=complex)])
    starts = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(block, minlength=count), out=starts[1:])
    starts[-1] = len(flat)
    return flat, values, starts


def _certify(gram: DiagonalOperator, mu: float, interleaving: tuple[np.ndarray, int]) -> bool:
    """Whether mu I - G is positive definite, by a block Cholesky
    factorization of its interleaved block-tridiagonal form, one block row
    at a time: O(S k^n + R^2) memory for S diagonals and block rows of R
    entries, O(k^n R^2) time, no k^n x k^n array.

    Consecutive interleaving blocks of b entries merge into block rows of
    R = b ceil(CERT_MIN_ROWS / b), so that each LAPACK call has enough
    work to outweigh its call cost; with b >= CERT_MIN_ROWS, R = b.  Only
    the first b rows of a block row couple to the previous one, and only to
    its last b columns, so the Schur update is a b x b corner computed
    against the trailing b x b of the previous Cholesky factor
    (``_schur_update``, which follows the corner's slice-triangular form).
    The place and value of every entry of mu I - G in its block row are
    computed once (``_panel_entries``), and one panel of R x (b + R)
    entries is refilled for each block row."""
    perm, bs = interleaving
    inner = gram.spec.dim // gram.spec.k  # entries per slice of the outermost axis
    size = bs * -(-CERT_MIN_ROWS // bs)
    flat, values, starts = _panel_entries(gram, perm, bs, size, mu)
    panel = np.empty((size, bs + size), dtype=complex)
    factor = None
    try:
        for start, stop in zip(starts[:-1], starts[1:]):
            panel.fill(0.0)
            panel.reshape(-1)[flat[start:stop]] = values[start:stop]
            diag = panel[:, bs:]
            if factor is not None:
                diag[:bs, :bs] -= _schur_update(factor[-bs:, -bs:], panel[:bs, :bs], inner)
            factor = np.linalg.cholesky(diag)
    except np.linalg.LinAlgError:
        return False
    return True


def _tridiagonal(diagonal: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal matrix of ``diagonal`` and ``off``, written
    into one zeroed array by strided assignment."""
    size = len(diagonal)
    out = np.zeros((size, size))
    entries = out.reshape(-1)
    entries[:: size + 1] = diagonal
    entries[1 :: size + 1] = entries[size :: size + 1] = off
    return out


def _top_ritz(diagonal: np.ndarray, off: np.ndarray) -> tuple[float, float, float]:
    """(theta, gap, s) of the symmetric tridiagonal T of ``diagonal`` and
    ``off``: its top eigenvalue, the distance to the next one (inf for a
    1 x 1 T) and |s|, the last entry of the top unit eigenvector.

    Only the eigenvalues come from LAPACK.  s comes from a twisted
    factorization of T - theta I (Parlett and Dhillon, "Fernando's solution
    to Wilkinson's problem", Linear Algebra Appl. 267, 1997): forward
    pivots d_i = a_i - theta - b_{i-1}^2 / d_{i-1}, backward pivots
    e_i = a_i - theta - b_i^2 / e_{i+1}, the twist r at the smallest
    |gamma_r| = |d_r + e_r - (a_r - theta)|, the largest diagonal entry of
    (T - theta I)^{-1}, and from z_r = 1 one backward pass
    z_i = -b_i z_{i+1} / d_i and one forward pass z_i = -b_{i-1} z_{i-1} / e_i,
    both carried as z_i^2; s = |z_m| / ||z||.  The eigenvector's entry at r
    is within about sqrt(m) of its largest, so s is good to about
    eps ||T|| / gap however the pivots round, also once Lanczos has converged and T without its
    last row has a Ritz value within rounding of theta.  A pivot that
    rounds to 0 is taken as -eps ||T||.
    """
    ritz = np.linalg.eigvalsh(_tridiagonal(diagonal, off))
    theta, size = float(ritz[-1]), len(ritz)
    if size == 1:
        return theta, math.inf, 1.0
    tiny = max(sys.float_info.epsilon * max(theta, -float(ritz[0])), sys.float_info.min)
    shifted, squares = (diagonal - theta).tolist(), (off * off).tolist()
    forward, pivot = [], 1.0
    for a, b2 in zip(shifted, [0.0, *squares]):
        pivot = a - b2 / pivot or -tiny
        forward.append(pivot)
    # backward pivots, last row first, and the twist at the first smallest gamma
    backward, pivot, least, twist = [], 1.0, math.inf, 0
    for r, a, b2, d in zip(range(size - 1, -1, -1), shifted[::-1], [0.0, *squares[::-1]], forward[::-1]):
        pivot = a - b2 / pivot or -tiny
        backward.append(pivot)
        gamma = abs(d + pivot - a)
        if gamma <= least:
            least, twist = gamma, r
    backward.reverse()
    # z^2 from z_twist = 1: up to the first row, then down to the last
    norm2 = z2 = 1.0
    for b2, d in zip(reversed(squares[:twist]), reversed(forward[:twist])):
        z2 *= b2 / d / d
        norm2 += z2
    z2 = 1.0
    for b2, e in zip(squares[twist:], backward[twist + 1 :]):
        z2 *= b2 / e / e
        norm2 += z2
    return theta, theta - float(ritz[-2]), math.sqrt(z2 / norm2)


def _lanczos_top(gram: DiagonalOperator) -> tuple[float | None, int]:
    """(top Ritz value, steps) of Lanczos on the Hermitian ``gram`` from a
    seeded start; the value is None when the Ritz pair has not converged
    within LANCZOS_BUDGET steps.

    The plain three-term recurrence keeps two vectors, O(S k^n) memory for
    S diagonals whatever the budget.  Its lost orthogonality only shows once
    a Ritz value has converged (Paige), so the top one converges as it does
    with reorthogonalization.  Converged means the residual rho = beta |s|
    of the top Ritz pair satisfies min(rho, rho^2 / gap) <= theta
    L2_CERT_DELTA / 4, gap being the distance to the next Ritz value; every
    LANCZOS_CHECK steps ``_top_ritz`` reads theta, gap and s off the
    tridiagonal matrix with no eigenvector from LAPACK.  The certificate,
    not this test, decides.
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
            theta, gap, s = _top_ritz(alpha[:steps], beta[: steps - 1])
            rho = float(beta[j]) * s
            if min(rho, rho * rho / gap if gap > 0 else math.inf) <= theta * L2_CERT_DELTA / 4:
                return theta, steps
            if beta[j] == 0:
                break
        w /= beta[j]
        previous, v = v, w
    return None, steps


def _l2_route(op: DiagonalOperator, tol: float) -> L2Reading:
    """The l2 reading of both entry points, its routes tried in the order
    that the module docstring gives."""
    l1, linf = op.l1_norm(), op.linf_norm()
    product = l1 * linf
    # the root of the product where it is a normal float, and the product of
    # the roots where it would underflow to 0 or overflow
    bound = math.sqrt(product) if sys.float_info.min <= product < math.inf else math.sqrt(l1) * math.sqrt(linf)
    if bound <= tol:
        return L2Reading(bound, "interp_bound", bound)
    if op.spec.dim > LAPACK_L2_MAX_DIM:
        steps, interleaving = 0, _interleaving(op)
        if isinstance(interleaving, str):
            failed = f"the certificate needs {interleaving}"
        else:
            # A over 2^e, e the binary exponent of its bound; read scaled back
            exponent = max(math.frexp(bound)[1], -1023)
            scaled = op.scale(math.ldexp(1.0, -exponent))
            gram = scaled.adjoint() @ scaled
            theta, steps = _lanczos_top(gram)
            if theta is None:
                failed = "the convergence test of the top Ritz pair failed"
            else:
                mu = theta * (1.0 + L2_CERT_DELTA)
                if _certify(gram, mu, interleaving):
                    root, upper = math.ldexp(math.sqrt(theta), exponent), math.ldexp(math.sqrt(mu), exponent)
                    return L2Reading(root, "lanczos_certified", upper, steps)
                failed = "the certificate refused theta (1 + L2_CERT_DELTA)"
        if op.spec.dim > DENSE_DIM_CAP:
            raise L2RouteError(
                f"no l2 norm at level k = {op.spec.k}, dimension {op.spec.dim}: {failed} after {steps} Lanczos steps "
                f"(LANCZOS_BUDGET = {LANCZOS_BUDGET}), and the LAPACK fallback needs a dense "
                f"matrix, capped at dimension {DENSE_DIM_CAP}"
            )
    value = float(np.linalg.svd(op.dense(), compute_uv=False)[0])  # the gesdd call of np.linalg.norm(., 2)
    return L2Reading(value, "lapack_svd", value)


def operator_norm(op: DiagonalOperator, kind: NormKind | str) -> float:
    """Operator norm of a DiagonalOperator.

    ``l1`` is the max column absolute sum and ``linf`` the max row absolute
    sum, sums of |D| over the diagonals, exact to rounding and kept on the
    operator once computed (``DiagonalOperator.l1_norm``, ``linf_norm``), so
    a row's l1 and linf and the bound of its l2 reading are one pass each.
    ``l2`` is the largest singular value as an ``L2Reading``, read by the l2
    route with tolerance 0: the interpolation bound answers only for an
    exactly zero operator.
    """
    kind = NormKind(kind) if not isinstance(kind, NormKind) else kind
    if kind is NormKind.L1:
        return op.l1_norm()
    if kind is NormKind.LINF:
        return op.linf_norm()
    return _l2_route(op, 0.0)


# -- error operators ----------------------------------------------------------
#
# Quantization is an exact homomorphism for the convergent products on the
# torus: Q_f Q_g = Q_{star_exact(f, g, 1/k)}, and re-expressing a dual-basis
# matrix in the primary basis gives Q_{berezin_exact(f, 1/k)}.  So each
# truncation error is the Toeplitz operator of a remainder symbol, exact minus
# truncated series at hbar = 1/k: one assembly, no matrix product.  Both sums
# run over the terms of one exact map, and per term the remainder has a
# closed form, the tail of the Taylor series of its phase, so a sweep builds
# the exact map (``starprod.ExactMap``) once and each level is one segmented
# sum of those tails (``ExactMap.remainder``) and the assembly.


def _remainder_at(exact: ExactMap, order: int) -> Callable[[int], DiagonalOperator]:
    """Level k -> wrapped diagonals of the Toeplitz operator of the order-
    ``order`` remainder of ``exact`` at hbar = 1/k."""

    def at(k: int) -> DiagonalOperator:
        return toeplitz_diagonals(exact.remainder(HbarValue(k), order), HilbertSpec(exact.n, k))

    return at


def error_product(f: TrigPoly, g: TrigPoly, order: int, k: int) -> DiagonalOperator:
    """Q_f Q_g - Q_{f *_order g at hbar=1/k} in the position basis.

    Built as the Toeplitz operator of the remainder symbol
    star_exact(f, g, 1/k) - star_truncated(f, g, order)(1/k), which equals
    the difference of the operators to rounding; the symbol is read per term
    pair in closed form (``ExactMap.remainder``), not as that difference.
    """
    return _remainder_at(product_map(f, g), order)(k)


def error_intertwine(f: TrigPoly, order: int | None, k: int) -> DiagonalOperator:
    """Dual-basis quantization re-expressed, minus quantization of the
    Berezin-transformed symbol.

    With an integer ``order`` this is the Toeplitz operator of the remainder
    symbol berezin_exact(f, 1/k) - berezin_truncated(f, order)(1/k).
    ``order=None`` compares the exact transform against the basis change
    itself, intertwine(Q^dual_f) - Q_{berezin_exact f}: two independent
    routes, so it checks the identity the remainder route relies on.
    """
    if order is not None:
        return _remainder_at(berezin_map(f), order)(k)
    return _exact_transform_defect(f, k)


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


def fit_slope(points: Iterable[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of log(error) against log(hbar).

    Points with error at or below ERROR_FLOOR are excluded (they are exact
    zeros); raises TooFewPointsError when fewer than three remain.
    """
    pts = [(float(h), float(e)) for h, e in points]
    usable = [(h, e) for h, e in pts if e > ERROR_FLOOR]
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
    outcome: str  # "fit" | "exact_identity" | "bound" | "violation" | "insufficient_points"
    passed: bool
    slope: float | None = None
    residual: float | None = None
    expected_slope: float | None = None
    window: tuple[float, float] | None = None
    n_excluded: int = 0

    def to_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


@dataclass
class ConvergenceReport:
    experiment: str
    rows: list[SweepPoint]
    series: list[SeriesSummary]
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """Whether every series passed."""
        return all(s.passed for s in self.series)

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


def superpoly_decay_ok(points: Sequence[tuple[int, float]]) -> tuple[bool, bool]:
    """(passed, exact_identity) for a faster-than-k^{-RATE_EXPONENT} claim.

    Scaled values error * k^RATE_EXPONENT must strictly decrease while above
    the error floor; once a value falls to the floor, later ones must stay
    there.  All-floor data is an exact identity and passes vacuously.
    """
    scaled = [(k, e * float(k) ** RATE_EXPONENT, e) for k, e in points]
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


def _within(name: str, readings: Sequence[L2Reading], limit: float, outcome: str = "exact_identity") -> SeriesSummary:
    """An l2 series that passes, reading ``outcome``, when the certified upper
    value (``L2Reading.upper``) of every reading is within ``limit``, and
    reads ``violation`` otherwise."""
    ok = max(r.upper for r in readings) <= limit
    return SeriesSummary(name, NormKind.L2.value, outcome if ok else "violation", ok)


def _rows(ks: Sequence[int], values: Sequence[float], norm_kind: str) -> list[SweepPoint]:
    """One row of ``norm_kind`` per level."""
    return [SweepPoint(k, 1.0 / k, float(v), norm_kind) for k, v in zip(ks, values)]


def _norm_report(
    experiment: str,
    ks: Sequence[int],
    error_at: Callable[[int], DiagonalOperator],
    order: int,
    details: dict,
    extra: Sequence[SeriesSummary] = (),
) -> ConvergenceReport:
    """Rows of the three norms of ``error_at(k)`` per level, one slope fit
    per norm against the order-``order`` window, then the ``extra`` series;
    the details state the ERROR_FLOOR the fits exclude rows at."""
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
    l2 = [norms[NormKind.L2.value] for norms in cells]
    details = {"order": order, "error_floor": ERROR_FLOOR, **details, **_l2_details(ks, l2)}
    return ConvergenceReport(experiment, rows, series, details)


# -- sweeps --------------------------------------------------------------------
#
# One sweep per experiment kind, over realized symbols and explicit levels.
# run_experiment feeds them from a config; the acceptance criteria in
# checks.py feed them their own corpora.


def product_sweep(f: TrigPoly, g: TrigPoly, order: int, ks: Sequence[int]) -> ConvergenceReport:
    """Norms of Q_f Q_g - Q_{f *_order g} per level, slope-fitted per norm."""
    return _norm_report("product", ks, _remainder_at(product_map(f, g), order), order, {})


def intertwine_sweep(f: TrigPoly, order: int, ks: Sequence[int]) -> ConvergenceReport:
    """Norms of the order-``order`` intertwining error per level, slope-fitted
    per norm, plus the exact-transform identity checked in l2 to
    EXACT_TRANSFORM_TOL max(1, ||f||_l1), the ``exact_tolerance`` of the
    details.  The details report each level's l2 value; the identity is
    judged on the certified upper values (``L2Reading.upper``)."""
    tol = EXACT_TRANSFORM_TOL * max(1.0, f.l1_norm())
    readings = [certified_l2_norm(_exact_transform_defect(f, k), tol) for k in ks]
    details = {
        "transform_phase": TRANSFORM_PHASE,
        "exact_errors": [{"k": k, "error": float(e), **e.describe()} for k, e in zip(ks, readings)],
        "exact_max_error": float(max(readings)),
        "exact_tolerance": tol,
    }
    exact = _within("exact_transform", readings, tol)
    return _norm_report("intertwine", ks, _remainder_at(berezin_map(f), order), order, details, [exact])


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
    return ConvergenceReport("trace", _rows(ks, errors, "abs"), [SeriesSummary(name, "abs", outcome, ok)], details)


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
    tol = bound * 1e-10 + 1e-12
    return ConvergenceReport(
        experiment="norm_bound",
        rows=_rows(ks, values, "l2"),
        series=[_within("coefficient_bound", values, bound + tol, "bound")],
        details={
            "bound": bound,
            "max_norm": float(max(values)),
            "max_upper": max(v.upper for v in values),
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


def torus_relation_defects(n: int, k: int) -> L2Reading:
    """The worst quantum-torus relation defect at level k.

    Checks unitarity and k-th powers of each generator, the same-axis
    relation U_i V_i = e^{2 pi i COMMUTATION_SIGN hbar} V_i U_i and
    cross-axis commutation, on the one-diagonal generators and their
    products in wrapped-diagonal form.  Each defect is the operator 2-norm
    of one relation (certified_l2_norm against TORUS_RELATION_TOL); the
    result is the ``L2Reading`` of the largest, with the largest certified
    upper value of all of them as its ``upper``.  Generators that obey the
    opposite sign read |1 - e^{4 pi i hbar}| on the same-axis relation.
    """
    spec = HilbertSpec(n, k, Polarization.POSITION)
    eye = DiagonalOperator.identity(spec)
    phase = complex(np.exp(2j * np.pi * COMMUTATION_SIGN * spec.hbar))
    gens = [torus_generator_diagonals(spec, axis) for axis in range(1, n + 1)]
    defects = []
    for u, v in gens:
        for w in (u, v):
            defects.append(certified_l2_norm(w.adjoint() @ w - eye, TORUS_RELATION_TOL))
            defects.append(certified_l2_norm(_power(w, k) - eye, TORUS_RELATION_TOL))
        defects.append(certified_l2_norm(u @ v - (v @ u).scale(phase), TORUS_RELATION_TOL))
    for (ui, vi), (uj, vj) in itertools.combinations(gens, 2):
        for a, b in ((ui, uj), (vi, vj), (ui, vj), (vi, uj)):
            defects.append(certified_l2_norm(a @ b - b @ a, TORUS_RELATION_TOL))
    worst = max(defects)
    return L2Reading(worst, worst.method, max(d.upper for d in defects), worst.steps)


def torus_relations_sweep(n: int, ks: Sequence[int]) -> ConvergenceReport:
    """Generator relation defects per level, passing when the certified
    upper value of every defect is within TORUS_RELATION_TOL; rows carry the
    worst defect, and the details state COMMUTATION_SIGN and name the l2
    route of each level's worst defect."""
    defects = [torus_relation_defects(n, k) for k in ks]
    return ConvergenceReport(
        experiment="torus_relations",
        rows=_rows(ks, defects, "l2"),
        series=[_within("generator_relations", defects, TORUS_RELATION_TOL)],
        details={
            "commutation_sign": COMMUTATION_SIGN,
            "max_defect": float(max(defects)),
            "tolerance": TORUS_RELATION_TOL,
            **_l2_details(ks, defects),
        },
    )


# -- experiment driver ---------------------------------------------------------


def _expression_mean(spec_f, n: int, k_max: int) -> complex:
    """Reference mean of an expression on a fine grid.

    Uses at least 4x the finest sweep resolution and 1024 points per axis,
    capped so that the points sampled along the axes the expression reads
    stay within funcexpr.SAMPLE_BUDGET; for analytic integrands this
    trapezoid rule is exact to rounding.  The cap bounds time: the mean is
    summed a slab at a time, in funcexpr.SLAB_POINTS memory.  An expression
    that cannot be evaluated on this grid is a ConfigError on f.expr or
    f.expr_im.
    """
    axes = max(len(funcexpr.variables(ast)) for ast in spec_f.asts() if ast is not None)
    m = min(max(4 * k_max, 1024), int(2 ** (math.log2(funcexpr.SAMPLE_BUDGET) / max(axes, 1))))
    return expression_mean(spec_f, n, m + m % 2, "f")


def run_experiment(cfg: ExperimentConfig) -> ConvergenceReport:
    """Realize a config's inputs (``cfg.symbols()``) and run the sweep of its kind.

    An expression is traced as itself, not as its projection, against its
    mean on a fine reference grid (_expression_mean).  A polarization other
    than position is refused, since sweeps fix their own bases.  The
    ``check`` criteria call the same sweeps on their own corpora; see the
    package README for the per-kind row and series layout.
    """
    name = cfg.experiment
    if not cfg.kind.sweep:
        raise ValueError(f"experiment {name!r} is not a sweep; use the star subcommand")
    if cfg.polarization != "position":
        raise ConfigError("polarization", "only the assemble subcommand reads it")
    ks = cfg.k_values()
    if name == "torus_relations":
        return torus_relations_sweep(cfg.n, ks)
    if name == "trace" and cfg.f.kind == "expr":
        reference = _expression_mean(cfg.f, cfg.n, max(ks))
        try:
            return trace_sweep(cfg.f.asts(), ks, reference, cfg.n)
        except funcexpr.EvaluationError as exc:
            raise ConfigError(f"f.{exc.part}", f"{exc} on the level-k lattice") from exc
    symbols = cfg.symbols()
    if name == "product":
        f, g = symbols
        check_pair_product(cfg, f, g)
        return product_sweep(f, g, cfg.order, ks)
    if name == "intertwine":
        return intertwine_sweep(*symbols, cfg.order, ks)
    if name == "trace":
        (f,) = symbols
        if max(ks) <= f.bandwidth():
            raise ConfigError("k_max", f"{max(ks)} is not above f's bandwidth {f.bandwidth()}; "
                              "a band-limited trace judges only the levels above it")
        return trace_sweep(f, ks)
    return norm_bound_sweep(*symbols, ks)
