"""Toeplitz-type quantization of trig polynomials at level k.

At level k (hbar = 1/k) the Hilbert space has an orthonormal basis indexed by
residue classes [m], m in {0..k-1}^n, one basis per polarization choice:

* ``POSITION``: the primary basis, where functions of y act diagonally and
  e^{2 pi i x_i} acts as the cyclic shift [m] -> [m + e_i];
* ``MOMENTUM``: the Fourier-dual basis.

Matrix entries come from the fibrewise coefficients of the symbol evaluated
on the lattice {m/k}:

    POSITION:  A[m, m'] = sum_{r = m - m' (mod k)} f_hat_r(m'/k)
    MOMENTUM:  A[m, m'] = sum_{r = m - m' (mod k)} f_hat_r(m/k)

where f_hat_r(y) is the profile of x-frequency r.  Profiles are 1-periodic,
so evaluating on canonical residue representatives is exact.

Each symbol term (p, q) contributes to one wrapped diagonal, m = m' + p
(mod k), so the operator is stored as its R nonzero diagonals, one per
residue p mod k.  ``toeplitz_diagonals`` builds all of them with one engine:
the amplitudes are aliased into an (R, k^n) grid indexed by
(p mod k, q mod k), and one inverse FFT over the q axes turns each row into
its diagonal, in O(#terms(f) + R k^n log k) time and O(R k^n) memory.  The
diagonal form acts matrix-free (``matvec``, ``rmatvec``) at any dimension
and has an operator algebra closed on diagonals (``@``, ``+``, ``-``,
``scale``, ``adjoint``): a product of R_A and R_B diagonals has at most
R_A R_B, found in O(R_A R_B k^n) time, so the sweeps and the acceptance
checks take their operators, defects and norms from it (see
``analysis.operator_norm``) with no dense product, and the ``assemble``
CSV writer reads its entries off the diagonals.  The flat row index of
every diagonal entry (``rows``) is built on first read, from a per-k
wrapped window (r + arange(k)) % k combined over the axes by broadcasting,
with no modulo pass; an operator whose rows nothing reads never builds
them.  A sum adds each side's diagonals by one fancy-index ``+=`` and an
adjoint moves them by one fancy assignment: each side's residues are
distinct and each diagonal's rows a permutation, so no entry is hit
twice.  ``dense()`` scatters it into an ndarray below ``DENSE_DIM_CAP``.
``assemble_toeplitz`` wraps that matrix as a ``QuantumOperator``, a record
that no package code reads: the tests keep it as an oracle and the
benchmark tracer patches it.  Traces need no operator at all: hbar^n tr Q_f
is ``analysis.lattice_mean(f, k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trigpoly import TrigPoly

# Dense matrices are capped here; beyond it use toeplitz_diagonals (matrix-free).
DENSE_DIM_CAP = 4096


class Polarization(Enum):
    POSITION = "position"
    MOMENTUM = "momentum"


class PolarizationError(ValueError):
    """Operation applied to an operator in the wrong basis."""


@dataclass(frozen=True)
class HilbertSpec:
    """Level-k quantum torus Hilbert space of dimension k^n."""

    n: int
    k: int
    polarization: Polarization = Polarization.POSITION

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if isinstance(self.polarization, str):
            object.__setattr__(self, "polarization", Polarization(self.polarization))
        elif not isinstance(self.polarization, Polarization):
            raise TypeError(f"polarization must be a Polarization, got {self.polarization!r}")

    @property
    def dim(self) -> int:
        return self.k ** self.n

    @property
    def hbar(self) -> float:
        return 1.0 / self.k


class QuantumOperator:
    """Dense matrix of a level-k operator, tagged with its basis: the record
    ``assemble_toeplitz`` returns.  Nothing in the package reads it; the
    tests use it as an oracle and the benchmark tracer still patches it."""

    __slots__ = ("spec", "entries")

    def __init__(self, spec: HilbertSpec, entries):
        entries = np.asarray(entries, dtype=complex)
        if entries.shape != (spec.dim, spec.dim):
            raise ValueError(
                f"entries must have shape ({spec.dim}, {spec.dim}), got {entries.shape}"
            )
        self.spec = spec
        self.entries = entries.copy()
        self.entries.setflags(write=False)

    def _check_compatible(self, other: "QuantumOperator") -> None:
        if self.spec != other.spec:
            raise ValueError(f"operators on different spaces: {self.spec} vs {other.spec}")

    def __matmul__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check_compatible(other)
        return QuantumOperator(self.spec, self.entries @ other.entries)

    def __add__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check_compatible(other)
        return QuantumOperator(self.spec, self.entries + other.entries)

    def __sub__(self, other: "QuantumOperator") -> "QuantumOperator":
        self._check_compatible(other)
        return QuantumOperator(self.spec, self.entries - other.entries)

    def scale(self, value: complex) -> "QuantumOperator":
        return QuantumOperator(self.spec, self.entries * complex(value))

    def __repr__(self) -> str:
        return f"QuantumOperator(n={self.spec.n}, k={self.spec.k}, {self.spec.polarization.value})"


@lru_cache(maxsize=32)
def _wrapped(k: int) -> np.ndarray:
    """(k, k) read-only window with wrapped[r] = (r + arange(k)) % k: row r
    of ``sliding_window_view`` over 0..k-1, 0..k-2, so O(k) memory."""
    return sliding_window_view(np.arange(2 * k - 1) % k, k)


def _shifted_index(n: int, k: int, shifts: np.ndarray) -> np.ndarray:
    """(R, k^n) flat indices of the residues [m' + r], one row per shift r:
    the wrapped rows of each axis combined by broadcasting in row-major
    order (Horner's rule, the last axis fastest), with no modulo; read-only."""
    wrapped = _wrapped(k)
    out = wrapped[shifts[:, 0]]
    for axis in range(1, n):
        out = out[..., None] * k + wrapped[shifts[:, axis]].reshape((-1,) + (1,) * axis + (k,))
    out = out.reshape(len(shifts), k**n)
    out.setflags(write=False)
    return out


def _residue_codes(vectors: np.ndarray, k: int) -> np.ndarray:
    """The flat row-major index of each row's residue mod k (Horner's rule)."""
    codes = vectors[:, 0] % k
    for column in range(1, vectors.shape[1]):
        codes = codes * k + vectors[:, column] % k
    return codes


def _distinct_residues(vectors: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(distinct residues mod k of the rows of ``vectors``, the index of
    each row's residue among them)."""
    n = vectors.shape[1]
    codes = _residue_codes(vectors, k)
    present = np.zeros(k**n, dtype=bool)  # a mark per residue: no sort
    present[codes] = True
    rank = np.cumsum(present) - 1
    distinct = np.flatnonzero(present)
    residues = np.empty((len(distinct), n), dtype=np.int64)
    for column in range(n - 1, -1, -1):  # the digits, the last one first
        distinct, residues[:, column] = np.divmod(distinct, k)
    return residues, rank[codes]


class DiagonalOperator:
    """Level-k operator stored as its R nonzero wrapped diagonals.

    ``shifts`` is an (R, n) int array of distinct residues r in
    {0..k-1}^n and ``values`` an (R, k^n) complex array: column m' holds
    values[i, m'] in row [m' + shifts[i]] and nothing else.  ``rows`` is
    that row as a flat index, an (R, k^n) array built on first read from
    the wrapped window of ``_shifted_index``, so an operator whose rows
    nothing reads (the inputs of a difference or of ``intertwine``, an
    operator normed only in l1) never builds them.  R <= k^n, and R is at
    most the number of x-frequencies of the symbol.
    """

    __slots__ = ("spec", "shifts", "values", "_rows", "_conj", "_l1", "_linf")

    def __init__(self, spec: HilbertSpec, shifts, values):
        shifts = np.asarray(shifts, dtype=np.int64).reshape(-1, spec.n)
        values = np.asarray(values, dtype=complex)
        if values.shape != (len(shifts), spec.dim):
            raise ValueError(f"values must have shape ({len(shifts)}, {spec.dim}), got {values.shape}")
        shifts = shifts % spec.k
        if len(set(_residue_codes(shifts, spec.k).tolist())) != len(shifts):
            raise ValueError("shifts must be distinct residues mod k")
        self._set(spec, shifts, values.copy(), None)

    def _set(self, spec: HilbertSpec, shifts: np.ndarray, values: np.ndarray, rows: np.ndarray | None) -> None:
        self.spec, self.shifts, self.values, self._rows = spec, shifts, values, rows
        shifts.setflags(write=False)
        values.setflags(write=False)
        self._conj = None  # values.conj(), made by the first rmatvec
        self._l1 = self._linf = None  # the norms, made by their first call

    @classmethod
    def _from_arrays(cls, spec: HilbertSpec, shifts: np.ndarray, values: np.ndarray, rows=None) -> "DiagonalOperator":
        """Wrap arrays this module has just built, with no copy and no check:
        ``shifts`` distinct residues in {0..k-1}^n (int64), ``values`` an
        (R, k^n) complex128 array no one else writes, and ``rows`` their
        flat row indices when the caller already has them (None builds them
        on first read)."""
        out = object.__new__(cls)
        out._set(spec, shifts, values, rows)
        return out

    @property
    def rows(self) -> np.ndarray:
        """The (R, k^n) flat row indices, read-only, built on first read."""
        if self._rows is None:
            self._rows = _shifted_index(self.spec.n, self.spec.k, self.shifts)
        return self._rows

    def matvec(self, x) -> np.ndarray:
        """A x for a length-k^n vector x."""
        x = np.asarray(x)
        out = np.zeros(self.spec.dim, dtype=complex)
        for rows, values in zip(self.rows, self.values):
            out[rows] += values * x  # rows is a permutation: no repeated index
        return out

    def rmatvec(self, y) -> np.ndarray:
        """A* y (the conjugate transpose) for a length-k^n vector y.  The
        conjugated values are kept after the first call: the values are
        read-only, and an iteration calls this once per step.  y is
        gathered as a complex copy and the conjugated values, taken first,
        are multiplied into it, so a call makes one array the size of the
        values."""
        if self._conj is None:
            self._conj = self.values.conj()
        gathered = np.asarray(y, dtype=complex)[self.rows]
        return np.multiply(self._conj, gathered, out=gathered).sum(axis=0)

    def l1_norm(self) -> float:
        """The largest column absolute sum, a sum of |values| over the
        diagonals; kept once computed, as the values are read-only and every
        operation returns a new operator."""
        if self._l1 is None:
            self._l1 = float(np.abs(self.values).sum(axis=0).max(initial=0.0))
        return self._l1

    def linf_norm(self) -> float:
        """The largest row absolute sum, |values| summed into their rows;
        kept once computed, as ``l1_norm`` is."""
        if self._linf is None:
            weights = np.abs(self.values).ravel()
            self._linf = float(np.bincount(self.rows.ravel(), weights, self.spec.dim).max())
        return self._linf

    @classmethod
    def identity(cls, spec: HilbertSpec) -> "DiagonalOperator":
        return cls(spec, np.zeros((1, spec.n), dtype=np.int64), np.ones((1, spec.dim)))

    def _check_compatible(self, other: "DiagonalOperator") -> None:
        if self.spec != other.spec:
            raise ValueError(f"operators on different spaces: {self.spec} vs {other.spec}")

    def __matmul__(self, other: "DiagonalOperator") -> "DiagonalOperator":
        """Diagonal r of self after diagonal s of other lands on shift r + s
        with values self.values[r][other.rows[s]] * other.values[s].  One
        diagonal r of self at a time: its targets r + s are distinct, so a
        fancy-index ``+=`` adds them, the diagonals of self in order."""
        self._check_compatible(other)
        sums = self.shifts[:, None, :] + other.shifts[None, :, :]
        shifts, which = _distinct_residues(sums.reshape(-1, self.spec.n), self.spec.k)
        out = np.zeros((len(shifts), self.spec.dim), dtype=complex)
        for targets, values in zip(which.reshape(sums.shape[:2]), self.values):
            gathered = values[other.rows]
            out[targets] += np.multiply(gathered, other.values, out=gathered)
        return DiagonalOperator._from_arrays(self.spec, shifts, out)

    def __add__(self, other: "DiagonalOperator") -> "DiagonalOperator":
        return self._plus(other, other.values)

    def __sub__(self, other: "DiagonalOperator") -> "DiagonalOperator":
        return self._plus(other, -other.values)

    def _plus(self, other: "DiagonalOperator", values: np.ndarray) -> "DiagonalOperator":
        """self plus the diagonals ``values`` at the shifts of other, the
        diagonals of equal residues summed, self's first."""
        self._check_compatible(other)
        shifts, which = _distinct_residues(np.concatenate([self.shifts, other.shifts]), self.spec.k)
        out = np.zeros((len(shifts), self.spec.dim), dtype=complex)
        # each side's residues are distinct, so no target repeats within a +=
        out[which[: len(self.shifts)]] += self.values
        out[which[len(self.shifts) :]] += values
        return DiagonalOperator._from_arrays(self.spec, shifts, out)

    def scale(self, value: complex) -> "DiagonalOperator":
        return DiagonalOperator._from_arrays(self.spec, self.shifts, self.values * complex(value), self._rows)

    def adjoint(self) -> "DiagonalOperator":
        """The conjugate transpose: diagonal r becomes diagonal -r, entry
        values[r, m'] moving to column [m' + r].  Every row of ``rows`` is a
        permutation, so one assignment fills every entry."""
        values = np.empty_like(self.values)
        values[np.arange(len(self.shifts))[:, None], self.rows] = self.values.conj()
        return DiagonalOperator._from_arrays(self.spec, -self.shifts % self.spec.k, values)

    def dense(self) -> np.ndarray:
        """The dense matrix: a scatter of the diagonals (below the dense cap)."""
        dim = self.spec.dim
        if dim > DENSE_DIM_CAP:
            raise ValueError(
                f"dimension {dim} exceeds the dense cap {DENSE_DIM_CAP}; "
                "use toeplitz_diagonals, whose matvec and rmatvec need no matrix"
            )
        A = np.zeros((dim, dim), dtype=complex)
        A.reshape(-1)[(self.rows * dim + np.arange(dim)).ravel()] = self.values.ravel()
        return A


def toeplitz_diagonals(f: TrigPoly, spec: HilbertSpec) -> DiagonalOperator:
    """Wrapped diagonals of the Toeplitz operator of f at level spec.k.

    Term (p, q, c) sends column m' to row [m' + p] with entry
    c e^{2 pi i hbar q.m'} in POSITION.  So the diagonal of residue r is
    the unscaled inverse DFT of the amplitudes with p = r (mod k), aliased
    by q mod k: one ``np.add.at`` in key order puts the terms into an
    (R, k^n) grid indexed by (p mod k, q mod k), and one
    ``np.fft.ifftn`` over the q axes (``norm="forward"``, which leaves the
    inverse unscaled) gives every diagonal, in O(#terms + R k^n log k)
    time and O(R k^n) memory.  MOMENTUM puts the phase at m = m' + p
    instead, and e^{2 pi i hbar q.p} depends on p mod k only, so its
    diagonal r is the POSITION one read at [m' + r].  Entries match the
    per-term sums to rounding (a few ulps of ||f||_l1); a single term per
    grid cell, such as a constant or a unit shift, comes out exact.
    """
    if f.n != spec.n:
        raise ValueError(f"symbol has n={f.n}, space has n={spec.n}")
    n, k, dim = spec.n, spec.k, spec.dim
    shifts, which = _distinct_residues(f.keys[:, :n], k)
    grid = np.zeros((len(shifts), dim), dtype=complex)
    cells = _residue_codes(f.keys[:, n:], k)
    np.add.at(grid.reshape(-1), which * dim + cells, f.values)
    axes = tuple(range(1, n + 1))
    values = np.fft.ifftn(grid.reshape((-1,) + (k,) * n), axes=axes, norm="forward").reshape(-1, dim)
    if spec.polarization is not Polarization.MOMENTUM:
        return DiagonalOperator._from_arrays(spec, shifts, values)
    rows = _shifted_index(n, k, shifts)
    return DiagonalOperator._from_arrays(spec, shifts, np.take_along_axis(values, rows, axis=1), rows)


def assemble_toeplitz(f: TrigPoly, spec: HilbertSpec) -> QuantumOperator:
    """Dense Toeplitz matrix of the symbol f at level spec.k (a test oracle)."""
    return QuantumOperator(spec, toeplitz_diagonals(f, spec).dense())


def intertwine(op: DiagonalOperator) -> DiagonalOperator:
    """Re-express a MOMENTUM-basis operator on the POSITION-basis space.

    The pairing between the two bases matches the mth dual vector with the
    mth primary vector, so the diagonals are unchanged; only the tag flips.
    Applying it to a POSITION operator is an error.
    """
    if op.spec.polarization is not Polarization.MOMENTUM:
        raise PolarizationError("intertwine expects a MOMENTUM-basis operator")
    target = HilbertSpec(op.spec.n, op.spec.k, Polarization.POSITION)
    return DiagonalOperator._from_arrays(target, op.shifts, op.values, op._rows)


def torus_generator_diagonals(spec: HilbertSpec, axis: int) -> tuple[DiagonalOperator, DiagonalOperator]:
    """Quantized unit harmonics (U_i, V_i) for 1-based axis i, one wrapped
    diagonal each.

    U_i quantizes e^{2 pi i x_i} (a cyclic shift), V_i quantizes
    e^{2 pi i y_i} (a clock diagonal); they satisfy
    U_i V_i = e^{-2 pi i hbar} V_i U_i and commute across distinct axes.
    """
    if not 1 <= axis <= spec.n:
        raise ValueError(f"axis must be in 1..{spec.n}, got {axis}")
    e = tuple(1 if j == axis - 1 else 0 for j in range(spec.n))
    zero = (0,) * spec.n
    u = toeplitz_diagonals(TrigPoly.harmonic(spec.n, e, zero), spec)
    v = toeplitz_diagonals(TrigPoly.harmonic(spec.n, zero, e), spec)
    return u, v


def operator_to_csv(op: DiagonalOperator) -> str:
    """CSV dump "row,col,re,im" of nonzero entries in row-major order, read
    off the diagonals: each value sits at flat index row * dim + column,
    and one stable argsort of those indices gives the row-major order."""
    dim = op.spec.dim
    flat = (op.rows * dim + np.arange(dim)).ravel()
    values = op.values.ravel()
    keep = np.flatnonzero(values)
    order = keep[np.argsort(flat[keep], kind="stable")]
    rows, cols = np.divmod(flat[order], dim)
    values = values[order]
    lines = ["row,col,re,im"]
    for r, c, re, im in zip(rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist()):
        lines.append(f"{r},{c},{re!r},{im!r}")
    return "\n".join(lines) + "\n"


def write_operator_csv(op: DiagonalOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(operator_to_csv(op))
