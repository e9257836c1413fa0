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

Each symbol term (p, q) contributes one wrapped diagonal, m = m' + p (mod k),
and one kernel, ``_toeplitz_terms``, builds them for ``assemble_toeplitz``
and the matrix-free ``apply_toeplitz`` in O(#terms(f) * k^n) time, in
key-order blocks of terms whose temporaries stay O(TERM_BLOCK_ENTRIES + k^n);
``np.add.at`` sums each block in key order on 1-D flat indices, its fast path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

from .trigpoly import TrigPoly

# Dense matrices are capped here; beyond it use apply_toeplitz (matrix-free).
DENSE_DIM_CAP = 4096
# Entries per block of symbol terms in the Toeplitz kernel (a few MiB per temporary).
TERM_BLOCK_ENTRIES = 1 << 18


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


@lru_cache(maxsize=32)
def _residue_grid(n: int, k: int) -> np.ndarray:
    """(k^n, n) array of residue vectors in row-major index order."""
    grids = np.meshgrid(*([np.arange(k)] * n), indexing="ij")
    out = np.stack([g.reshape(-1) for g in grids], axis=1)
    out.setflags(write=False)
    return out


def basis_index(spec: HilbertSpec, m: Iterable[int]) -> int:
    """Flat index of the residue class [m]: row-major over {0..k-1}^n."""
    mm = tuple(int(v) % spec.k for v in m)
    if len(mm) != spec.n:
        raise ValueError(f"residue vector has length {len(mm)}, expected {spec.n}")
    return int(np.ravel_multi_index(mm, (spec.k,) * spec.n))


class QuantumState:
    """Amplitude vector over the residue basis of a HilbertSpec."""

    __slots__ = ("spec", "amplitudes")

    def __init__(self, spec: HilbertSpec, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (spec.dim,):
            raise ValueError(f"amplitudes must have shape ({spec.dim},), got {amplitudes.shape}")
        self.spec = spec
        self.amplitudes = amplitudes.copy()
        self.amplitudes.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @classmethod
    def basis_state(cls, spec: HilbertSpec, m: Iterable[int]) -> "QuantumState":
        v = np.zeros(spec.dim, dtype=complex)
        v[basis_index(spec, m)] = 1.0
        return cls(spec, v)


class QuantumOperator:
    """Dense operator on a level-k space, tagged with its basis."""

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

    def apply(self, state: QuantumState) -> QuantumState:
        if state.spec != self.spec:
            raise ValueError("state lives on a different space")
        return QuantumState(self.spec, self.entries @ state.amplitudes)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def __repr__(self) -> str:
        return f"QuantumOperator(n={self.spec.n}, k={self.spec.k}, {self.spec.polarization.value})"


def _check_dense(spec: HilbertSpec) -> None:
    if spec.dim > DENSE_DIM_CAP:
        raise ValueError(
            f"dimension {spec.dim} exceeds the dense cap {DENSE_DIM_CAP}; use apply_toeplitz"
        )


def _toeplitz_terms(f: TrigPoly, spec: HilbertSpec) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Wrapped diagonals of the Toeplitz operator of f, one per symbol term.

    Yields ``(rows, values)``, two (B, k^n) arrays, for consecutive blocks
    of B terms in key order, with B = max(1, TERM_BLOCK_ENTRIES // k^n):
    term (p, q, c) sends column m' to row [m' + p] with entry
    c e^{2 pi i hbar phase}, phase = q.m' (POSITION) or q.(m' + p) (MOMENTUM).
    """
    if f.n != spec.n:
        raise ValueError(f"symbol has n={f.n}, space has n={spec.n}")
    n, k = spec.n, spec.k
    grid = _residue_grid(n, k)  # rows are column residues m'
    block = max(1, TERM_BLOCK_ENTRIES // spec.dim)
    for start in range(0, len(f.values), block):
        p, q = np.hsplit(f.keys[start:start + block], 2)
        rows = np.ravel_multi_index(np.moveaxis((grid + p[:, None, :]) % k, -1, 0), (k,) * n)
        phase = q @ grid.T
        if spec.polarization is Polarization.MOMENTUM:
            # at m/k, unreduced is fine: profiles are 1-periodic
            phase += (p * q).sum(axis=1)[:, None]
        yield rows, f.values[start:start + block, None] * np.exp(2j * np.pi * spec.hbar * phase)


def assemble_toeplitz(f: TrigPoly, spec: HilbertSpec) -> QuantumOperator:
    """Dense Toeplitz matrix of the symbol f at level spec.k."""
    _check_dense(spec)
    A = np.zeros((spec.dim, spec.dim), dtype=complex)
    flat, cols = A.reshape(-1), np.arange(spec.dim)
    for rows, values in _toeplitz_terms(f, spec):
        np.add.at(flat, (rows * spec.dim + cols).ravel(), values.ravel())
    return QuantumOperator(spec, A)


def apply_toeplitz(f: TrigPoly, state: QuantumState) -> QuantumState:
    """Matrix-free action of the Toeplitz operator of f on a state.

    Builds the same wrapped diagonals as assembly but not the dense matrix,
    so it works above the dense cap.
    """
    out = np.zeros(state.spec.dim, dtype=complex)
    for rows, values in _toeplitz_terms(f, state.spec):
        np.add.at(out, rows.ravel(), (values * state.amplitudes).ravel())
    return QuantumState(state.spec, out)


def intertwine(op: QuantumOperator) -> QuantumOperator:
    """Re-express a MOMENTUM-basis operator on the POSITION-basis space.

    The pairing between the two bases matches the mth dual vector with the
    mth primary vector, so the matrix entries are unchanged; only the tag
    flips.  Applying it to a POSITION operator is an error.
    """
    if op.spec.polarization is not Polarization.MOMENTUM:
        raise PolarizationError("intertwine expects a MOMENTUM-basis operator")
    target = HilbertSpec(op.spec.n, op.spec.k, Polarization.POSITION)
    return QuantumOperator(target, op.entries)


def quantum_torus_generators(spec: HilbertSpec, axis: int) -> tuple[QuantumOperator, QuantumOperator]:
    """Quantized unit harmonics (U_i, V_i) for 1-based axis i.

    U_i quantizes e^{2 pi i x_i} (a cyclic shift), V_i quantizes
    e^{2 pi i y_i} (a clock diagonal); they satisfy
    U_i V_i = e^{-2 pi i hbar} V_i U_i and commute across distinct axes.
    """
    if not 1 <= axis <= spec.n:
        raise ValueError(f"axis must be in 1..{spec.n}, got {axis}")
    e = tuple(1 if j == axis - 1 else 0 for j in range(spec.n))
    zero = (0,) * spec.n
    u = assemble_toeplitz(TrigPoly.harmonic(spec.n, e, zero), spec)
    v = assemble_toeplitz(TrigPoly.harmonic(spec.n, zero, e), spec)
    return u, v


def operator_to_csv(op: QuantumOperator) -> str:
    """CSV dump "row,col,re,im" of nonzero entries in row-major order."""
    rows, cols = np.nonzero(op.entries)
    values = op.entries[rows, cols]
    lines = ["row,col,re,im"]
    for r, c, re, im in zip(rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist()):
        lines.append(f"{r},{c},{re!r},{im!r}")
    return "\n".join(lines) + "\n"


def write_operator_csv(op: QuantumOperator, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(operator_to_csv(op))
