"""PSUSY oscillator Hamiltonian and annihilation operator on boson⊗parafermion space.

Tensor layout is boson-major: the flat index of |n_b>|n_f> is
``n_b * (p + 1) + n_f``, matching ``np.kron(boson, parafermion)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _ladder_table, _sqrt_levels
from .errors import FloatRangeError

__all__ = [
    "PsusyHamiltonian",
    "AnnihilatorA",
    "build_hamiltonian",
    "degeneracy_profile",
    "build_annihilator",
    "verify_eigenstate",
]


@dataclass(frozen=True)
class PsusyHamiltonian:
    """omega * (a†a + 1/2) ⊗ I - omega * I ⊗ J3, diagonal in the Fock basis.

    Only the diagonal is stored: ``energies[n_b * (p + 1) + n_f]`` is
    omega * (n_b + 1/2 - p/2 + n_f).
    """

    omega: float
    p: int
    n_max: int
    energies: np.ndarray


@dataclass(frozen=True)
class AnnihilatorA:
    """a ⊗ I + (a†)^(p-1)/p! ⊗ (b†)^p, applied without forming a matrix.

    The second term has a single parafermionic matrix element p! sending
    |n_f = p> to |n_f = 0> while raising the boson number by p - 1, which is
    what lets eigenvectors mix the n_f = 0 and n_f = p towers.
    """

    p: int
    n_max: int

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """A|psi> in O(n_max * (p + 1)) time and memory.

        Terms raised past the boson cutoff are dropped, exactly as in the
        truncated dense matrix.  A 2-D ``psi`` is a stack of vectors, one
        per row, and gives one row each.
        """
        p, n_max = self.p, self.n_max
        psi = np.asarray(psi)
        rows = psi.shape[:-1] if psi.ndim == 2 else ()
        x = psi.reshape(rows + (n_max, p + 1))
        out = np.zeros(x.shape, dtype=np.result_type(x, float))
        # a ⊗ I: level n + 1 -> n with weight sqrt(n + 1), in every column.
        out[..., :-1, :] = _ladder_table(_sqrt_levels, n_max - 1)[:, None] * x[..., 1:, :]
        # (a†)^(p-1) ⊗ |0><p|: level n -> n + p - 1 with weight
        # sqrt((n + p - 1)!/n!); the p! of (b†)^p cancels the 1/p!.
        kept = n_max - p + 1
        out[..., p - 1 :, 0] += _ladder_table(_raise_weights, kept, p) * x[..., :kept, p]
        return out.reshape(rows + (-1,))


def _raise_weights(n: int, p: int) -> np.ndarray:
    """prod_{j=1..p-1} sqrt(m + j) for m = 0..n-1, the raising weights of A."""
    levels = np.arange(n, dtype=float)
    return np.prod(np.sqrt(levels[:, None] + np.arange(1, p)), axis=1)


def _check_dimensions(p: int, n_max: int) -> None:
    if not isinstance(p, (int, np.integer)) or p < 1:
        raise ValueError(f"parafermion order must be a positive integer, got {p!r}")
    if not isinstance(n_max, (int, np.integer)) or n_max < p + 2:
        raise ValueError(f"need an integer n_max >= p + 2, got n_max={n_max!r}, p={p}")


def build_hamiltonian(omega: float, p: int, n_max: int) -> PsusyHamiltonian:
    """Oscillator-plus-spin Hamiltonian with eigenvalues omega*(n_b + 1/2 - m).

    Raises FloatRangeError where an energy would leave the float range.
    """
    if not omega > 0:  # nan too
        raise ValueError(f"omega must be positive, got {omega}")
    _check_dimensions(p, n_max)
    if not omega * (n_max + p) < math.inf:  # a bound on every |energy|
        raise FloatRangeError(f"the energies at omega={omega:g} leave the float range")
    m = p / 2.0 - np.arange(p + 1, dtype=float)
    energies = omega * np.subtract.outer(np.arange(n_max) + 0.5, m).reshape(-1)
    energies.setflags(write=False)
    return PsusyHamiltonian(float(omega), int(p), int(n_max), energies)


def degeneracy_profile(h: PsusyHamiltonian) -> list[tuple[float, int]]:
    """Sorted (energy, multiplicity) pairs of the Hamiltonian spectrum.

    H is diagonal in the Fock basis, so its spectrum is its sorted diagonal.
    A step of more than 1e-9 * omega between sorted eigenvalues starts a new
    level, reported at its mean.  Away from the truncation boundary the
    multiplicities are n+1 for the levels n = 0..p-1 and p+1 from level p on.
    """
    if h.n_max < 2 * h.p + 2:
        raise ValueError("degeneracy profile needs n_max >= 2p + 2")
    evals = np.sort(h.energies)
    steps = (np.flatnonzero(np.diff(evals) > 1e-9 * h.omega) + 1).tolist()
    bounds = [0, *steps, len(evals)]
    # np.add.reduce over the count is np.mean's own arithmetic; np.add.reduceat
    # sums a level of 8 or more energies in another order
    return [
        (float(np.add.reduce(evals[a:b]) / (b - a)), b - a) for a, b in zip(bounds, bounds[1:])
    ]


def build_annihilator(p: int, n_max: int) -> AnnihilatorA:
    """PSUSY annihilation operator on the truncated tensor space."""
    _check_dimensions(p, n_max)
    return AnnihilatorA(int(p), int(n_max))


def verify_eigenstate(a_op: AnnihilatorA, state: np.ndarray, z):
    """2-norm of A|state> - z|state> for a normalized state vector.

    A (k, dim) stack of states with a z array of k entries gives an array of
    k residuals; each row's norms are taken as for the state alone.  Raises
    FloatRangeError where the residual is not finite: a nan or inf z, or one
    past the square range.
    """
    state = np.asarray(state)
    dim = a_op.n_max * (a_op.p + 1)
    stacked = state.ndim == 2 and state.shape[1] == dim
    if not stacked and state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},) or (k, {dim})")
    # a norm past the float range comes out inf or nan, classified below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norms(state)
        for norm in norms.tolist() if stacked else (norms,):
            if not abs(norm - 1.0) <= 1e-6:  # nan too
                raise ValueError(f"state is not normalized: ||state|| = {norm:.6g}")
        shift = np.asarray(z)[:, None] if stacked else z
        residual = _norms(a_op.apply(state) - shift * state)
    if not (np.isfinite(residual).all() if stacked else math.isfinite(residual)):
        raise FloatRangeError("the eigen-residual ||A|psi> - z|psi>|| leaves the float range")
    return residual


def _norms(vectors: np.ndarray):
    """The 2-norm of a vector as a float, or of each row of a stack as an array.

    Each norm is ``np.linalg.norm``'s of the vector or row, bit for bit: for
    a contiguous complex vector that is sqrt(x.real . x.real + x.imag .
    x.imag), and ``vecdot`` runs the same BLAS ``ddot`` on each row, at the
    same strides once the rows are contiguous (``np.linalg.norm(axis=1)``
    sums differently).
    """
    vectors = np.ascontiguousarray(vectors)  # as np.linalg.norm ravels a row
    re, im = vectors.real, vectors.imag
    norms = np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return norms if vectors.ndim > 1 else float(norms)
