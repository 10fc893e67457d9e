"""PSUSY oscillator Hamiltonian and annihilation operator on boson⊗parafermion space.

Tensor layout is boson-major: the flat index of |n_b>|n_f> is
``n_b * (p + 1) + n_f``, matching ``np.kron(boson, parafermion)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import build_boson, build_parafermi, float_factorial

__all__ = [
    "PsusyHamiltonian",
    "AnnihilatorA",
    "flat_index",
    "split_index",
    "build_hamiltonian",
    "degeneracy_profile",
    "build_annihilator",
    "verify_eigenstate",
]


def flat_index(n_b: int, n_f: int, p: int) -> int:
    """Flat tensor index of |n_b>|n_f> in the boson-major layout."""
    if not 0 <= n_f <= p:
        raise ValueError(f"n_f={n_f} outside 0..{p}")
    if n_b < 0:
        raise ValueError(f"n_b={n_b} negative")
    return n_b * (p + 1) + n_f


def split_index(i: int, p: int) -> tuple[int, int]:
    """Inverse of :func:`flat_index`: flat index -> (n_b, n_f)."""
    return divmod(i, p + 1)


@dataclass(frozen=True)
class PsusyHamiltonian:
    """omega * (a†a + 1/2) ⊗ I - omega * I ⊗ J3, diagonal in the Fock basis."""

    omega: float
    p: int
    n_max: int
    matrix: np.ndarray


@dataclass(frozen=True)
class AnnihilatorA:
    """a ⊗ I + (a†)^(p-1)/p! ⊗ (b†)^p.

    The second term has a single parafermionic matrix element p! sending
    |n_f = p> to |n_f = 0> while raising the boson number by p - 1, which is
    what lets eigenvectors mix the n_f = 0 and n_f = p towers.
    """

    p: int
    n_max: int
    matrix: np.ndarray


def build_hamiltonian(omega: float, p: int, n_max: int) -> PsusyHamiltonian:
    """Oscillator-plus-spin Hamiltonian with eigenvalues omega*(n_b + 1/2 - m)."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    if n_max < p + 2:
        raise ValueError(f"need n_max >= p + 2, got n_max={n_max}, p={p}")
    boson = build_boson(n_max)
    pf = build_parafermi(p)
    eye_b = np.eye(n_max, dtype=complex)
    eye_f = np.eye(p + 1, dtype=complex)
    h = omega * (
        np.kron(boson.number_op + 0.5 * eye_b, eye_f) - np.kron(eye_b, pf.j3)
    )
    h.setflags(write=False)
    return PsusyHamiltonian(float(omega), int(p), int(n_max), h)


def degeneracy_profile(h: PsusyHamiltonian) -> list[tuple[float, int]]:
    """Sorted (energy, multiplicity) pairs of the Hamiltonian spectrum.

    H is diagonal in the Fock basis, so its spectrum is its sorted diagonal.
    Eigenvalues closer than 1e-9 * omega are grouped into one level.  Away
    from the truncation boundary the multiplicities are n+1 for the levels
    n = 0..p-1 and p+1 from level p on.
    """
    if h.n_max < 2 * h.p + 2:
        raise ValueError("degeneracy profile needs n_max >= 2p + 2")
    evals = np.sort(h.matrix.diagonal().real)
    gap = 1e-9 * h.omega
    profile: list[tuple[float, int]] = []
    group_start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[group_start] > gap:
            group = evals[group_start:i]
            profile.append((float(np.mean(group)), len(group)))
            group_start = i
    return profile


def build_annihilator(p: int, n_max: int) -> AnnihilatorA:
    """PSUSY annihilation operator on the truncated tensor space."""
    if n_max < p + 2:
        raise ValueError(f"need n_max >= p + 2, got n_max={n_max}, p={p}")
    boson = build_boson(n_max)
    pf = build_parafermi(p)
    eye_f = np.eye(p + 1, dtype=complex)
    a_dag_pow = np.linalg.matrix_power(boson.a_dag, p - 1)
    b_dag_pow = np.linalg.matrix_power(pf.b_dag, p)
    mat = np.kron(boson.a, eye_f) + np.kron(
        a_dag_pow / float_factorial(p), b_dag_pow
    )
    mat.setflags(write=False)
    return AnnihilatorA(int(p), int(n_max), mat)


def verify_eigenstate(a_op: AnnihilatorA, state: np.ndarray, z: complex) -> float:
    """2-norm of A|state> - z|state> for a normalized state vector."""
    state = np.asarray(state)
    dim = a_op.n_max * (a_op.p + 1)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized: ||state|| = {norm:.6g}")
    return float(np.linalg.norm(a_op.matrix @ state - z * state))
