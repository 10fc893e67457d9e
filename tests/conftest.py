import numpy as np
import pytest

from psusyent import AlphaProfile, algebra, build_boson, build_parafermi
from psusyent.algebra import float_factorial


def random_explicit_profile(rng, p, alpha_p_min=0.2):
    """Random real profile with alpha_p bounded away from zero."""
    alphas = rng.uniform(-2.0, 2.0, size=p + 1)
    alphas[p] = rng.uniform(alpha_p_min, 2.0) * rng.choice([-1.0, 1.0])
    return AlphaProfile.explicit(alphas)


def random_z(rng, z_max):
    return rng.uniform(0.0, z_max) * np.exp(2j * np.pi * rng.uniform())


def hamiltonian_matrix(h):
    """Dense H of a :class:`PsusyHamiltonian`, an oracle for its stored diagonal."""
    return np.diag(h.energies.astype(complex))


def annihilator_matrix(a_op):
    """Dense A = a ⊗ I + (a†)^(p-1)/p! ⊗ (b†)^p, an oracle for ``a_op.apply``."""
    boson = build_boson(a_op.n_max)
    pf = build_parafermi(a_op.p)
    a_dag_pow = np.linalg.matrix_power(boson.a_dag, a_op.p - 1)
    b_dag_pow = np.linalg.matrix_power(pf.b_dag, a_op.p)
    return np.kron(boson.a, np.eye(a_op.p + 1)) + np.kron(
        a_dag_pow / float_factorial(a_op.p), b_dag_pow
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def fresh_ladder_tables():
    """Empty the per-process ladder-table cache before and after the test."""
    algebra._ladder_table_at.cache_clear()
    yield
    algebra._ladder_table_at.cache_clear()
