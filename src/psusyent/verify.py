"""Self-verification suites wrapping the library invariants for the CLI.

Each suite is a generator of residuals; :func:`run_all` times it and
counts a check as passed when its residual is at most the tolerance.
The per-state residuals (:func:`eigenstate_residual`,
:func:`consistency_residuals`, :func:`route_spread`) and the sampler
:func:`random_states` are public so the tests check the same quantities.
The residuals also take a stack of states of one order p and give one
value per state; the per-state suites check their random states so, one
stack per order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .algebra import (
    _derivative_tower,
    _largest_cutoff,
    build_boson,
    build_parafermi,
    check_algebra,
    coherent_vector,
    default_n_max,
)
from .coherent import (
    AlphaProfile,
    _col,
    beta_coefficients,
    bosonic_weight_sum,
    build_state,
    qubit_bases,
)
from .entanglement import concurrence_routes, entanglement_of_formation
from .errors import TruncationError
from .model import (
    _norms,
    build_annihilator,
    build_hamiltonian,
    degeneracy_profile,
    verify_eigenstate,
)

__all__ = [
    "RunReport", "run_all", "SUITES",
    "random_states", "eigenstate_residual", "consistency_residuals", "route_spread",
]

_Z_SAMPLES = (0.7, 1.0 + 0.5j, 2.0 - 1.0j, 0.0 + 2.4j, 3.0)


@dataclass(frozen=True)
class RunReport:
    """Outcome of one verification suite."""

    name: str
    passed: int
    failed: int
    max_residual: float
    wall_time: float

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _draws(rng: np.random.Generator, count: int, p_max: int, z_max: float):
    """(p, z, profile) of ``count`` random explicit-profile states.

    Each uniform draw is numpy's ``rng.uniform(low, high)`` written out,
    low + (high - low) * ``rng.random()``: the same bits from the same
    stream, at less cost per call.
    """
    for _ in range(count):
        p = int(rng.integers(1, p_max + 1))
        z = z_max * rng.random() * np.exp(2j * np.pi * rng.random())
        alphas = [-2.0 + 4.0 * u for u in rng.random(p + 1).tolist()]
        # keep alpha_p away from zero so every branch of the state is populated;
        # the sign takes the draw rng.choice([-1.0, 1.0]) would, at less cost
        alphas[p] = (0.2 + (2.0 - 0.2) * rng.random()) * (-1.0, 1.0)[rng.integers(0, 2)]
        yield p, z, AlphaProfile.explicit(alphas)


def random_states(rng: np.random.Generator, count: int, p_max: int, z_max: float):
    """Yield ``count`` random explicit-profile states, p <= p_max and |z| <= z_max.

    Each state is built alone, at its own default cutoff.
    """
    for p, z, profile in _draws(rng, count, p_max, z_max):
        yield build_state(p, z, profile)


def _random_stacks(rng: np.random.Generator, count: int, p_max: int, z_max: float):
    """The draws of :func:`random_states` (same rng stream), one stack per order p."""
    orders: dict[int, tuple[list, list]] = {}
    for p, z, profile in _draws(rng, count, p_max, z_max):
        zs, profiles = orders.setdefault(p, ([], []))
        zs.append(z)
        profiles.append(profile)
    for p, (zs, profiles) in sorted(orders.items()):
        yield build_state(p, np.array(zs), profiles)


def eigenstate_residual(state):
    """||A|Z> - z|Z>|| of ``state``; an array, one per state, over a stack.

    Raises TruncationError where the cutoff leaves a state's norm short of 1
    by more than :func:`verify_eigenstate` allows.
    """
    a_op = build_annihilator(state.p, state.n_max)
    try:
        return verify_eigenstate(a_op, state.full_vector, state.z)
    except ValueError:
        for norm in np.atleast_1d(_norms(state.full_vector)).tolist():
            if norm < 1.0 - 1e-6:
                needed = _largest_cutoff(state.closed_form.z_abs, state.p)
                raise TruncationError(
                    f"state norm {norm:.10g} is short of 1 at n_max={state.n_max}; "
                    f"increase n_max to {needed}", needed
                ) from None
        raise


def _tensor(b: np.ndarray, f: np.ndarray) -> np.ndarray:
    """b ⊗ f of a boson and a parafermion vector (or of each row of two
    stacks), laid out as np.kron lays it."""
    return (b[..., :, None] * f[..., None, :]).reshape(b.shape[:-1] + (-1,))


def consistency_residuals(state):
    """Unit norm, a01 = 0, and the distance of the full vector from its
    beta-tower assembly and from its qubit-basis reconstruction.

    Over a stack each of the four is an array, one value per state.
    """
    p, z, n_max = state.p, state.z, state.n_max
    full = state.full_vector
    # beta_{k,n} is the amplitude of |n-k>_b |k>_f
    beta = beta_coefficients(state)
    from_beta = np.zeros(np.shape(z) + (n_max, p + 1), dtype=complex)
    for k in range(p + 1):
        from_beta[..., : n_max - k, k] = beta[..., k, k:]

    bases = qubit_bases(state)
    amps = state.qubit_amps
    # a (k, 4) array over a stack: its columns are the amplitudes of each state
    a00, a01, a10, a11 = amps.T if isinstance(amps, np.ndarray) else amps
    recon = (
        _col(a00) * _tensor(bases.b0, bases.f0)
        + _col(a01) * _tensor(bases.b0, bases.f1)
        + _col(a10) * _tensor(bases.b1, bases.f0)
        + _col(a11) * _tensor(bases.b1, bases.f1)
    )
    return (
        abs(_norms(full) - 1.0),
        abs(a01),
        _norms(from_beta.reshape(full.shape) - full),
        _norms(recon - full),
    )


def route_spread(state):
    """Largest minus smallest concurrence over the four routes; an array over a stack."""
    spread = np.ptp(list(concurrence_routes(state).values()), axis=0)
    return spread if spread.ndim else float(spread)


def suite_parafermi_algebra(p_max: int, rng):
    for p in range(1, p_max + 1):
        yield from check_algebra(build_parafermi(p)).residuals.values()


def suite_boson_truncation(p_max: int, rng):
    for n_max in (2, 8, 32):
        ops = build_boson(n_max)
        number = ops.a_dag @ ops.a
        block = (ops.a @ ops.a_dag - number)[: n_max - 1, : n_max - 1] - np.eye(n_max - 1)
        yield float(np.abs(block).max())
        yield float(np.abs(number - ops.number_op).max())


def suite_coherent_identities(p_max: int, rng):
    for z in _Z_SAMPLES:
        # each order reads a prefix of the longest vector, bit-identical to
        # the vector built at its own cutoff
        cutoffs = [default_n_max(z, p) for p in range(1, p_max + 1)]
        longest = coherent_vector(z, max(cutoffs))
        for p, n_max in enumerate(cutoffs, 1):
            coh = longest[:n_max]
            dcoh = _derivative_tower(coh, p, n_max)
            expz2 = math.exp(abs(z) ** 2)
            yield abs(np.vdot(coh, coh) - expz2) / expz2
            overlap = np.vdot(coh, dcoh)
            yield abs(overlap - np.conj(z) ** p * expz2) / expz2
            # the weight series plus its n = p term, |z|^(2p)
            closed = (bosonic_weight_sum(p, abs(z)) + abs(z) ** (2 * p)) * expz2
            yield abs(np.vdot(dcoh, dcoh) - closed) / closed


def suite_spectrum_degeneracy(p_max: int, rng):
    for p in range(1, p_max + 1):
        n_max = 2 * p + 8
        h = build_hamiltonian(1.0, p, n_max)
        profile = degeneracy_profile(h)
        expected = [n + 1 for n in range(p)] + [p + 1] * (n_max - 2 * p)
        observed = [mult for _, mult in profile[: len(expected)]]
        yield 0.0 if observed == expected else 1.0
        energies = np.array([e for e, _ in profile[: len(expected)]])
        target = np.arange(len(expected)) + 0.5 - p / 2.0
        yield float(np.max(np.abs(energies - target)))


def suite_eigenstate_property(p_max: int, rng):
    for stack in _random_stacks(rng, 20, p_max, 3.0):
        yield from eigenstate_residual(stack).tolist()


def suite_state_consistency(p_max: int, rng):
    for stack in _random_stacks(rng, 15, p_max, 2.5):
        for residuals in zip(*(r.tolist() for r in consistency_residuals(stack))):
            yield from residuals


def suite_concurrence_routes(p_max: int, rng):
    for stack in _random_stacks(rng, 25, p_max, 3.0):
        yield from route_spread(stack).tolist()


def suite_eof_curve(p_max: int, rng):
    yield abs(entanglement_of_formation(0.0))
    yield abs(entanglement_of_formation(1.0) - math.log(2.0))
    values = entanglement_of_formation(np.linspace(0.0, 1.0, 1001))
    yield max(0.0, float(np.max(values[:-1] - values[1:])))


SUITES = (
    suite_parafermi_algebra,
    suite_boson_truncation,
    suite_coherent_identities,
    suite_spectrum_degeneracy,
    suite_eigenstate_property,
    suite_state_consistency,
    suite_concurrence_routes,
    suite_eof_curve,
)


def _run_suite(suite, p_max: int, tol: float, rng) -> RunReport:
    t0 = time.perf_counter()
    passed = failed = 0
    max_residual = 0.0
    for residual in suite(p_max, rng):
        max_residual = max(max_residual, residual)
        # a NaN residual fails this comparison and so counts as failed
        if residual <= tol:
            passed += 1
        else:
            failed += 1
    name = suite.__name__.removeprefix("suite_").replace("_", "-")
    return RunReport(name, passed, failed, max_residual, time.perf_counter() - t0)


def run_all(p_max: int, tol: float, seed: int = 20260810) -> list[RunReport]:
    """Run every suite with a fixed seed; one report per suite."""
    rng = np.random.default_rng(seed)
    return [_run_suite(suite, p_max, tol, rng) for suite in SUITES]
