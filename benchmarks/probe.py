"""Layer-size probe: each layer on its own at p in {1,3,8} x |z| in {1,5,20}.

It runs once per traced run and is reported beside, not inside, the gated
metrics.  Each layer is called as a user would call it, with default
arguments.  A layer that fails records ``{"error": "<Type>"}``, so a later
fix shows up as a new timing.  A dense operator whose computed size exceeds
``DENSE_CAP_BYTES`` is not allocated; its computed bytes are recorded.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc

from psusyent.algebra import DEFAULT_TAIL_TOL, coherent_vector, default_n_max, required_n_max
from psusyent.coherent import AlphaProfile, build_state, qubit_amplitudes
from psusyent.entanglement import (
    concurrence_closed_form,
    concurrence_pure,
    concurrence_schmidt_oracle,
    concurrence_wootters,
    density_from_amplitudes,
)
from psusyent.model import (
    build_annihilator,
    build_hamiltonian,
    degeneracy_profile,
    verify_eigenstate,
)

P_VALUES = (1, 3, 8)
Z_VALUES = (1.0, 5.0, 20.0)
DENSE_CAP_BYTES = 32 * 2**20
_MIN_MS = 5.0
_MAX_REPEATS = 15


def _measure(fn, memory: bool = False):
    """(entry, value): median wall ms over a few calls, or the error type.

    Calls faster than _MIN_MS are repeated so the median is not one sample.
    With ``memory`` the call runs once under tracemalloc and the entry holds
    its peak in MB.
    """
    samples = []
    value = None
    try:
        while True:
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                value = fn()
            finally:
                samples.append((time.perf_counter() - t0) * 1e3)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if memory or samples[0] >= _MIN_MS or len(samples) >= _MAX_REPEATS:
                break
    except Exception as exc:
        return {"error": type(exc).__name__}, None
    entry = {"ms": statistics.median(samples), "repeats": len(samples)}
    if memory:
        entry["peak_mb"] = peak / 2**20
    return entry, value


def probe_case(p: int, z_abs: float) -> dict:
    z = complex(z_abs)
    profile = AlphaProfile.optimal_constant(p)
    n_max = default_n_max(z, p)
    dim = n_max * (p + 1)
    dense_bytes = dim * dim * 16
    layers: dict[str, dict] = {}

    layers["coherent_vector"], _ = _measure(lambda: coherent_vector(z, n_max))
    layers["required_n_max"], needed = _measure(lambda: required_n_max(z_abs, DEFAULT_TAIL_TOL))
    if needed is not None:
        layers["required_n_max"]["value"] = needed
    layers["build_state"], state = _measure(lambda: build_state(p, z, profile))
    layers["concurrence_closed_form"], _ = _measure(
        lambda: concurrence_closed_form(p, z, profile)
    )
    amps_entry, amps = _measure(lambda: qubit_amplitudes(p, z, profile))
    if amps is None:
        layers["concurrence_pure"] = layers["concurrence_wootters"] = amps_entry
    else:
        layers["concurrence_pure"], _ = _measure(lambda: concurrence_pure(amps))
        rho = density_from_amplitudes(amps)
        layers["concurrence_wootters"], _ = _measure(lambda: concurrence_wootters(rho))
    if state is None:
        layers["concurrence_schmidt_oracle"] = layers["build_state"]
    else:
        layers["concurrence_schmidt_oracle"], _ = _measure(
            lambda: concurrence_schmidt_oracle(state)
        )

    if dense_bytes > DENSE_CAP_BYTES:
        skipped = {"computed_bytes": dense_bytes, "over_cap_bytes": DENSE_CAP_BYTES}
        for name in ("build_annihilator", "apply_annihilator", "build_hamiltonian", "degeneracy_profile"):
            layers[name] = dict(skipped)
    else:
        layers["build_annihilator"], a_op = _measure(
            lambda: build_annihilator(p, n_max), memory=True
        )
        if state is None:
            layers["apply_annihilator"] = layers["build_state"]
        elif a_op is None:
            layers["apply_annihilator"] = layers["build_annihilator"]
        else:
            layers["apply_annihilator"], residual = _measure(
                lambda: verify_eigenstate(a_op, state.full_vector, z)
            )
            if residual is not None:
                layers["apply_annihilator"]["residual"] = residual
        layers["build_hamiltonian"], h = _measure(
            lambda: build_hamiltonian(1.0, p, n_max), memory=True
        )
        if h is None:
            layers["degeneracy_profile"] = layers["build_hamiltonian"]
        else:
            layers["degeneracy_profile"], _ = _measure(lambda: degeneracy_profile(h))
        for name in ("build_annihilator", "build_hamiltonian"):
            layers[name]["computed_bytes"] = dense_bytes

    return {"p": p, "z_abs": z_abs, "n_max": n_max, "dim": dim, "layers": layers}


def run_probe() -> list[dict]:
    return [probe_case(p, z_abs) for p in P_VALUES for z_abs in Z_VALUES]
