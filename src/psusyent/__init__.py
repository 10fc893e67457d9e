"""Coherent states of the parasupersymmetric oscillator and their entanglement.

The package builds order-p parafermi and truncated-boson operators, the
PSUSY oscillator Hamiltonian and its annihilation operator A, constructs
the coherent eigenstates A|Z> = z|Z> in closed form, and quantifies their
boson-parafermion entanglement through four independently implemented
concurrence routes that cross-validate each other.
"""

from .algebra import (
    AlgebraReport,
    BosonOps,
    ParafermiOps,
    build_boson,
    build_parafermi,
    check_algebra,
    coherent_tail,
    coherent_vector,
    default_n_max,
    derivative_coherent_vector,
    required_n_max,
)
from .coherent import (
    AlphaProfile,
    ClosedForm,
    PowerTable,
    PsusyCoherentState,
    QubitBases,
    beta_coefficients,
    build_state,
    normalization_q,
    qubit_amplitudes,
    qubit_bases,
)
from .entanglement import (
    ConcurrenceResult,
    concurrence_closed_form,
    concurrence_optimal,
    concurrence_pure,
    concurrence_routes,
    concurrence_schmidt_oracle,
    concurrence_wootters,
    density_from_amplitudes,
    entanglement_of_formation,
)
from .errors import (
    DegenerateProfileError,
    FloatRangeError,
    NoRealSolutionError,
    TruncationError,
)
from .model import (
    AnnihilatorA,
    PsusyHamiltonian,
    build_annihilator,
    build_hamiltonian,
    degeneracy_profile,
    verify_eigenstate,
)
from .verify import RunReport, run_all

__version__ = "0.1.0"

__all__ = [
    "AlgebraReport",
    "AlphaProfile",
    "AnnihilatorA",
    "BosonOps",
    "ClosedForm",
    "ConcurrenceResult",
    "DegenerateProfileError",
    "FloatRangeError",
    "NoRealSolutionError",
    "ParafermiOps",
    "PowerTable",
    "PsusyCoherentState",
    "PsusyHamiltonian",
    "QubitBases",
    "RunReport",
    "TruncationError",
    "beta_coefficients",
    "build_annihilator",
    "build_boson",
    "build_hamiltonian",
    "build_parafermi",
    "build_state",
    "check_algebra",
    "coherent_tail",
    "coherent_vector",
    "concurrence_closed_form",
    "concurrence_optimal",
    "concurrence_pure",
    "concurrence_routes",
    "concurrence_schmidt_oracle",
    "concurrence_wootters",
    "default_n_max",
    "degeneracy_profile",
    "density_from_amplitudes",
    "derivative_coherent_vector",
    "entanglement_of_formation",
    "normalization_q",
    "qubit_amplitudes",
    "qubit_bases",
    "required_n_max",
    "run_all",
    "verify_eigenstate",
]
