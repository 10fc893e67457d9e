"""Span-recording wrappers around psusyent's layer boundaries.

:class:`Tracer` rebinds each traced function in every psusyent module that
refers to it, so calls made from inside the package are recorded as well
as calls from the CLI, and puts every original object back on exit.  Spans
are aggregated in memory per name: calls, busy time (span duration), self
time (duration minus the direct child spans) and exceptions by type.  A few
spans also record computed sizes (dense operator bytes, matvec flops), the
tracemalloc peak of the dense annihilator build, and the suite wall times
that ``verify`` reports.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from collections import Counter

PACKAGE = "psusyent"
MODULES = ("algebra", "coherent", "entanglement", "model", "verify", "cli")

# (defining module, attribute) of each traced boundary: the names cli and
# verify import from the library modules, plus the internal steps they call.
# float_factorial is left out: it is called once per series term and its
# wrapper would cost more than the call.
TARGETS = (
    ("cli", "main"),
    ("cli", "build_parser"),
    ("verify", "run_all"),
    ("algebra", "build_boson"),
    ("algebra", "build_parafermi"),
    ("algebra", "check_algebra"),
    ("algebra", "default_n_max"),
    ("algebra", "coherent_vector"),
    ("algebra", "derivative_coherent_vector"),
    ("algebra", "coherent_tail"),
    ("coherent", "AlphaProfile.coefficients"),
    ("coherent", "bosonic_weight_sum"),
    ("coherent", "normalization_q"),
    ("coherent", "beta_coefficients"),
    ("coherent", "build_state"),
    ("coherent", "qubit_amplitudes"),
    ("coherent", "qubit_bases"),
    ("entanglement", "concurrence_optimal"),
    ("entanglement", "concurrence_closed_form"),
    ("entanglement", "concurrence_pure"),
    ("entanglement", "density_from_amplitudes"),
    ("entanglement", "concurrence_wootters"),
    ("entanglement", "concurrence_schmidt_oracle"),
    ("entanglement", "entanglement_of_formation"),
    ("model", "build_hamiltonian"),
    ("model", "degeneracy_profile"),
    ("model", "build_annihilator"),
    ("model", "verify_eigenstate"),
)

# Spans whose tracemalloc peak is recorded, with the operator dimension the
# arguments imply.  Only a call larger than every one measured before runs
# under tracemalloc, which keeps its cost off the other calls.
_MEMORY_SPANS = {"model.build_annihilator": lambda p, n_max: n_max * (p + 1)}


class SpanStats:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "busy_ns", "self_ns", "errors", "extra")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.errors: Counter = Counter()
        self.extra: Counter = Counter()

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "busy_ns": self.busy_ns,
            "self_ns": self.self_ns,
            "errors": dict(self.errors),
            "extra": dict(self.extra),
        }


def _dim(a_op) -> int:
    return a_op.n_max * (a_op.p + 1)


class Tracer:
    """Install with ``with tracer.installed():``; read ``tracer.stats`` after."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[int] = []  # child time accumulated by each open span
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "model.build_annihilator": self._annihilator_sizes,
            "model.verify_eigenstate": self._matvec_flops,
            "verify.run_all": self._suite_times,
        }

    def _stat(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def _annihilator_sizes(self, stat, args, result):
        stat.extra["dense_bytes"] += _dim(result) ** 2 * 16

    def _matvec_flops(self, stat, args, result):
        # dense complex matvec: 8 real flops per matrix element
        stat.extra["flops"] += 8 * _dim(args[0]) ** 2

    def _suite_times(self, stat, args, reports):
        for report in reports:
            suite = self._stat(f"verify.{report.name}")
            suite.calls += 1
            suite.busy_ns += int(report.wall_time * 1e9)
            suite.self_ns += int(report.wall_time * 1e9)

    def _wrap(self, name: str, fn):
        stat = self._stat(name)
        hook = self._hooks.get(name)
        memory_dim = _MEMORY_SPANS.get(name)
        open_spans = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            dim = memory_dim(*args, **kwargs) if memory_dim else 0
            memory = dim > stat.extra["peak_dim"]
            if memory:
                tracemalloc.start()
            open_spans.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                dur = clock() - t0
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                stat.calls += 1
                stat.busy_ns += dur
                stat.self_ns += dur - child
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    stat.extra["peak_bytes"] = max(stat.extra["peak_bytes"], peak)
                    stat.extra["peak_dim"] = dim
            if hook is not None:
                hook(stat, args, result)
            return result

        return wrapper

    def _install(self) -> None:
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for mod_name, attr in TARGETS:
            name = f"{mod_name}.{attr}"
            home = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[method]
                self._saved.append((owner, method, original))
                setattr(owner, method, self._wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()


def wrapped_bindings() -> dict[tuple[str, str], object]:
    """Every (owner, attribute) -> object a Tracer would rebind, as it is now.

    Compare the result before and after tracing to check that every name
    was put back.
    """
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    out = {}
    for mod_name, attr in TARGETS:
        if "." in attr:
            cls_name, method = attr.split(".")
            out[(f"{mod_name}.{cls_name}", method)] = getattr(modules[mod_name], cls_name).__dict__[method]
            continue
        for other, mod in modules.items():
            if attr in mod.__dict__:
                out[(other, attr)] = mod.__dict__[attr]
    return out
