"""Command-line front end: verification, single-state inspection, grid sweeps.

Exit codes: 0 success, 1 check, I/O, truncation or float-range failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .coherent import (
    KIND_OPTIMAL,
    KIND_Z_EXACT,
    AlphaProfile,
    PowerTable,
    build_state,
)
from .entanglement import (
    ROUTE_CLOSED_FORM,
    ROUTE_PURE,
    ROUTE_SCHMIDT,
    ROUTE_WOOTTERS,
    _optimal_concurrence,
    concurrence_closed_form,
    concurrence_routes,
    entanglement_of_formation,
)
from .errors import FloatRangeError, TruncationError
from .verify import eigenstate_residual, run_all

__all__ = ["main"]

_ROUTES = (ROUTE_CLOSED_FORM, ROUTE_PURE, ROUTE_WOOTTERS, ROUTE_SCHMIDT)
# how json writes the float specials; float.__repr__ writes them as nan, inf, -inf
_JSON_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}

CSV_HEADER = "p,abs_z,concurrence,one_minus_c,eof"
# fixed 12-significant-digit formatting for reproducible CSV output: a row
# is p, then abs_z as text, formatted once per |z| chunk, then C, 1 - C, EoF
_Z_TEXT = "%.12g"
_CSV_ROW_AFTER_P = ",%s,%.12g,%.12g,%.12g\n"
# a z-dependent-exact row after abs_z, undefined or defined (C = 1, EoF = ln 2)
_Z_EXACT_TAILS = (",nan,nan,nan\n", ",1,0,%.12g\n" % entanglement_of_formation(1.0))
# |z| rows computed and written at a time, so memory does not grow with the grid
GRID_CHUNK_ROWS = 4096

# argparse takes only -1 and -1.5 style tokens as negative values; also take
# -1e-3, and -inf / -nan so that they get the finite-number message
_NEGATIVE_NUMBER = re.compile(
    r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.IGNORECASE
)


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(args.p_max, args.tol)
    width = max(len(r.name) for r in reports)
    for r in reports:
        status = "ok  " if r.ok else "FAIL"
        print(
            f"{status} {r.name:<{width}}  checks={r.passed + r.failed:<4d} "
            f"failed={r.failed:<3d} max_residual={r.max_residual:.3e} "
            f"time={r.wall_time:.3f}s"
        )
    failed = sum(r.failed for r in reports)
    print(f"{'PASS' if failed == 0 else 'FAIL'}: {len(reports)} suites, {failed} failed checks")
    return 0 if failed == 0 else 1


def _cmd_state(args: argparse.Namespace) -> int:
    try:
        with open(args.profile, "rb") as fh:
            data = fh.read()
        # the text a text-mode read hands json: UTF-8, with universal newlines
        profile_obj = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    except OSError as exc:
        print(f"error: cannot read profile: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RecursionError) as exc:
        # also not UTF-8, an integer literal past the digit limit, or nested too deep
        print(f"error: invalid profile JSON: {exc}", file=sys.stderr)
        return 2

    z = complex(args.z_re, args.z_im)
    try:
        profile = AlphaProfile.from_dict(profile_obj)
        state = build_state(args.p, z, profile)
        # first: a state the cutoff truncates fails its Schmidt route (exit 1)
        routes = concurrence_routes(state)
        residual = eigenstate_residual(state)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a numerical limit, not a malformed request
        return 1 if isinstance(exc, (TruncationError, FloatRangeError)) else 2

    eof = entanglement_of_formation(routes[ROUTE_CLOSED_FORM])
    sys.stdout.write(
        _state_json(args.p, z, state.q_norm, state.qubit_amps, routes, eof, residual)
    )
    return 0


def _state_template() -> str:
    """The `state` record as indented JSON, with a %s slot for each number.

    The layout is json's own: the record's keys in order, two-space indent,
    and a newline after the closing brace.
    """
    slot = "\0"  # a string json escapes, so its quoted form marks each slot
    pair = [slot, slot]
    skeleton = {
        "p": slot,
        "z": pair,
        "q_norm": slot,
        "qubit_amps": dict.fromkeys(("a00", "a01", "a10", "a11"), pair),
        "concurrence": dict.fromkeys(_ROUTES, slot),
        "eof": slot,
        "eigenstate_residual": slot,
    }
    text = json.dumps(skeleton, indent=2).replace("%", "%%")
    return text.replace(json.dumps(slot), "%s") + "\n"


_STATE_TEMPLATE = _state_template()


def _json_float(value: float) -> str:
    """``value`` as json writes a float: its repr, and NaN, Infinity, -Infinity."""
    text = float.__repr__(value)
    return _JSON_SPECIALS.get(text, text)


def _state_json(p: int, z: complex, q_norm: float, amps, routes: dict, eof: float,
                residual: float) -> str:
    """The `state` record's text, byte for byte ``json.dumps(record, indent=2) + "\\n"``.

    json's own encoder is pure Python once ``indent`` is set; one template
    fill costs a fraction of it.
    """
    numbers = [z.real, z.imag, q_norm]
    for amp in amps:
        numbers += (amp.real, amp.imag)
    numbers += [routes[name] for name in _ROUTES]
    numbers += (eof, residual)
    # json writes a finite float as its repr
    fill = float.__repr__ if all(map(math.isfinite, numbers)) else _json_float
    return _STATE_TEMPLATE % (p, *map(fill, numbers))


class _GridChunk:
    """One chunk of grid |z| rows and what depends only on |z|.

    That is the libm power table and the abs_z texts, shared by every order
    p whose block covers these rows.
    """

    def __init__(self, start: int, zs: np.ndarray):
        self.start = start
        self.powers = PowerTable(zs)
        self.z_text = [_Z_TEXT % z for z in self.powers.values]
        # the fields of every row after p, flat: abs_z, C, 1 - C, EoF
        self._fields = [None] * (4 * len(zs))
        self._fields[0::4] = self.z_text

    def csv(self, p: int, value: np.ndarray, one_minus_c: np.ndarray, eof: np.ndarray) -> str:
        """The CSV rows of order p over this chunk: concurrences ``value``, 1 - C, EoF."""
        fields = self._fields
        fields[1::4], fields[2::4] = value.tolist(), one_minus_c.tolist()
        fields[3::4] = eof.tolist()
        return ((str(p) + _CSV_ROW_AFTER_P) * len(self.z_text)) % tuple(fields)

    def fixed_csv(self, p: int, defined: np.ndarray) -> str:
        """The z-dependent-exact rows of order p: C = 1 where ``defined``, else nan."""
        head = str(p) + ","
        # each run of rows with the same tail is one join of their abs_z texts
        cuts = [0, *(np.flatnonzero(defined[1:] != defined[:-1]) + 1).tolist(), len(defined)]
        tails = [_Z_EXACT_TAILS[d] for d in defined[cuts[:-1]].tolist()]
        return "".join(head + (tail + head).join(self.z_text[start:stop]) + tail
                       for start, stop, tail in zip(cuts, cuts[1:], tails))


def _grid_rows(p: int, chunk: _GridChunk, kind: str, profile: AlphaProfile | None) -> str:
    """The CSV rows of order p over a |z| chunk; nan where the z-exact rule is undefined."""
    if kind == KIND_OPTIMAL:
        value, one_minus_c = _optimal_concurrence(p, chunk.powers)
        return chunk.csv(p, value, one_minus_c, entanglement_of_formation(value))
    # only C is read, 1 or nan: the row text is fixed, so no EoF is evaluated
    defined = (np.zeros(len(chunk.z_text), dtype=bool) if profile is None
               else ~np.isnan(concurrence_closed_form(p, chunk.powers, profile).value))
    return chunk.fixed_csv(p, defined)


def _cmd_grid(args: argparse.Namespace) -> int:
    n_steps = int(math.floor((args.z_max - args.z_min) / args.z_step + 1e-9)) + 1
    try:
        fh = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 1
    p = args.p_min
    chunk = None
    try:
        with fh:
            fh.write(CSV_HEADER + "\n")
            for p in range(args.p_min, args.p_max + 1):
                # the z-dependent-exact family exists only for 1 <= m <= p-1
                profile = None
                if args.profile_kind == KIND_Z_EXACT and 1 <= args.m <= p - 1:
                    profile = AlphaProfile.z_dependent_exact(p, args.m, 1.0)
                for start in range(0, n_steps, GRID_CHUNK_ROWS):
                    # kept while the next p covers the same rows: when the grid is one chunk
                    if chunk is None or chunk.start != start:
                        steps = np.arange(start, min(start + GRID_CHUNK_ROWS, n_steps))
                        chunk = _GridChunk(start, args.z_min + steps * args.z_step)
                    fh.write(_grid_rows(p, chunk, args.profile_kind, profile))
    except (OSError, ValueError, ArithmeticError) as exc:
        # remove the truncated sweep this call wrote; a device or a pipe is left alone
        if os.path.isfile(args.out):
            with contextlib.suppress(OSError):
                os.remove(args.out)
        what = f"cannot write {args.out}" if isinstance(exc, OSError) else f"grid at p={p}"
        print(f"error: {what}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {(args.p_max - args.p_min + 1) * n_steps} rows to {args.out}")
    return 0


def _finite_float(text: str) -> float:
    """argparse type for the numeric options: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="psusyent",
        description=(
            "Coherent states of the parasupersymmetric oscillator and their "
            "boson-parafermion entanglement."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the self-verification suites")
    p_verify.add_argument("--p-max", type=int, default=4, help="largest order checked (1..8)")
    p_verify.add_argument("--tol", type=_finite_float, default=1e-8, help="residual threshold")

    p_state = sub.add_parser("state", help="inspect a single coherent state as JSON")
    p_state.add_argument("--p", type=int, required=True, help="parafermion order")
    p_state.add_argument("--z-re", type=_finite_float, default=0.0, help="Re z")
    p_state.add_argument("--z-im", type=_finite_float, default=0.0, help="Im z")
    p_state.add_argument("--profile", required=True, help="path to a profile JSON file")

    p_grid = sub.add_parser("grid", help="emit a concurrence CSV over (p, |z|)")
    p_grid.add_argument("--p-min", type=int, default=1)
    p_grid.add_argument("--p-max", type=int, default=6)
    p_grid.add_argument("--z-min", type=_finite_float, default=0.0)
    p_grid.add_argument("--z-max", type=_finite_float, default=5.0)
    p_grid.add_argument("--z-step", type=_finite_float, default=0.05)
    p_grid.add_argument(
        "--profile-kind",
        choices=(KIND_OPTIMAL, KIND_Z_EXACT),
        default=KIND_OPTIMAL,
        help="coefficient family used for the sweep",
    )
    p_grid.add_argument(
        "--m", type=int, default=1, help="exceptional index for z-dependent-exact"
    )
    p_grid.add_argument("--out", required=True, help="output CSV path")
    for subparser in (p_verify, p_state, p_grid):
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
        # full option string -> its store action, for _read
        subparser.options = {
            flag: action
            for action in subparser._actions
            if isinstance(action, argparse._StoreAction)
            for flag in action.option_strings
        }
    # command name -> its parser, the names argparse accepts in argv[0]
    parser.commands = sub.choices
    return parser


def _read(options: dict, tokens: list[str]) -> argparse.Namespace | None:
    """The Namespace argparse gives ``tokens``, read through the command's actions.

    Only a well-formed argv is read: (full option string, value) pairs, each
    option once, each value a token argparse takes as a value (one that
    does not start with -, or a negative number).  Each value goes through its
    action's ``type`` and ``choices``; an absent option gets its default,
    through ``type`` when the default is a str.  None for anything else,
    including a value or default its action rejects and a missing required
    option: argparse then reads and reports it.
    """
    if len(tokens) % 2:
        return None
    given = {}
    for flag, text in zip(tokens[::2], tokens[1::2]):
        action = options.get(flag)
        if action is None or action in given:
            return None
        if text[:1] == "-" and not _NEGATIVE_NUMBER.match(text):
            return None
        given[action] = text
    args = argparse.Namespace()
    for action in options.values():
        text = given.get(action)
        if text is None:
            if action.required:
                return None
            text = action.default
            if not isinstance(text, str):
                setattr(args, action.dest, text)
                continue
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action in given and action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


def _parse(parser: argparse.ArgumentParser, argv: list[str] | None) -> argparse.Namespace:
    """``parser.parse_args(argv)``, reading each token once.

    The parent parser hands everything after a command name to that
    command's parser.  An argv that starts with one is read by :func:`_read`
    when it is well formed.  Any other argv (none, -h, an unknown command,
    --, a malformed option list) takes the full parse, which reports it.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else _read(command.options, argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
    # overflow shows as a non-finite result, which the commands report as one error line
    with np.errstate(all="ignore"):
        return _dispatch(parser, args)


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.command == "verify":
        if not 1 <= args.p_max <= 8:
            parser.error(f"--p-max must be within 1..8, got {args.p_max}")
        if args.tol <= 0:
            parser.error("--tol must be positive")
        return _cmd_verify(args)
    if args.command == "state":
        if args.p < 1:
            parser.error(f"--p must be >= 1, got {args.p}")
        return _cmd_state(args)
    if args.command == "grid":
        if args.p_min < 1 or args.p_min > args.p_max:
            parser.error("need 1 <= --p-min <= --p-max")
        if args.z_step <= 0 or args.z_min < 0 or args.z_max < args.z_min:
            parser.error("need --z-step > 0 and 0 <= --z-min <= --z-max")
        return _cmd_grid(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
