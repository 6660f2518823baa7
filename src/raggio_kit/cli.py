"""Command-line front end.

Algebras are written in a tiny grammar: ``M<n>`` is a full matrix algebra,
``D<n>`` a commutative one, ``+`` a direct sum, and ``x`` a tensor product;
``x`` binds looser than ``+``, so ``M2+M3 x D2`` means ``(M2 + M3) (x) D2``.

Exit codes: 0 on success, 1 on domain errors (bad inputs, impossible
requests), 2 on usage errors, 3 when an equivalence check comes back
inconsistent, and 141 (128 + SIGPIPE, as a shell reports a program that
SIGPIPE stops) when the reader closes standard output before it is written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys

from .algebra import FdAlgebra, direct_sum, make_commutative, make_full, tensor
from .bell import DEFAULT_RESTARTS, chsh_optimize
from .entanglement import DEFAULT_BUDGET, DEFAULT_DECOMP_TOL, is_entangled_pure, separability_test
from .errors import InvalidArgumentError, RaggioKitError, ResourceLimitError
from .harness import DEFAULT_CHECK_RESTARTS, DEFAULT_SAMPLES, PRODUCT_DIM_CAP, verify_equivalence
from .serialize import (
    _unpairs,
    chsh_result_to_dict,
    pure_vector_from_dict,
    report_to_dict,
    state_from_dict,
    verdict_to_dict,
)
from .states import PureVector, restrict_to_diagonal, singlet, werner

_ATOM = re.compile(r"^([MD])([0-9]+)$")
_ATOM_DIGITS = 18  # no subcommand can use 10^18; int() reads at least 640 digits


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def _echo(text: str) -> str:
    """``text`` quoted for an error message, cut to its first 20 characters."""
    return repr(text[:20]) + ("..." if len(text) > 20 else "")


def parse_algebra(text: str) -> FdAlgebra:
    """Parse the M/D/+/x grammar; tensor products record their factors.

    A ``D<n>`` atom or a tensor product with more than PRODUCT_DIM_CAP blocks
    raises ResourceLimitError before it is built: no subcommand can use one.
    """

    def capped(blocks: int) -> None:
        if blocks > PRODUCT_DIM_CAP:
            why = f"algebra {_echo(text)} would have {blocks} blocks, which exceeds the cap"
            raise ResourceLimitError(f"{why} {PRODUCT_DIM_CAP}")

    def atom(tok: str) -> FdAlgebra:
        m = _ATOM.match(tok)
        if not m:
            raise UsageError(f"cannot parse algebra atom {_echo(tok)} (expected M<n> or D<n>)")
        if len(m.group(2)) > _ATOM_DIGITS:
            why = f"algebra atom {tok[0]}<n> has {len(tok) - 1} digits, too many to read"
            raise ResourceLimitError(why)
        kind, n = m.group(1), int(m.group(2))
        if n < 1:
            raise UsageError(f"algebra atom {_echo(tok)} needs a positive dimension")
        if kind == "D":
            capped(n)
        return make_full(n) if kind == "M" else make_commutative(n)

    def summand(part: str) -> FdAlgebra:
        toks = [t.strip() for t in part.split("+")]
        if any(not t for t in toks):
            raise UsageError(f"empty summand in algebra {_echo(text)}")
        out = atom(toks[0])
        for tok in toks[1:]:
            out = direct_sum(out, atom(tok))
        return out

    parts = [p.strip() for p in text.strip().split("x")]
    if any(not p for p in parts):
        raise UsageError(f"empty tensor factor in algebra {_echo(text)}")
    result = summand(parts[0])
    for part in parts[1:]:
        factor = summand(part)
        capped(result.num_blocks * factor.num_blocks)
        result = tensor(result, factor)
    return result


def _parse_amplitudes(text: str):
    """Amplitudes given inline as a JSON array of [re, im] pairs."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--psi is not valid JSON: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise UsageError("--psi must be a nonempty JSON array of [re, im] pairs")
    try:
        return _unpairs(data, len(data), "--psi")
    except InvalidArgumentError as exc:
        raise UsageError(str(exc)) from exc


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nesting beyond the parser
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, float):
        return f"{value:.7g}"
    if isinstance(value, list):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _lines(items) -> list[str]:
    """One ``key = value`` text line per (key, value) pair."""
    return [f"{key} = {_fmt(value)}" for key, value in items]


def _indexed(name: str, values) -> list[tuple[str, float]]:
    """Pairs ``(name[k], value)``, for outputs listed one entry per line."""
    return [(f"{name}[{k}]", v) for k, v in enumerate(values)]


def _load_state_arg(args):
    """Common state input: a JSON file, the singlet, or a Werner mixture."""
    if args.state is not None:
        data = _read_json(args.state)
        if isinstance(data, dict) and "psi" in data:
            return pure_vector_from_dict(data)
        return state_from_dict(data)
    if args.singlet:
        return singlet()
    return werner(args.werner)


def _add_state_source(sub: argparse.ArgumentParser) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--state", metavar="FILE", help="state or vector as JSON")
    src.add_argument("--singlet", action="store_true", help="the two-qubit singlet")
    src.add_argument("--werner", type=float, metavar="P", help="Werner mixture at parameter P")


def _add_vector_source(sub: argparse.ArgumentParser, psi_help: str) -> None:
    src = sub.add_mutually_exclusive_group(required=True)
    src.add_argument("--psi", help=psi_help)
    src.add_argument("--state", metavar="FILE", help="vector as JSON")


def _load_vector_arg(args, algebra=None) -> PureVector:
    """The --state vector, or the --psi amplitudes on the named ``algebra`` (default M_n)."""
    if args.state is not None:
        return pure_vector_from_dict(_read_json(args.state))
    alg = None if algebra is None else parse_algebra(algebra)
    amps = _parse_amplitudes(args.psi)
    return PureVector(alg or make_full(len(amps)), amps)


def _cmd_born(args) -> tuple[dict, list[str], int]:
    probs = [float(p) for p in restrict_to_diagonal(_load_vector_arg(args))]
    return {"probabilities": probs}, _lines(_indexed("p", probs)), 0


def _cmd_schmidt(args) -> tuple[dict, list[str], int]:
    if args.state is None and args.algebra is None:
        raise UsageError("--algebra is required together with --psi")
    verdict = is_entangled_pure(_load_vector_arg(args, args.algebra))
    coeffs = list(verdict.coefficients)
    rest = {"entangled": verdict.entangled, "reduced_purity": verdict.reduced_purity}
    return {"coefficients": coeffs, **rest}, _lines([*_indexed("s", coeffs), *rest.items()]), 0


def _cmd_separability(args) -> tuple[dict, list[str], int]:
    state = _load_state_arg(args)
    verdict = separability_test(state, args.budget, tol=args.tol, seed=args.seed)
    payload = verdict_to_dict(verdict)
    items = [
        ("terms", verdict.decomposition.num_terms) if key == "decomposition" else (key, value)
        for key, value in payload.items()
    ]
    return payload, _lines(items), 0


def _cmd_chsh(args) -> tuple[dict, list[str], int]:
    state = _load_state_arg(args)
    payload = chsh_result_to_dict(chsh_optimize(state, restarts=args.restarts, seed=args.seed))
    return payload, _lines((k, v) for k, v in payload.items() if k != "observables"), 0


def _cmd_raggio_check(args) -> tuple[dict, list[str], int]:
    alg_a, alg_b = parse_algebra(args.a), parse_algebra(args.b)
    report = verify_equivalence(
        alg_a, alg_b, samples=args.samples, seed=args.seed, restarts=args.restarts
    )
    payload = report_to_dict(report)
    items = [
        (key, "; ".join(value) if key == "notes" else value)
        for key, value in payload.items()
        if key != "notes" or value
    ]
    return payload, _lines(items), 0 if report.consistent else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raggio-kit",
        description="States, decomposability, and CHSH bounds on multi-matrix algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="text", help="output format")

    def add(name: str, text: str, func) -> argparse.ArgumentParser:
        """A subcommand that runs ``func`` and takes --format."""
        p = sub.add_parser(name, parents=[fmt], help=text)
        p.set_defaults(func=func)
        return p

    p_born = add("born", "squared amplitudes of a unit vector", _cmd_born)
    _add_vector_source(p_born, "JSON [re, im] pairs, e.g. '[[0.7071,0],[0.7071,0]]'")

    p_schmidt = add("schmidt", "Schmidt coefficients of a wavefunction", _cmd_schmidt)
    _add_vector_source(p_schmidt, "JSON [re, im] pairs")
    p_schmidt.add_argument("--algebra", help="tensor algebra for --psi, e.g. 'M2 x M2'")

    p_sep = add("separability", "decomposability test with certificate", _cmd_separability)
    _add_state_source(p_sep)
    p_sep.add_argument("--seed", type=int, required=True, help="search seed")
    p_sep.add_argument(
        "--tol", type=float, default=DEFAULT_DECOMP_TOL, help="reconstruction tolerance"
    )
    p_sep.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET, help="search budget, in oracle calls"
    )

    p_chsh = add("chsh", "see-saw maximization of the CHSH value", _cmd_chsh)
    _add_state_source(p_chsh)
    p_chsh.add_argument("--seed", type=int, required=True, help="restart seed")
    p_chsh.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS, help="see-saw restarts")

    p_check = add(
        "raggio-check", "verify the decomposability equivalence on a pair", _cmd_raggio_check
    )
    p_check.add_argument("--a", required=True, help="left factor, e.g. 'M2'")
    p_check.add_argument("--b", required=True, help="right factor, e.g. 'D3'")
    p_check.add_argument("--seed", type=int, required=True, help="sampling seed")
    p_check.add_argument("--samples", type=int, default=DEFAULT_SAMPLES, help="states to sample")
    p_check.add_argument(
        "--restarts", type=int, default=DEFAULT_CHECK_RESTARTS, help="see-saw restarts"
    )

    return parser


def run(argv=None) -> int:
    """Parse ``argv``, dispatch, print the result, and return the exit code.

    Each subcommand returns its JSON payload, its text lines and its exit
    code; ``--format`` picks which of the two outputs is printed.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            parser.error(f"--seed must be nonnegative, got {args.seed}")
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        payload, lines, code = args.func(args)
    except (UsageError, RaggioKitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    text = json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone: send the interpreter's own flush at exit to the null device
        with contextlib.suppress(OSError):  # a stdout with no descriptor has nothing to flush
            out = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), out)
        return 141
    return code


if __name__ == "__main__":
    sys.exit(run())
