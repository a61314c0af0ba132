"""Command line interface.

Machine-readable JSON goes to stdout, human text to stderr, so commands
compose in pipelines.  Exit codes: 0 on success, 1 when a checked property
fails (which would indicate a bug, since the verified theorems are exact),
2 on malformed input or configuration.

    krenergy energy        < tensor.json   intrinsic and staircase energy
    krenergy rmatrix       < pair.json     combinatorial R-matrix
    krenergy verify ...                    run verification suites
    krenergy emit-formula --n 2 --m 3      the tropical staircase objective

The KR_ENERGY_GUARD environment variable overrides the default tableau
enumeration guard (10**7); a value that is not a positive integer is
refused with exit code 2.  A command over the guard exits 2 with one
``error:`` line before it prints anything; ``energy``, ``emit-formula`` and
``verify`` refuse a staircase up front by the one rule of
``tableaux.energy_staircase_shape``: its closed-form tableau count times
the m * n exponent slots of a term.
"""

from __future__ import annotations

import argparse
import json
import sys

from ._strict import decimal
from .crystal import (
    TensorElement,
    energy_staircase,
    intrinsic_energy,
    r_matrix,
    r_matrix_oracle,
)
from .lsym import mono_factors, tableau_monomials
from .tableaux import EnumerationGuardError, energy_staircase_shape, resolve_guard
from .verify import ConfigError, SUITE_NAMES, VerifyConfig, run_verify

EXIT_OK = 0
EXIT_PROPERTY_FAILED = 1
EXIT_BAD_INPUT = 2


# the one JSON form of every document printed
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _read_tensor(path: str | None) -> TensorElement:
    if path in (None, "-"):
        raw = sys.stdin.read()
    else:
        with open(path) as handle:
            raw = handle.read()
    return TensorElement.from_jsonable(json.loads(raw))


def _cmd_energy(args) -> int:
    try:
        tensor = _read_tensor(args.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # the staircase refuses an over-guard tensor before any work
    d_staircase = energy_staircase(tensor)
    d_intrinsic = intrinsic_energy(tensor)
    equal = d_intrinsic == d_staircase
    print(_encode({"intrinsic": d_intrinsic, "staircase": d_staircase, "equal": equal}))
    if not equal:
        print("error: intrinsic and staircase energies differ (bug)", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    return EXIT_OK


def _cmd_rmatrix(args) -> int:
    try:
        tensor = _read_tensor(args.input)
        if tensor.m != 2:
            raise ValueError(f"rmatrix expects exactly 2 factors, got {tensor.m}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    b1, b2 = tensor.factors
    formula = r_matrix(b1, b2)
    oracle = r_matrix_oracle(b1, b2) if (args.oracle or args.check) else None
    c1, c2 = oracle if args.oracle else formula
    out = {"n": tensor.n, "factors": [list(c1.counts), list(c2.counts)]}
    if tensor.n <= 9:
        out["rows"] = ["".join(map(str, c1.letters())), "".join(map(str, c2.letters()))]
    print(_encode(out))
    if args.check and oracle != formula:
        print("error: formula and jeu-de-taquin oracle disagree (bug)", file=sys.stderr)
        return EXIT_PROPERTY_FAILED
    return EXIT_OK


def _int_flag(text: str) -> int:
    try:
        return decimal(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_range(text: str, name: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) > 2:
            raise ValueError
        values = [decimal(part, name) for part in parts]
    except ValueError:
        raise ConfigError(f"{name} must be N or LO:HI, got {text!r}")
    return values[0], values[-1]


def _cmd_verify(args) -> int:
    try:
        suites = SUITE_NAMES if args.suites == "all" else tuple(args.suites.split(","))
        config = VerifyConfig(
            suites=suites,
            n_range=_parse_range(args.n, "--n"),
            m_range=_parse_range(args.m, "--m"),
            capacity_cap=args.capacity_cap,
            trials=args.trials,
            seed=args.seed,
            mode=args.mode,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    report = run_verify(config)
    print(report.to_json())
    if not args.json:
        print(report.human_summary(), file=sys.stderr)
    return EXIT_OK if report.total_failures == 0 else EXIT_PROPERTY_FAILED


def _cmd_emit_formula(args) -> int:
    n, m = args.n, args.m
    if n < 2 or m < 1:
        print(f"error: need n >= 2 and m >= 1, got n={n}, m={m}", file=sys.stderr)
        return EXIT_BAD_INPUT
    shape = energy_staircase_shape(n, m)
    # "terms" sorts last, so the document is streamed: its head up to the
    # terms' "[", each term as it is enumerated, then "]}", the bytes of
    # the one document without holding the terms
    write = sys.stdout.write
    write(_encode({"n": n, "m": m, "shape": list(shape.parts), "terms": []})[:-2])
    for k, (t, mono) in enumerate(tableau_monomials(shape, 0, m, n=n)):
        write(("," if k else "") + _encode({
            "tableau": [list(row) for row in t.rows],
            "monomial": [list(f) for f in mono_factors(mono, n)],
        }))
    write("]}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krenergy",
        description="Crystal energy, combinatorial R-matrices, and loop Schur identities "
        "in exact arithmetic.",
        epilog="Exit codes: 0 success, 1 property violated (a bug), 2 bad input/config.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_energy = sub.add_parser(
        "energy",
        help="intrinsic and tropical staircase energy of a tensor "
        '(JSON {"n":..,"factors":[[..],..]} or {"n":..,"rows":["13",..]})',
    )
    p_energy.add_argument("input", nargs="?", help="input file (default: stdin)")
    p_energy.set_defaults(func=_cmd_energy)

    p_rmat = sub.add_parser("rmatrix", help="combinatorial R-matrix of a pair")
    p_rmat.add_argument("input", nargs="?", help="input file (default: stdin)")
    p_rmat.add_argument("--oracle", action="store_true", help="use the jeu-de-taquin search")
    p_rmat.add_argument(
        "--check", action="store_true", help="run both formula and oracle, fail on mismatch"
    )
    p_rmat.set_defaults(func=_cmd_rmatrix)

    p_verify = sub.add_parser("verify", help="run the verification harness")
    p_verify.add_argument(
        "--suites",
        default="all",
        help=f"comma-separated subset of {','.join(SUITE_NAMES)} (default: all)",
    )
    p_verify.add_argument("--n", default="2:3", help="alphabet size or range LO:HI (within 2..6)")
    p_verify.add_argument("--m", default="1:3", help="tensor length or range LO:HI (within 1..6)")
    p_verify.add_argument("--capacity-cap", type=_int_flag, default=3, help="max factor capacity")
    p_verify.add_argument("--trials", type=_int_flag, default=50, help="random trials per cell")
    p_verify.add_argument("--seed", type=_int_flag, default=0, help="seed for all randomness")
    p_verify.add_argument(
        "--mode", choices=("exhaustive", "randomized", "both"), default="both"
    )
    p_verify.add_argument(
        "--json", action="store_true", help="suppress the human summary on stderr"
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_emit = sub.add_parser(
        "emit-formula",
        help="print the tropical staircase objective as (tableau, monomial) pairs",
    )
    p_emit.add_argument("--n", type=_int_flag, required=True, help="alphabet size")
    p_emit.add_argument("--m", type=_int_flag, required=True, help="number of tensor factors")
    p_emit.set_defaults(func=_cmd_emit_formula)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_guard()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except EnumerationGuardError as exc:
        # every guard refusal comes before the command prints anything
        print(f"error: {exc}; use a smaller input or raise KR_ENERGY_GUARD", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
