"""Command-line surface: constants tables, verification suites, oracle dumps."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .pipeline import ALL_SUITES, VerificationConfig, run_suite
from .special import CrossCheckError, c_const, r_poly, solve_a_coeffs
from .witten import _insertion_multisets, intersection


def _suite_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ALL_SUITES


# each option of verify but --format, the VerificationConfig field it sets, its
# type and its help
_CONFIG_FLAGS = (
    ("--pairing", "pairing_spec", str, "point, hyperbolic2, or a JSON file"),
    ("--max-t-degree", "max_t_degree", int, None),
    ("--max-index", "max_var_index", int, None),
    ("--max-u-degree", "max_u_degree", int, None),
    ("--max-hbar", "max_hbar_degree", int, None),
    ("--max-omega-weight", "max_omega_weight", int, None),
    ("--seed", "seed", int, None),
    ("--suite", "suites", _suite_list, f"comma-separated subset of: {', '.join(ALL_SUITES)}"),
)


def _emit_reports(reports, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps([r.as_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.summary_line())
        n_fail = sum(not r.passed for r in reports)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 0 if all(r.passed for r in reports) else 1


def cmd_constants(args: argparse.Namespace) -> int:
    for flag, count in (("--count-c", args.count_c), ("--count-r", args.count_r)):
        if count < 0:
            raise ValueError(f"{flag} must be >= 0")
    a = solve_a_coeffs(args.count_a)
    a_table = {str(m): str(v) for m, v in enumerate(a, start=1)}
    c_table = {str(i): str(c_const(i)) for i in range(args.count_c + 1)}
    r_table = {str(i): r_poly(i).render() for i in range(args.count_r + 1)}
    if args.format == "json":
        print(json.dumps({"a": a_table, "c": c_table, "r": r_table}, indent=2))
    else:
        for letter, table in (("a", a_table), ("C", c_table), ("R", r_table)):
            for i, v in table.items():
                print(f"{letter}_{i} = {v}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    fields = dataclasses.fields(VerificationConfig)
    config = VerificationConfig(**{f.name: getattr(args, f.name) for f in fields})
    return _emit_reports(run_suite(config), args.format)


def cmd_oracle(args: argparse.Namespace) -> int:
    for flag, value, least in (
        ("--genus-max", args.genus_max, 0),
        ("--max-insertions", args.max_insertions, 1),
        ("--max-index", args.max_index, 0),
    ):
        if value < least:
            raise ValueError(f"{flag} must be >= {least}")
    rows = []
    for g in range(args.genus_max + 1):
        for n in range(1, args.max_insertions + 1):
            for ks in _insertion_multisets(n, 3 * g - 3 + n, args.max_index):
                value = intersection(g, ks)
                if value:
                    rows.append({"g": g, "ks": list(ks), "value": str(value)})
    print(json.dumps(rows, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hodgeflow",
        description="Exact verification of the flow / raising-operator identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="emit the a_m, C_i, R_i tables")
    p_const.add_argument("--count-a", type=int, default=10)
    p_const.add_argument("--count-c", type=int, default=8)
    p_const.add_argument("--count-r", type=int, default=5)
    p_const.add_argument("--format", choices=("text", "json"), default="text")
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run verification suites")
    for flag, field, kind, text in _CONFIG_FLAGS:
        default = getattr(VerificationConfig, field)
        p_verify.add_argument(flag, dest=field, type=kind, default=default, help=text)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="intersection-number tables as JSON")
    p_oracle.add_argument("--genus-max", type=int, default=2)
    p_oracle.add_argument("--max-insertions", type=int, default=4)
    p_oracle.add_argument("--max-index", type=int, default=8)
    p_oracle.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return 2
    except CrossCheckError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
