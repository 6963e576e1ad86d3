"""Command-line surface: constants tables, verification suites, oracle dumps."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .pipeline import ALL_SUITES, VerificationConfig, run_suite
from .special import CrossCheckError, c_const, r_poly, solve_a_coeffs
from .witten import _insertion_multisets, intersection


def _add_window_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--pairing",
        default=VerificationConfig.pairing_spec,
        help="point, hyperbolic2, or a JSON file",
    )
    p.add_argument("--max-t-degree", type=int, default=VerificationConfig.max_t_degree)
    p.add_argument("--max-index", type=int, default=VerificationConfig.max_var_index)
    p.add_argument("--max-u-degree", type=int, default=VerificationConfig.max_u_degree)
    p.add_argument("--max-hbar", type=int, default=VerificationConfig.max_hbar_degree)
    p.add_argument("--max-omega-weight", type=int, default=VerificationConfig.max_omega_weight)
    p.add_argument("--seed", type=int, default=VerificationConfig.seed)
    p.add_argument("--format", choices=("text", "json"), default="text")


def _config_from(args: argparse.Namespace, suites: tuple[str, ...]) -> VerificationConfig:
    return VerificationConfig(
        pairing_spec=args.pairing,
        max_t_degree=args.max_t_degree,
        max_var_index=args.max_index,
        max_u_degree=args.max_u_degree,
        max_hbar_degree=args.max_hbar,
        max_omega_weight=args.max_omega_weight,
        seed=args.seed,
        suites=suites,
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
    a = solve_a_coeffs(args.count_a)
    a_table = {str(m): str(v) for m, v in enumerate(a, start=1)}
    c_table = {str(i): str(c_const(i)) for i in range(args.count_c + 1)}
    r_table = {str(i): r_poly(i).render() for i in range(args.count_r + 1)}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "a.json").write_text(json.dumps(a_table, indent=2) + "\n")
        (out / "c.json").write_text(json.dumps(c_table, indent=2) + "\n")
        print(f"wrote {out / 'a.json'} and {out / 'c.json'}")
        return 0
    if args.format == "json":
        print(json.dumps({"a": a_table, "c": c_table, "r": r_table}, indent=2))
    else:
        for m, v in a_table.items():
            print(f"a_{m} = {v}")
        for i, v in c_table.items():
            print(f"C_{i} = {v}")
        for i, v in r_table.items():
            print(f"R_{i} = {v}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suites = tuple(args.suite.split(",")) if args.suite else ALL_SUITES
    try:
        reports = run_suite(_config_from(args, suites))
    except ValueError as exc:
        print(f"configuration rejected: {exc}", file=sys.stderr)
        return 2
    return _emit_reports(reports, args.format)


def cmd_oracle(args: argparse.Namespace) -> int:
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
    p_const.add_argument("--out", help="directory for golden a.json / c.json tables")
    p_const.set_defaults(func=cmd_constants)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_window_args(p_verify)
    p_verify.add_argument(
        "--suite",
        help=f"comma-separated subset of: {', '.join(ALL_SUITES)}",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_thm = sub.add_parser("theorem", help="end-to-end identity only")
    _add_window_args(p_thm)
    p_thm.set_defaults(func=cmd_verify, suite="theorem")

    p_oracle = sub.add_parser("oracle", help="intersection-number tables as JSON")
    p_oracle.add_argument("--genus-max", type=int, default=2)
    p_oracle.add_argument("--max-insertions", type=int, default=4)
    p_oracle.add_argument("--max-index", type=int, default=8)
    p_oracle.set_defaults(func=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrossCheckError as exc:
        print(f"internal cross-check failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
