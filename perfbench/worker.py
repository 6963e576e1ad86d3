"""One pass of a perfbench workload, in a fresh interpreter.

run.py starts this script once per pass, so every pass begins with cold memo
tables, just like each ``hodgeflow verify`` a user runs.  It prints one JSON
object on stdout: the set-up time, the pass's wall and CPU time, its peak RSS,
and one record per check (identity, pairing, cases, verdict).  run.py judges
the checks against the manifest; this script only reports them.

Modes: ``setup`` stops once hodgeflow is imported and the pairings are loaded;
``pass`` runs the workload untraced; ``traced`` runs it under tracing.Tracer
and writes the spans to --spans.

In ``pass`` mode an interval timer interrupts the workload every
REFERENCE_PERIOD_S and times one run of reference(), a fixed stdlib
computation, in the same process.  The host's speed drifts by up to a factor
of two over minutes, and these samples track it during the pass itself;
run.py divides the pass time by their median.  The time spent in the samples
is left out of ``wall_s``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
REFERENCE_PERIOD_S = 0.25  # one sample takes about 6 ms, about 2% of the pass


def reference() -> None:
    """Fraction sums and a tuple-keyed dict, the kind of interpreter work the
    workloads do, but no hodgeflow code: its time moves with the host only."""
    total = Fraction(0)
    table = {}
    for i in range(1, 1200):
        total += Fraction(i % 97, i)
        table[i, i % 13] = total.numerator % 1000


def sample_reference(samples: list) -> None:
    """Time reference() every REFERENCE_PERIOD_S until the timer is cleared."""

    def sample(signum, frame) -> None:
        started = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - started)

    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD_S, REFERENCE_PERIOD_S)


def _record(checks: list, report) -> None:
    checks.append(
        {
            "identity": report.identity,
            "pairing": report.pairing,
            "cases": report.cases,
            "passed": report.passed,
        }
    )


def verify_hyperbolic2(hf, pairings, seed: int, checks: list) -> dict:
    """`hodgeflow verify --pairing hyperbolic2` at the default windows."""
    config = hf.VerificationConfig(pairing_spec="hyperbolic2", seed=seed)
    for report in hf.run_suite(config):
        _record(checks, report)
    return {"suite_seed": seed}


def bridge_deep(hf, pairings, seed: int, checks: list) -> dict:
    """The substitution bridge in the acceptance window, n <= 6."""
    trunc = hf.Truncation(2, 13, 14, 0, 0)
    runs = (("point", seed, 10), ("hyperbolic2", seed + 10, 4))
    for name, run_seed, count in runs:
        report = hf.pipeline.verify_substitution_bridge(
            pairings[name], trunc, n_max=6, seed=run_seed, random_count=count
        )
        _record(checks, report)
    return {name + "_seed": run_seed for name, run_seed, _ in runs}


def theorem_deep(hf, pairings, seed: int, checks: list) -> dict:
    """Main identity on the recursion-generated point series, then its genus-1
    one-point log coefficient.  The inputs do not depend on the seed."""
    point = pairings["point"]
    trunc = hf.Truncation(6, 15, 8, 3, 0)
    z_trunc = trunc.replace(max_var_index=7)
    offset = hf.witten.default_hbar_offset(z_trunc)
    z = hf.z_point(z_trunc, genus_max=2, offset=offset).truncated(trunc)
    _record(checks, hf.verify_hodge_to_gw(z, point, label="theorem[point-dvv]"))
    flowed = hf.build_w_u(point, trunc).exp_apply(z)
    target = hf.Monomial.build({hf.t_var(0): 1}, {hf.series.PARAM_U: 2})
    got = hf.pipeline.log_true_coefficient(flowed, offset, target)
    checks.append(
        {
            "identity": "log coefficient u^2 t[0,0]",
            "pairing": point.name,
            "cases": 1,
            "passed": isinstance(got, Fraction),
            "value": str(got),
        }
    )
    return {}


WORKLOADS = {
    "verify-hyperbolic2": (verify_hyperbolic2, ("hyperbolic2",)),
    "bridge-deep": (bridge_deep, ("point", "hyperbolic2")),
    "theorem-deep": (theorem_deep, ("point",)),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() in run.py just before this process started")
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--spans", help="gzip JSON-lines span file (traced mode)")
    args = parser.parse_args()

    import hodgeflow as hf

    if Path(hf.__file__).resolve().parent != SRC / "hodgeflow":
        print(f"imported hodgeflow from {hf.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    run_workload, pairing_specs = WORKLOADS[args.workload]
    pairings = {spec: hf.pairing_from_spec(spec) for spec in pairing_specs}
    out: dict = {"setup_s": time.monotonic() - args.spawned}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    checks: list = []
    samples: list = []
    error = None
    if args.mode == "pass":
        sample_reference(samples)
    started = time.perf_counter()
    try:
        out["inputs"] = run_workload(hf, pairings, args.seed, checks)
    except Exception as exc:  # a check that raises is a failed check, not a crash
        error = f"{type(exc).__name__}: {exc}"
    signal.setitimer(signal.ITIMER_REAL, 0)
    out["wall_s"] = time.perf_counter() - started - sum(samples)
    if samples:
        out["reference_s"] = statistics.median(samples)
        out["reference_samples"] = len(samples)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_kb=usage.ru_maxrss,
        checks=checks,
        error=error,
    )
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["layers"]["overhead_s"] = tracer.overhead_s()
        tracer.write(args.spans, Path(args.spans).name.removesuffix(".jsonl.gz"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
