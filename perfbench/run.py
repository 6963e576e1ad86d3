"""Exact-verification benchmark for hodgeflow.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0

``all`` runs the workloads listed in BENCHMARK.json, one after the other.

Run from the repository root.  Closed loop, one client: passes run one at a
time, each in a fresh interpreter (worker.py), with no threads.  Every check
of every pass is compared with manifest.json: a check fails if it did not
PASS, raised, or its identity, pairing, case count or value differs.

Both modes start whole passes until --seconds have passed (at least one,
and none likely to end after DEADLINE_S).  --trace 0 runs them untraced and
reports the end-to-end metrics of BENCHMARK.json: median wall_ref and
peak_rss_mb over the passes, median setup_s over the passes and SETUP_PROBES
extra start-ups.  wall_ref is a pass's time to its last verdict divided by
the median time of the reference computation that worker.py samples during
that pass, so that it does not move with the host's speed; the plain
seconds (median wall_s) are printed and kept in the run record.  --trace 1
runs them traced and reports the per-layer metrics: exact work counts, which
must be equal in every pass of the run and equal to those of any earlier
traced run of the same sources at the same seed, and median self times.

The last line of stdout is one JSON object {correct, attempted, failed,
metrics}; a human summary goes to stderr and a full record to .perfbench/.
The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
# verify-hyperbolic2 (one ~60 s pass) can be run by name; BENCHMARK.json
# lists only the workloads whose runs can average several passes
WORKLOADS = ("verify-hyperbolic2", "bridge-deep", "theorem-deep")
SETUP_PROBES = 30
SEED_STRIDE = 20  # a bridge-deep pass at seed s reads the inputs of seeds s..s+13
DEADLINE_S = 170.0  # a run must end within 180 s


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def source_hash() -> str:
    """sha256 over the hodgeflow sources and the workload definitions, so
    counts are compared only between runs of the same code on the same work."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hodgeflow").glob("*.py")) + [HERE / "worker.py"]:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def pass_seed(seed: int, index: int) -> int:
    """Seed of the index-th untraced pass of a run.  The passes of a run, and
    runs at different seeds, get disjoint inputs, so that the median over a
    run's passes also averages over inputs; traced passes all use index 0,
    so that their counts can be compared exactly."""
    return 1000 * seed + SEED_STRIDE * index


def run_worker(workload: str, seed: int, mode: str, timeout: float, index: int = 0) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON report."""
    spans = OUT / "spans" / f"{workload}-seed{seed}-pass{index}.jsonl.gz"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one hash seed for every pass, so dict layouts do not vary between seeds
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--spans", str(spans)]
    proc = subprocess.Popen(cmd + ["--spawned", repr(time.monotonic())],
                            stdout=subprocess.PIPE, env=env, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} pass killed after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not stdout.strip():
        return {"error": f"{mode} pass exited with code {proc.returncode}"}
    return json.loads(stdout.strip().splitlines()[-1])


def gate(expected: list[dict], report: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one pass against its manifest entries."""
    got = report.get("checks", [])
    attempted = max(len(expected), len(got))
    problems = []
    for i in range(attempted):
        want = expected[i] if i < len(expected) else None
        have = got[i] if i < len(got) else None
        if have is None:
            problems.append(f"missing {want['identity']}")
        elif want is None:
            problems.append(f"unexpected {have['identity']}")
        elif not have["passed"]:
            problems.append(f"FAIL {have['identity']}")
        elif any(have.get(k) != v for k, v in want.items()):
            problems.append(f"{have['identity']}: got {have}, manifest {want}")
    failed = len(problems)
    if report.get("error"):
        problems.insert(0, report["error"])
        failed = max(failed, 1)
    return attempted, failed, problems


def count_mismatches(counts: dict, other: dict, where: str) -> list[str]:
    return [f"count {k}: {counts.get(k)} != {other.get(k)} {where}"
            for k in sorted(set(counts) | set(other)) if counts.get(k) != other.get(k)]


def repeat_check(workload: str, seed: int, traced: list[dict]) -> list[str]:
    """Exact counts of every traced pass against the first pass of this run and
    against an earlier traced run of the same sources at this seed."""
    counts = traced[0]["layers"]["counts"]
    problems = [p for i, t in enumerate(traced[1:], start=1)
                for p in count_mismatches(t["layers"]["counts"], counts, f"in pass {i} and pass 0")]
    path = OUT / "counts" / f"{workload}-seed{seed}-src{source_hash()}.json"
    if path.exists():
        problems += count_mismatches(counts, json.loads(path.read_text()), "in an earlier run")
    else:
        path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    return problems


def per_layer(traced: list[dict]) -> dict:
    """Counts of the first traced pass, medians of the times over all of them."""
    values = dict(traced[0]["layers"]["counts"])
    for name in {k for t in traced for k in t["layers"]["self_s"]}:
        values[name] = statistics.median(t["layers"]["self_s"].get(name, 0.0) for t in traced)
    for layer, pairs in (("operators.apply", "pairs"), ("series.mul", "term_pairs")):
        done = values.get(f"{layer}.{pairs}", 0)
        values[f"{layer}.yield"] = values.get(f"{layer}.terms_out", 0) / done if done else 0.0
    values["trace.overhead_s"] = statistics.median(t["layers"]["overhead_s"] for t in traced)
    values["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    values["process.cpu_s"] = statistics.median(t["cpu_s"] for t in traced)
    return values


def measure(workload: str, seed: int, seconds: int, trace: bool,
            expected: list[dict], names: list[str]) -> dict:
    """One benchmark run of one workload; returns the full record."""
    started = time.monotonic()
    deadline = started + DEADLINE_S
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "environment": environment()}
    setups: list[float] = []
    extra_problems: list[str] = []
    values: dict = {}

    def probe_setup(count: int) -> None:
        for _ in range(count):
            probe = run_worker(workload, seed, "setup", deadline - time.monotonic())
            setups.extend([probe["setup_s"]] if "setup_s" in probe else [])

    # half the set-up probes before the passes and half after, so their
    # median spans the whole run rather than one moment of it
    if not trace:
        probe_setup(SETUP_PROBES // 2)
    passes: list[dict] = []
    while True:
        passes.append(run_worker(workload, pass_seed(seed, 0 if trace else len(passes)),
                                 "traced" if trace else "pass",
                                 deadline - time.monotonic(), len(passes)))
        elapsed = time.monotonic() - started
        last = passes[-1].get("wall_s")
        if last is None or elapsed >= seconds or elapsed + 1.25 * last > DEADLINE_S:
            break
    if trace:
        if all("layers" in p for p in passes):
            extra_problems = repeat_check(workload, pass_seed(seed, 0), passes)
            layers = per_layer(passes)
            # a layer the workload never calls reads 0
            values = {name: layers.get(name, 0) for name in names}
            record["samples"] = {"traced": len(passes)}
    else:
        probe_setup(SETUP_PROBES - SETUP_PROBES // 2)
        if all("reference_s" in p for p in passes):
            setups += [p["setup_s"] for p in passes]
            values = {
                "wall_ref": statistics.median(p["wall_s"] / p["reference_s"] for p in passes),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
            }
            record["samples"] = {"wall_ref": len(passes), "setup_s": len(setups)}
            record["wall_s"] = statistics.median(p["wall_s"] for p in passes)
            record["reference_s"] = statistics.median(p["reference_s"] for p in passes)
            record["process.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        a, f, why = gate(expected, p)
        attempted, failed, problems = attempted + a, failed + f, problems + why
    if trace:
        attempted += 1
        failed += bool(extra_problems)
        problems += extra_problems
    record["environment"]["loadavg_end"] = list(os.getloadavg())
    record.update(values=values, attempted=attempted, failed=failed,
                  problems=problems, passes=passes, elapsed_s=time.monotonic() - started)
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # a terminated run still kills and reaps its running pass (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "hodgeflow" / "__init__.py").is_file():
        print(f"no hodgeflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    manifest = json.loads((HERE / "manifest.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for sub in ("spans", "counts", "runs"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
    attempted = failed = 0
    complete = True
    metrics: dict = {}
    for workload in workloads:
        record = measure(workload, args.seed, args.seconds, bool(args.trace),
                         manifest[workload]["checks"], [m["name"] for m in wanted])
        name = f"{workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        (OUT / "runs" / name).write_text(json.dumps(record, indent=1))
        attempted += record["attempted"]
        failed += record["failed"]
        prefix = workload + "/" if args.workload == "all" else ""
        print(f"{workload} seed={args.seed} trace={args.trace} "
              f"samples={record.get('samples')} load={record['environment']['loadavg']}",
              file=sys.stderr)
        for m in wanted:
            if m["name"] in record["values"]:
                value = record["values"][m["name"]]
                metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"  {m['name']:<40} {value:>14.6g} {m['unit']}", file=sys.stderr)
            else:
                complete = False
        if "wall_s" in record:
            print(f"  {'wall_s (not normalised)':<40} {record['wall_s']:>14.6g} s", file=sys.stderr)
        share = record["failed"] / record["attempted"]
        print(f"  {'fail_share':<40} {share:>14.6g} ({record['failed']}/{record['attempted']})",
              file=sys.stderr)
        for problem in record["problems"][:10]:
            print(f"  problem: {problem}", file=sys.stderr)

    correct = failed == 0 and complete
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
