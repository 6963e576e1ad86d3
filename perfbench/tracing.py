"""Layer spans for a traced perfbench pass.

The tracer patches hodgeflow's public functions where the engine looks them
up: methods on their class, module functions in every hodgeflow module that
binds them.  Each wrapper records one span (name, parent, start, end) in
memory, updates exact work counts, and returns the wrapped call's result
unchanged.  Self time of a span is its duration minus the durations of its
child spans; spans nest strictly because a pass runs on one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict


def _count_apply(counts, parent, args, result):
    op, s = args
    counts["operators.apply.pairs"] += len(s.terms) * len(op.atoms)
    counts["operators.apply.terms_out"] += len(result.terms)
    if parent == "operators.exp_apply":
        counts["operators.exp_apply.steps"] += 1


def _count_compose(counts, parent, args, result):
    a, b = args
    counts["operators.compose.atom_pairs"] += len(a.atoms) * len(b.atoms)
    counts["operators.compose.atoms_out"] += len(result.atoms)


def _count_mul(counts, parent, args, result):
    a, b = args
    counts["series.mul.term_pairs"] += len(a.terms) * len(b.terms)
    counts["series.mul.terms_out"] += len(result.terms)


# (module, attribute, span name, counter).  "Class.method" patches the class;
# a plain name patches every hodgeflow module that imported the function.
LAYERS = (
    ("operators", "Operator.apply", "operators.apply", _count_apply),
    ("operators", "Operator.exp_apply", "operators.exp_apply", None),
    ("operators", "Operator.compose", "operators.compose", _count_compose),
    ("operators", "zassenhaus_tail", "operators.zassenhaus_tail", None),
    ("series", "Series.mul", "series.mul", _count_mul),
    ("series", "Series.add", "series.add", None),
    ("series", "Series.substitute", "series.substitute", None),
    ("virasoro", "build_virasoro", "virasoro.build_virasoro", None),
    ("hodge", "build_w_u", "hodge.build", None),
    ("hodge", "build_shift_u", "hodge.build", None),
    ("hodge", "build_p_u", "hodge.build", None),
    ("hodge", "w_omega_parts", "hodge.build", None),
    ("hodge", "theta_map", "hodge.build", None),
    ("special", "q_u", "special", None),
    ("special", "q_omega", "special", None),
    ("special", "r_poly", "special", None),
    ("special", "phi_tilde", "special", None),
    ("special", "solve_a_coeffs", "special", None),
    ("witten", "z_point", "witten.z_point", None),
    ("witten", "intersection", "witten.intersection", None),
    ("pipeline", "change_vars", "pipeline.change_vars", None),
    ("pipeline", "log_true_coefficient", "pipeline.log_true_coefficient", None),
)


class Tracer:
    def __init__(self) -> None:
        # span i is spans[i - 1] = [name, parent id, start ns, end ns]; id 0 is the pass
        self.spans: list[list] = []
        self.stack: list[int] = [0]
        self.counts: defaultdict[str, int] = defaultdict(int)

    def _wrap(self, name, fn, counter):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = [name, parent, 0, 0]
            spans.append(span)
            stack.append(len(spans))
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, spans[parent - 1][0] if parent else None, args, result)
            return result

        return wrapper

    def _probe_depth(self, fn):
        """Count ad-steps of the Zassenhaus tower without adding a span."""
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top and spans[top - 1][0] == "operators.zassenhaus_tail":
                counts["operators.zassenhaus_tail.depth"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "hodgeflow"]
        for module_name, attr, span_name, counter in LAYERS:
            home = sys.modules["hodgeflow." + module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, self._wrap(span_name, getattr(cls, meth), counter))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(span_name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        operator_cls = sys.modules["hodgeflow.operators"].Operator
        operator_cls.commutator = self._probe_depth(operator_cls.commutator)

    def summary(self) -> dict:
        """Exact counts (calls and work, which repeat exactly at one seed) and
        self seconds, per span name."""
        counts: dict[str, int] = dict(self.counts)
        child_ns = [0] * (len(self.spans) + 1)
        for name, parent, start, end in self.spans:
            child_ns[parent] += end - start
        self_ns: defaultdict[str, int] = defaultdict(int)
        for sid, (name, parent, start, end) in enumerate(self.spans, start=1):
            counts[name + ".calls"] = counts.get(name + ".calls", 0) + 1
            self_ns[name] += end - start - child_ns[sid]
        return {
            "counts": counts,
            "self_s": {name + ".self_s": ns / 1e9 for name, ns in self_ns.items()},
        }

    def overhead_s(self, probes: int = 200_000) -> float:
        """Estimated seconds the wrappers added to the pass: the number of
        spans times the cost of one wrapped call over a bare one, measured
        here on a no-op (the work counters are not included)."""
        def bare() -> None:
            return None

        wrapped = Tracer()._wrap("probe", bare, None)
        clock = time.perf_counter
        start = clock()
        for _ in range(probes):
            bare()
        middle = clock()
        for _ in range(probes):
            wrapped()
        end = clock()
        return len(self.spans) * max(0.0, (end - middle) - (middle - start)) / probes

    def write(self, path, pass_id: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, (name, parent, start, end) in enumerate(self.spans, start=1):
                fh.write(json.dumps([pass_id, sid, parent, name, start, end]) + "\n")
