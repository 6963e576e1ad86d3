"""The names the perfbench harness patches and calls must keep resolving.

perfbench/tracing.py patches the LAYERS it lists and perfbench/worker.py calls
hodgeflow through the package; a rename or deletion in hodgeflow would only
show when the benchmark runs, so it is caught here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import hodgeflow as hf

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    for module_name, attr, _span, _counter in _load("tracing").LAYERS:
        target = importlib.import_module(f"hodgeflow.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, attr)


def test_worker_calls_resolve():
    # each call as worker.py makes it: the names exist and accept the arguments
    calls = [
        (
            hf.pipeline.verify_substitution_bridge,
            (None, None),
            dict(n_max=6, seed=0, random_count=4),
        ),
        (hf.pipeline.log_true_coefficient, (None, 0, None), {}),
        (hf.verify_hodge_to_gw, (None, None), dict(label="theorem[point-dvv]")),
        (hf.build_w_u, (None, None), {}),
        (hf.z_point, (None,), dict(genus_max=2, offset=0)),
        (hf.witten.default_hbar_offset, (None,), {}),
        (hf.run_suite, (None,), {}),
        (hf.pairing_from_spec, ("point",), {}),
        (hf.Monomial.build, ({},), {}),
        (hf.t_var, (0,), {}),
    ]
    for fn, args, kwargs in calls:
        inspect.signature(fn).bind(*args, **kwargs)
    config = hf.VerificationConfig(pairing_spec="hyperbolic2", seed=0)
    assert config.pairing_spec == "hyperbolic2"
    trunc = hf.Truncation(6, 15, 8, 3, 0)
    assert trunc.replace(max_var_index=7).max_var_index == 7
    assert hf.series.PARAM_U.kind == "u"


def test_tracer_depth_probe_resolves():
    # Tracer.install wraps Operator.commutator to count ad-steps, outside LAYERS
    assert callable(hf.operators.Operator.commutator)
    inspect.signature(hf.operators.Operator.commutator).bind(None, None)


def test_intersection_recurses_through_the_module_name(monkeypatch):
    # the tracer counts witten.intersection.calls by patching the module name,
    # so the recursion must call back through it rather than a local binding
    original = hf.witten.intersection
    calls = {"all": 0, "top": 0, "depth": 0}

    def counting(*args):
        calls["all"] += 1
        calls["top"] += calls["depth"] == 0
        calls["depth"] += 1
        try:
            return original(*args)
        finally:
            calls["depth"] -= 1

    monkeypatch.setattr(hf.witten, "intersection", counting)
    monkeypatch.setattr(hf.witten, "_MEMO", {})
    hf.witten.genus_potential(2, hf.Truncation(4, 7, 0, 0, 0))
    assert calls["top"] > 0
    assert calls["all"] > calls["top"]
