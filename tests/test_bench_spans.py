"""Every callable that the benchmark's span tracer wraps still resolves.

``bench/spans.py`` looks its targets up by name when ``bench/run.py
--trace 1`` starts; a rename that would break that run fails here first,
and so does a call path that stops going through a wrapped callable.
"""

import importlib.util

from csepsolve import baselines, geometry, harness, hybrid, outcome, problems

from conftest import REPO_ROOT


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", REPO_ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    entries = load_spans().targets(harness=harness, hybrid=hybrid, baselines=baselines,
                                   geometry=geometry, problems=problems, outcome=outcome)
    assert entries
    for owner, attr, name, _ in entries:
        # class attributes are read from __dict__, as Tracer.install reads them
        found = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(found), f"span {name}: {owner.__name__}.{attr} does not resolve"


def test_the_two_cut_path_records_its_spans():
    # a maxsel iteration projects onto two cuts and checks them row by row,
    # so each of these spans must record, or the benchmark's per-layer
    # numbers for the two-cut path read zero
    spans = load_spans()
    entries = spans.targets(harness=harness, hybrid=hybrid, baselines=baselines,
                            geometry=geometry, problems=problems, outcome=outcome)
    tracer = spans.Tracer()
    tracer.install(entries)
    try:
        out = harness.run(harness.RunSpec(str(REPO_ROOT / "problems" / "csep3_mixed_3d.json"),
                                          "maxsel", max_outer=20))
    finally:
        tracer.restore()
    assert out.iterations == 20
    calls = tracer.layer_totals()[0]
    for name in ("hybrid.check", "geometry.two_halfspace", "geometry.anchor_project"):
        assert calls[name] > 0, f"span {name} recorded nothing"
