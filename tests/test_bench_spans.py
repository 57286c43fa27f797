"""Every callable that the benchmark's span tracer wraps still resolves.

``bench/spans.py`` looks its targets up by name when ``bench/run.py
--trace 1`` starts; a rename that would break that run fails here first.
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
