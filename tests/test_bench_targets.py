"""The benchmark's tracer finds every function it wraps.

bench/spans.py looks its targets up by name, so a deleted or renamed target
would first fail in a traced benchmark run; here it fails in the suite.
"""

import importlib.util
from pathlib import Path

from bihomcheck import cli, exactlin

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_traced_target_exists():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    run_trials, compose = cli._run_trials, exactlin.compose
    # _plan looks up every target and cli._run_trials, and binds nothing
    assert spans.Tracer()._plan()
    assert cli._run_trials is run_trials and exactlin.compose is compose
