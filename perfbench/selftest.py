"""Self-tests of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

They check that tracing leaves the program as it found it, that the
golden check catches a one-byte change, that every reported metric is
declared in BENCHMARK.json under a valid name, and that the harness
refuses to run where the program is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = workloads.Workload("tiny", "one small program", "sweep", ("sym6_145",))


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_sweep(tmp_path_factory):
    """A small sweep run in-process with every wrapper installed."""
    import repro.cli

    tmp = tmp_path_factory.mktemp("traced")
    originals = []
    for module_name, path, _layer in spans.TARGETS:
        owner, attribute = spans._resolve(module_name, path)
        originals.append((owner, attribute, getattr(owner, attribute)))
    recorder = spans.SpanRecorder(tmp)
    patches = spans.install(recorder)
    output = tmp / "output.json"
    try:
        start = bench.time.monotonic_ns()
        code = repro.cli.main(["sweep", "sym6_145", "--configs", "ibm", "eff-full",
                               "--trials", "200", "--local-trials", "100",
                               "--output", str(output)])
        end = bench.time.monotonic_ns()
    finally:
        spans.uninstall(patches)
        recorder.flush()
    assert code == 0
    return SimpleNamespace(originals=originals, spill=tmp, start=start, end=end,
                           text=output.read_text())


def test_wrappers_are_restored_after_a_traced_run(traced_sweep):
    for owner, attribute, original in traced_sweep.originals:
        assert getattr(owner, attribute) is original, f"{owner}.{attribute} left patched"
        assert not hasattr(getattr(owner, attribute), "__wrapped__")
    layers = {span.name for span in spans.load_spans(traced_sweep.spill)}
    assert {"mapping.route", "collision.yield", "design.alg3", "evaluation.task"} <= layers


def test_self_time_excludes_children():
    parent = spans.Span("a", 0, 10_000_000_000, 1, None, 1)
    child = spans.Span("b", 2_000_000_000, 5_000_000_000, 2, 1, 1)
    assert spans.layer_self_seconds([parent, child]) == {"a": 7.0, "b": 3.0}
    assert spans.top_level_coverage_s([parent, child], 0, 20_000_000_000) == 10.0


def test_golden_check_flags_a_one_byte_change(traced_sweep):
    text = traced_sweep.text
    golden = {"workloads": {TINY.name: workloads.golden_entry(TINY, {7: text})}}
    assert workloads.check_output(TINY, golden, 7, text).failed == 0
    assert workloads.check_output(TINY, golden, 8, text).failed == 0

    digit = re.search(r'"total_gates": \d+', text).end() - 1
    flipped = str((int(text[digit]) + 1) % 10)
    value_changed = text[:digit] + flipped + text[digit + 1:]
    for seed in (7, 8):  # a committed seed, and one checked by invariants
        check = workloads.check_output(TINY, golden, seed, value_changed)
        assert check.failed == 1, check.failures

    newline = text.index("\n")
    spacing_changed = text[:newline] + " " + text[newline + 1:]
    check = workloads.check_output(TINY, golden, 7, spacing_changed)
    assert check.failures == {"<output>": "output bytes differ from golden"}


def test_missing_points_count_as_failed(traced_sweep):
    golden = {"workloads": {TINY.name: workloads.golden_entry(TINY, {7: traced_sweep.text})}}
    data = json.loads(traced_sweep.text)
    data["sym6_145"] = data["sym6_145"][1:]
    check = workloads.check_output(TINY, golden, 7, json.dumps(data))
    assert check.failed == 1 and check.attempted == len(json.loads(traced_sweep.text)["sym6_145"])


def test_reported_names_are_declared_and_valid(traced_sweep):
    declared = _benchmark_json()
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in declared[group]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names), names
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WORKLOADS[w["name"]].why for w in declared["workloads"])

    op = {"wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
    reported = bench.end_to_end([op], [0.5], 0.0, 1.0)
    assert set(reported) == {m["name"] for m in declared["end_to_end"]}

    child = {"start_ns": 0, "import_ns": 1, "ready_ns": 2}
    fake_run = SimpleNamespace(workload=TINY, children=[child], warm_rewrites=0)
    traced = {"spill": traced_sweep.spill, "op_start_ns": traced_sweep.start,
              "op_end_ns": traced_sweep.end, "metrics": {"counters": {}, "timers": {}},
              "wall_s": (traced_sweep.end - traced_sweep.start) / 1e9,
              "store_dir": traced_sweep.spill}
    untraced = dict(traced, text=traced_sweep.text)
    layers = bench.layer_metrics(fake_run, traced, untraced, 0.0,
                                 traced_sweep.spill / "trace.json")
    assert set(layers) == {m["name"] for m in declared["per_layer"]}
    assert layers["mapping.routes"] > 0 and layers["evaluation.attribution_coverage"] > 0.9


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig10-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
