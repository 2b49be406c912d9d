"""Tests of the benchmark itself: the traced run's wrappers reach every
binding site and come off cleanly, counts and spans repeat exactly, and the
benchmark refuses to run without the library's sources.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from daverify import cli, henkin  # noqa: E402

# (span name, namespace the call came through) that a traced verdict-default
# pass must record: the functions other modules bind by name, and the stages
# the CLI reaches through _SUBCOMMANDS.
BOUNDARY_SITES = [
    ("norms.da_inner", "henkin"),
    ("norms.monomial_norm_sq", "henkin"),
    ("disc_kernel.build_kernel_sequence", "henkin"),
    ("exact.multi_indices", "henkin"),
    ("norms.monomial_norm_sq", "compression"),
    ("norms.r_power_norm_sq", "compression"),
    ("exact.multi_indices", "compression"),
    ("norms.r_power_norm_sq", "disc_kernel"),
] + [(f"cli.stage.{stage}", "cli") for stage in tracing.STAGES]

COUNT_SUFFIXES = ("_calls", "_updates", "_phases", "_pairs", "_checked", "_evals",
                  "_entries", "_terms", "report_bytes")


def bindings() -> dict:
    """Every (namespace, key) -> object a tracer may replace."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "daverify" or name.startswith("daverify.")):
            out.update({(name, key): value for key, value in vars(module).items()})
    for key, value in cli._SUBCOMMANDS.items():
        out[("cli._SUBCOMMANDS", key)] = value
    cls = henkin.PushforwardMeasure
    out.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return out


@pytest.fixture(scope="module")
def traced_verdict(tmp_path_factory):
    before = bindings()
    workloads.reset_caches()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = workloads.verdict_pass(workloads.verdict_inputs(0),
                                     tmp_path_factory.mktemp("verdict"))
    finally:
        tracer.uninstall()
    return before, tracer, out


def test_traced_pass_records_a_span_at_every_boundary(traced_verdict):
    _, tracer, out = traced_verdict
    recorded = {(span.name, span.site) for span in tracer.spans}
    assert [site for site in BOUNDARY_SITES if site not in recorded] == []
    checks, _ = workloads.verdict_checks(out)
    assert [name for name, ok in checks if not ok] == []


def test_uninstall_restores_the_original_objects(traced_verdict):
    before, _, _ = traced_verdict
    after = bindings()
    assert [key for key, value in before.items() if after.get(key) is not value] == []


def _traced_pass(workdir: Path) -> tuple[dict, dict]:
    """The layer metrics and the written spans of one traced worker pass."""
    workdir.mkdir()
    spans = workdir / "spans.json.gz"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "verdict-default",
         "--seed", "3", "--trace", "1", "--workdir", str(workdir), "--spans", str(spans)],
        capture_output=True, text=True, check=True, timeout=170)
    with gzip.open(spans, "rt", encoding="utf-8") as fh:
        return json.loads(proc.stdout.splitlines()[-1])["layers"], json.load(fh)


def test_count_metrics_repeat_exactly_for_one_seed(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    counts = [m["name"] for m in spec["per_layer"] if m["name"].endswith(COUNT_SUFFIXES)]
    assert sorted(counts) == sorted(tracing.COUNT_METRICS)
    first, first_spans = _traced_pass(tmp_path / "first")
    second, second_spans = _traced_pass(tmp_path / "second")
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert [m for m in counts if first[m] <= 0] == []
    # The written spans repeat too, up to their times.
    assert first_spans["fields"] == ["name", "site", "start", "end", "parent"]
    assert ([(n, s, p) for n, s, _, _, p in first_spans["spans"]]
            == [(n, s, p) for n, s, _, _, p in second_spans["spans"]])
    assert len(first_spans["spans"]) > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verdict-default",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
