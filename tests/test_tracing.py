"""The benchmark's tracer still reaches every library function it times.

`perfbench/tracing.py` names library functions by module and attribute; a
deletion or rename in the library would break the traced benchmark, whose
own tests lie outside this suite. The tracer is loaded from its file as is.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from daverify import cli, henkin
from daverify.cli import RunConfig

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("daverify_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings() -> dict:
    """Every (namespace, key) -> object the tracer may replace."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "daverify" or name.startswith("daverify.")):
            out.update({(name, key): value for key, value in vars(module).items()})
    out.update({("cli._SUBCOMMANDS", key): value for key, value in cli._SUBCOMMANDS.items()})
    cls = henkin.PushforwardMeasure
    out.update({(cls.__qualname__, key): value for key, value in vars(cls).items()})
    return out


def _traced_originals(tracing) -> list:
    """The object each BOUNDARIES entry names; AttributeError if one is gone."""
    out = []
    for module_name, attr, _ in tracing.BOUNDARIES:
        owner = importlib.import_module(f"daverify.{module_name}")
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = vars(getattr(owner, cls_name))
            out.append(owner[attr])
        else:
            out.append(getattr(owner, attr))
    return out


def test_tracer_wraps_every_boundary_binding_and_restores_it(tmp_path, monkeypatch):
    tracing = _load_tracing()
    before = _bindings()
    originals = _traced_originals(tracing)
    traced_ids = {id(fn) for fn in originals}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings()
        monkeypatch.chdir(tmp_path)
        assert cli.run(RunConfig(command="henkin-check", params={"dim": 4, "maxdeg": 4})) == 0
    finally:
        tracer.uninstall()
    after = _bindings()

    # every name bound to a traced function, in every module, was wrapped
    unwrapped = [key for key, value in before.items()
                 if id(value) in traced_ids and getattr(during[key], "__wrapped__", None)
                 is not value]
    assert unwrapped == []
    assert all(during[key].__wrapped__ is value for key, value in before.items()
               if key[0] == "cli._SUBCOMMANDS")
    names = {span.name for span in tracer.spans}
    assert {"cli.stage.henkin-check-d4", "henkin.henkin_identity_check",
            "norms.da_inner"} <= names
    assert [key for key, value in before.items() if after.get(key) is not value] == []



def test_kernel_and_witness_reach_the_sites_the_benchmark_requires(tmp_path, monkeypatch):
    # kernel-table's exact rows share one list of closed forms, and witness's
    # two norm routes are two build_witness calls; the benchmark's own tests
    # require these two call sites to stay
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        monkeypatch.chdir(tmp_path)
        assert cli.run(RunConfig(command="kernel-table", params={"dim": 2, "n": 10})) == 0
        assert cli.run(RunConfig(command="witness", params={"dim": 2, "n": 4})) == 0
    finally:
        tracer.uninstall()
    sites = {(span.name, span.site) for span in tracer.spans}
    assert ("norms.r_power_norm_sq", "disc_kernel") in sites
    assert ("disc_kernel.build_kernel_sequence", "henkin") in sites
