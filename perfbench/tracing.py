"""Spans around the calls into each daverify module's public functions.

`Tracer.install` puts a timing wrapper at every place a traced function is
reachable by name: its defining module, every other daverify module that
imported it by name (``henkin`` binds ``da_inner``, ``compression`` binds
``monomial_norm_sq``, ...), ``PushforwardMeasure.sample`` on its class, and the
CLI's ``_SUBCOMMANDS`` table. Each binding site gets its own wrapper, so a
span also records which namespace the call came through.

Spans are kept in memory: a name, the binding site, a start, an end and the
index of the enclosing span. `Tracer.dump_spans` writes them out once the
pass is over. `Tracer.uninstall` puts the original objects back, so untraced
passes run unwrapped code.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import operator
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from daverify import cantor, cli, henkin, norms

# Captured before any wrapper is installed: the wrappers hide cache_info().
_MONOMIAL_NORM_SQ = norms.monomial_norm_sq

# The 15 stages of `daverify all`, named `<command>` or `<command>-d<dim>`.
STAGES = (
    "verify-norms", "verify-isometry", "kernel-table-d2", "kernel-table-d4",
    "cantor-fourier", "cantor-energy", "moments-d4", "moments-d2",
    "henkin-check-d4", "henkin-check-d2", "witness-d4", "witness-d2",
    "peak-check", "compression-d2", "compression-d4",
)


def stage_name(cfg) -> str:
    return cfg.command if cfg.dim is None else f"{cfg.command}-d{cfg.dim}"


class Span(NamedTuple):
    name: str
    site: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level


class Call:
    """The arguments of one traced call, bound to parameter names on demand."""

    def __init__(self, fn, args, kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs

    def __getitem__(self, name):
        bound = _signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


_signature = functools.cache(inspect.signature)

# A counter adds to Tracer.counts from one call and its result.
CountFn = Callable[[Counter, Call, object], None]


def _recursion_updates(entries: int, max_n: int, eps: float) -> int:
    return entries * cantor.recursion_depth(max_n, eps)


def _count_table_recursion(c, call, result):
    c["cantor.recursion_updates"] += _recursion_updates(
        2 * call["max_n"] + 1, call["max_n"], call["eps"])


def _count_weighted_sum(c, call, result):
    c["cantor.recursion_updates"] += _recursion_updates(call["N"] + 1, call["N"], call["eps"])


def _count_weighted_partials(c, call, result):
    if call["Ns"]:
        n_max = max(call["Ns"])
        c["cantor.recursion_updates"] += _recursion_updates(n_max + 1, n_max, call["eps"])


def _count_ifs(c, call, result):
    c["cantor.ifs_phases"] += (2 * call["max_n"] + 1) * 2 ** call["level"]


def _count_energy(c, call, result):
    c["cantor.energy_pairs"] += 4 ** call["level"]


def _count_da_inner(c, call, result):
    c["norms.da_inner_calls"] += 1


def _count_isometry(c, call, result):
    c["norms.isometry_terms"] += len(call["f_coeffs"])


def _count_identity(c, call, result):
    c["henkin.identity_checked"] += result.checked


def _count_mc(c, call, result):
    c["henkin.mc_evals"] += call["samples"]


def _count_mc_batch(c, call, result):
    c["henkin.mc_evals"] += call["samples"] * len(result)


def _count_peak(c, call, result):
    c["henkin.peak_kept"] += result.kept
    c["henkin.peak_rejected"] += result.rejected


def _count_matrix(c, call, result):
    c["compression.matrix_entries"] += result.entries.size


def _count_report(c, call, result):
    c["reports.report_bytes"] += os.path.getsize(call["path"])


# (module, attribute, counter); the span name is "<module>.<attribute>".
BOUNDARIES: tuple[tuple[str, str, Optional[CountFn]], ...] = (
    ("exact", "multi_indices", None),
    ("norms", "monomial_norm_sq", None),
    ("norms", "r_power_norm_sq", None),
    ("norms", "da_inner", _count_da_inner),
    ("norms", "isometry_check", _count_isometry),
    ("norms", "stirling_ratio", None),
    ("disc_kernel", "build_kernel_sequence", None),
    ("disc_kernel", "float_coeff_sequence", None),
    ("cantor", "fourier_table_recursion", _count_table_recursion),
    ("cantor", "weighted_fourier_sum", _count_weighted_sum),
    ("cantor", "weighted_fourier_partials", _count_weighted_partials),
    ("cantor", "fourier_table_ifs", _count_ifs),
    ("cantor", "riesz_energy", _count_energy),
    ("henkin", "henkin_identity_check", _count_identity),
    ("henkin", "non_henkin_witness", None),
    ("henkin", "mc_moment", _count_mc),
    ("henkin", "mc_moment_batch", _count_mc_batch),
    ("henkin", "PushforwardMeasure.sample", None),
    ("henkin", "peak_check", _count_peak),
    ("compression", "mult_matrix", _count_matrix),
    ("compression", "top_singular_value", None),
    ("reports", "make_report", None),
    ("reports", "dump_report", _count_report),
)

# Per-layer time metrics: inclusive span time summed over the listed spans.
TIME_METRICS = {
    "exact.multi_indices_s": ("exact.multi_indices",),
    "norms.da_inner_s": ("norms.da_inner",),
    "norms.stirling_ratio_s": ("norms.stirling_ratio",),
    "norms.isometry_check_s": ("norms.isometry_check",),
    "disc_kernel.build_kernel_sequence_s": ("disc_kernel.build_kernel_sequence",),
    "disc_kernel.float_coeff_sequence_s": ("disc_kernel.float_coeff_sequence",),
    "cantor.recursion_s": ("cantor.fourier_table_recursion", "cantor.weighted_fourier_sum",
                           "cantor.weighted_fourier_partials"),
    "cantor.ifs_s": ("cantor.fourier_table_ifs",),
    "cantor.energy_s": ("cantor.riesz_energy",),
    "henkin.non_henkin_s": ("henkin.non_henkin_witness",),
    "henkin.sample_s": ("henkin.PushforwardMeasure.sample",),
    "henkin.peak_s": ("henkin.peak_check",),
    "compression.mult_matrix_s": ("compression.mult_matrix",),
    "compression.top_singular_value_s": ("compression.top_singular_value",),
    "reports.make_report_s": ("reports.make_report",),
    "reports.dump_report_s": ("reports.dump_report",),
}
# Self time: the span minus the part its traced children cover.
SELF_TIME_METRICS = {
    "henkin.identity_s": ("henkin.henkin_identity_check",),
    "henkin.mc_s": ("henkin.mc_moment", "henkin.mc_moment_batch"),
}
COUNT_METRICS = (
    "norms.da_inner_calls", "norms.isometry_terms", "cantor.recursion_updates",
    "cantor.ifs_phases", "cantor.energy_pairs", "henkin.identity_checked",
    "henkin.mc_evals", "compression.matrix_entries", "reports.report_bytes",
)


def _daverify_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "daverify" or name.startswith("daverify."))]


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._open = [-1]
        self._undo: list[tuple] = []

    def _wrap(self, fn, name, site: str, counter: Optional[CountFn]):
        spans, open_, counts = self.spans, self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1]
            open_.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[index] = Span(name(*args) if callable(name) else name,
                                    site, start, end, parent)
            if counter is not None:
                counter(counts, Call(fn, args, kwargs), result)
            return result

        return traced

    def _replace(self, setter, owner, key, original, wrapper) -> None:
        setter(owner, key, wrapper)
        self._undo.append((setter, owner, key, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = _daverify_modules()
        for module_name, attr, counter in BOUNDARIES:
            home = importlib.import_module(f"daverify.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = vars(cls)[method]
                self._replace(setattr, cls, method, original,
                              self._wrap(original, name, module_name, counter))
                continue
            original = getattr(home, attr)
            for module in modules:
                site = module.__name__.rpartition(".")[2]
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(setattr, module, key, original,
                                      self._wrap(original, name, site, counter))
        for key, original in list(cli._SUBCOMMANDS.items()):
            self._replace(operator.setitem, cli._SUBCOMMANDS, key, original,
                          self._wrap(original, lambda cfg: f"cli.stage.{stage_name(cfg)}",
                                     "cli", None))

    def uninstall(self) -> None:
        while self._undo:
            setter, owner, key, original = self._undo.pop()
            setter(owner, key, original)

    def dump_spans(self, path: Path, **header) -> None:
        """Write the spans as gzipped JSON: the header's keys, then one
        [name, site, start, end, parent] list per span, with times in seconds
        of time.perf_counter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({**header, "fields": list(Span._fields), "spans": self.spans}, fh)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far (see README)."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                children[span.parent] += span.end - span.start
        for i, span in enumerate(self.spans):
            total[span.name] += span.end - span.start
            self_time[span.name] += span.end - span.start - children[i]

        metrics = {f"cli.stage.{stage}_s": float(total[f"cli.stage.{stage}"])
                   for stage in STAGES}
        for metric, names in TIME_METRICS.items():
            metrics[metric] = sum((total[n] for n in names), 0.0)
        for metric, names in SELF_TIME_METRICS.items():
            metrics[metric] = sum((self_time[n] for n in names), 0.0)
        for metric in COUNT_METRICS:
            metrics[metric] = self.counts[metric]

        identity_total = total["henkin.henkin_identity_check"]
        metrics["henkin.identity_per_s"] = (
            self.counts["henkin.identity_checked"] / identity_total if identity_total else 0.0)
        peak_samples = self.counts["henkin.peak_kept"] + self.counts["henkin.peak_rejected"]
        metrics["henkin.peak_kept_ratio"] = (
            self.counts["henkin.peak_kept"] / peak_samples if peak_samples else 0.0)
        info = _MONOMIAL_NORM_SQ.cache_info()
        lookups = info.hits + info.misses
        metrics["norms.monomial_norm_sq.hit_ratio"] = info.hits / lookups if lookups else 0.0
        return metrics
