"""Span tracer that times calls into anosovlab from outside the package.

Functions are imported by name across anosovlab (``from .spectra import
length_spectrum``), so wrapping only the defining module would miss most
calls. ``Tracer.install`` therefore replaces a target at every anosovlab
module (or class) attribute that holds it, and ``Tracer.uninstall`` puts
every original back. A call made while a span of the same function is
already open (recursion, or a wrapped method calling itself through another
object) records no second span, so nothing is counted twice.

Spans (name, start, end, parent) are kept in memory in flat arrays and
folded into per-function totals by ``Tracer.fold``; self time is a span's
duration minus the durations of its direct children.
"""

import functools
import importlib
import resource
import sys
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "anosovlab"


def _ball_stats(stats, parent, args, result):
    stats["elements"] += len(result)
    stats["rss_mb"] = max(stats["rss_mb"], peak_rss_mb())


def _canonical_stats(stats, parent, args, result):
    # A call is useful when it yields a class its caller has not seen yet;
    # length_spectrum deduplicates per call, so the key includes the caller.
    if not result.is_trivial:
        stats.setdefault("_seen", set()).add((parent, result.letters))


def _spectrum_stats(stats, parent, args, result):
    stats["classes"] += len(result)
    stats["dropped"] += result.dropped


def _letters_stats(stats, parent, args, result):
    stats["letters"] += len(args[2])


def _write_stats(stats, parent, args, result):
    stats["bytes"] += len(args[1].encode())


# (metric prefix, defining module, attribute path, extra statistics hook)
TARGETS = (
    ("fuchsian.enumerate_ball", "fuchsian", "enumerate_ball", _ball_stats),
    ("fuchsian.sl2_eigenbasis", "fuchsian", "sl2_eigenbasis", None),
    ("surface_group.conjugacy_canonical", "surface_group",
     "conjugacy_canonical", _canonical_stats),
    ("surface_group.solve_cocycle_space", "surface_group",
     "solve_cocycle_space", None),
    ("principal_rep.eigendata_fuchsian", "principal_rep",
     "eigendata_fuchsian", None),
    ("principal_rep.Representation.evaluate", "principal_rep",
     "Representation.evaluate", None),
    ("affine_deform.margulis_invariants", "affine_deform",
     "margulis_invariants", _letters_stats),
    ("affine_deform.FiniteDeformation.middle_eigenvalue", "affine_deform",
     "FiniteDeformation.middle_eigenvalue", None),
    ("affine_deform.eigenvalue_derivative", "affine_deform",
     "eigenvalue_derivative", None),
    ("flag_geometry.transversality_margin", "flag_geometry",
     "transversality_margin", None),
    ("spectra.length_spectrum", "spectra", "length_spectrum", _spectrum_stats),
    ("spectra.multi_alphas", "spectra", "multi_alphas", None),
    ("spectra.anosov_gap_report", "spectra", "anosov_gap_report", None),
    ("spectra.entropy_estimate", "spectra", "entropy_estimate", None),
    ("spectra.critical_exponent", "spectra", "critical_exponent", None),
    ("spectra.bm_average", "spectra", "bm_average", None),
    ("spectra.perturbed_entropy_scan", "spectra", "perturbed_entropy_scan", None),
    ("cli.write", "cli", "atomic_write", _write_stats),
    ("cli.float17", "linalg", "float17", None),
)

# Root span of one CLI process; its self time is the command's own work.
COMMAND_SPAN = "cli.command"

# Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = {
    "fuchsian.enumerate_ball.calls": "count",
    "fuchsian.enumerate_ball.s": "s",
    "fuchsian.enumerate_ball.elements": "count",
    "fuchsian.enumerate_ball.rss_mb": "MB",
    "fuchsian.sl2_eigenbasis.calls": "count",
    "surface_group.conjugacy_canonical.calls": "count",
    "surface_group.conjugacy_canonical.s": "s",
    "surface_group.conjugacy_canonical.distinct": "count",
    "surface_group.conjugacy_canonical.useful_ratio": "ratio",
    "surface_group.solve_cocycle_space.calls": "count",
    "surface_group.solve_cocycle_space.s": "s",
    "principal_rep.eigendata_fuchsian.calls": "count",
    "principal_rep.eigendata_fuchsian.s": "s",
    "principal_rep.Representation.evaluate.calls": "count",
    "principal_rep.Representation.evaluate.s": "s",
    "affine_deform.margulis_invariants.calls": "count",
    "affine_deform.margulis_invariants.s": "s",
    "affine_deform.margulis_invariants.letters": "count",
    "affine_deform.FiniteDeformation.middle_eigenvalue.calls": "count",
    "affine_deform.FiniteDeformation.middle_eigenvalue.s": "s",
    "affine_deform.eigenvalue_derivative.calls": "count",
    "affine_deform.eigenvalue_derivative.s": "s",
    "flag_geometry.transversality_margin.calls": "count",
    "flag_geometry.transversality_margin.s": "s",
    "spectra.length_spectrum.calls": "count",
    "spectra.length_spectrum.s": "s",
    "spectra.length_spectrum.self_s": "s",
    "spectra.length_spectrum.classes": "count",
    "spectra.length_spectrum.dropped": "count",
    "spectra.multi_alphas.s": "s",
    "spectra.anosov_gap_report.s": "s",
    "spectra.entropy_estimate.s": "s",
    "spectra.critical_exponent.s": "s",
    "spectra.bm_average.s": "s",
    "spectra.perturbed_entropy_scan.s": "s",
    "cli.command.self_s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "cli.float17.calls": "count",
}


def peak_rss_mb():
    """Peak resident set size of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _resolve(owner, path):
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []          # span-name table; spans store indices into it
        self._name_index = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack = []         # indices of open spans
        self._open = {}          # name -> number of open spans of that name
        self.stats = {}          # name -> extra statistics
        self._installed = []     # (owner, attribute, original)

    def _name_id(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
            self.stats[name] = defaultdict(int)
        return self._name_index[name]

    def open(self, name):
        index = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self._open[name] = self._open.get(name, 0) + 1
        self.starts.append(self.clock())
        return index

    def close(self, index, name):
        self.ends[index] = self.clock()
        self._stack.pop()
        self._open[name] -= 1

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index, name)

    def wrap(self, name, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open.get(name):
                return fn(*args, **kwargs)
            index = tracer.open(name)
            parent = tracer.parents[index]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index, name)
            if hook is not None:
                hook(tracer.stats[name], parent, args, result)
            return result

        wrapper.__bench_traced__ = True
        return wrapper

    def install(self):
        """Wrap every target at every anosovlab attribute that holds it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")  # loads every module
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, module, path, hook in TARGETS:
            owner, attr = _resolve(sys.modules[f"{PACKAGE}.{module}"], path)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            self._name_id(name)
            sites = [owner] + [m for m in modules if m is not owner]
            for site in sites:
                if site.__dict__.get(attr) is original:
                    setattr(site, attr, wrapper)
                    self._installed.append((site, attr, original))
        return self

    def uninstall(self):
        for site, attr, original in reversed(self._installed):
            setattr(site, attr, original)
        self._installed = []

    def dump(self, path):
        """Write the recorded spans (name, start, end, parent) to an .npz file."""
        np.savez(path, names=np.array(self.names),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 parents=np.frombuffer(self.parents, dtype=np.int32))

    def fold(self):
        """Per-name totals of the recorded spans, then forget the spans.

        Returns {name: {"calls", "s", "self_s", <extra statistics>}}.
        """
        if self._stack:
            raise RuntimeError("fold with open spans")
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        n_names = len(self.names)
        durations = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=durations[has_parent],
                            minlength=len(durations))
        calls = np.bincount(names, minlength=n_names)
        total = np.bincount(names, weights=durations, minlength=n_names)
        own = np.bincount(names, weights=durations - child, minlength=n_names)
        folded = {}
        for i, name in enumerate(self.names):
            entry = {"calls": int(calls[i]), "s": float(total[i]),
                     "self_s": float(own[i])}
            stats = self.stats[name]
            entry.update({k: v for k, v in stats.items() if not k.startswith("_")})
            entry["distinct"] = len(stats.get("_seen", ()))
            folded[name] = entry
            self.stats[name] = defaultdict(int)
        del names, starts, ends, parents
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        return folded


def leftover_wrappers():
    """Attributes of loaded anosovlab modules and classes still wrapped."""
    found = []
    for key, module in list(sys.modules.items()):
        if not (key == PACKAGE or key.startswith(PACKAGE + ".")):
            continue
        for attr, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{key}.{attr}")
            if isinstance(value, type) and value.__module__ == key:
                for meth, member in vars(value).items():
                    if getattr(member, "__bench_traced__", False):
                        found.append(f"{key}.{attr}.{meth}")
    return found


def merge(totals, folded):
    """Add one fold into running totals (sums; rss_mb keeps the maximum)."""
    for name, entry in folded.items():
        into = totals.setdefault(name, {})
        for key, value in entry.items():
            if key == "rss_mb":
                into[key] = max(into.get(key, 0.0), value)
            else:
                into[key] = into.get(key, 0) + value
    return totals


def layer_metrics(totals, n_ops):
    """Per-operation values of every LAYER_METRICS entry from merged folds."""
    values = {}
    for metric in LAYER_METRICS:
        name, stat = metric.rsplit(".", 1)
        entry = totals.get(name, {})
        if stat == "useful_ratio":
            calls = entry.get("calls", 0)
            value = entry.get("distinct", 0) / calls if calls else 0.0
        elif stat == "rss_mb":
            value = entry.get("rss_mb", 0.0)
        else:
            value = entry.get(stat, 0) / n_ops
        values[metric] = float(value)
    return values
