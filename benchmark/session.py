"""class-spectrum worker: one in-process session of spectrum operations.

Set-up imports anosovlab, builds the octagon group and the orbit ball once,
and times all of it. Each operation then builds fresh representations (the
``Representation.evaluate`` memo would otherwise make later operations
warm-cache runs), computes the class spectrum at p = 2 and p = 3 with their
gap reports, the Margulis invariants of five seeded random cocycles, and per
cocycle the Bowen-Margulis averages over three windows and a perturbed
entropy scan. Every result line is one JSON object on stdout.

Run as ``python3 benchmark/session.py --seed S --seconds X --trace 0|1``
with ``src`` on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

from anosovlab import cli, fuchsian, principal_rep, spectra  # noqa: E402
from anosovlab.surface_group import GENERATOR_LABELS, format_word  # noqa: E402

import tracer as tracing  # noqa: E402

FULL = {"ball_radius": 13.0, "slack": 2.0, "radius": 10.0, "ps": (2, 3),
        "cocycles": 5, "window_ends": (6.0, 8.0, 10.0), "width": 4.0,
        "s_grid": (-0.05, 0.0, 0.05)}
# At T = 5 there are too few classes for an entropy fit, so no scan.
TOY = {"ball_radius": 8.0, "slack": 2.0, "radius": 5.0, "ps": (2, 3),
       "cocycles": 2, "window_ends": (5.0,), "width": 3.0, "s_grid": None}


def cocycle_seeds(seed, count):
    return [5 * seed + k for k in range(1, count + 1)]


def setup(sizes):
    presentation, generators = fuchsian.octagon_group()
    ball = fuchsian.enumerate_ball(generators, sizes["ball_radius"],
                                   sizes["slack"], presentation=presentation)
    return presentation, generators, ball


def operation(state, seed, sizes):
    """One independent operation; returns the summary the checks compare."""
    presentation, generators, ball = state
    sl2 = principal_rep.Representation(generators, labels=GENERATOR_LABELS)
    summary = {"classes": {}, "cocycles": []}
    spectrum2 = None
    rho2 = basis2 = None
    for p in sizes["ps"]:
        rho = principal_rep.sym_representation(p, sl2)
        basis = principal_rep.principal_basis(p)
        spectrum = spectra.length_spectrum(rho, ball, basis, radius=sizes["radius"])
        gaps = spectra.anosov_gap_report(spectrum, tol=1e-9)
        words = "\n".join(sorted(format_word(r.word) for r in spectrum.records))
        summary["classes"][str(p)] = {
            "count": len(spectrum),
            "words_sha256": hashlib.sha256(words.encode()).hexdigest(),
            "dropped": spectrum.dropped,
            "violations": gaps.total_violations,
            "sum_length_hyp": float(np.sum(spectrum.lengths())),
            "sum_length_lastroot": float(np.sum(spectrum.lengths(
                spectra.LengthFunctional.last_root()))),
            "min_ordering_gap": gaps.min_ordering_gap,
            "min_product_gap": gaps.min_product_gap,
        }
        if p == 2:
            spectrum2, rho2, basis2 = spectrum, rho, basis
    omegas = [cli.random_cocycle(rho2, presentation, s)
              for s in cocycle_seeds(seed, sizes["cocycles"])]
    alphas = spectra.multi_alphas(spectrum2, rho2, basis2, omegas)
    fit_window = (sizes["radius"] - sizes["width"], sizes["radius"])
    for i in range(len(omegas)):
        spec = spectra.spectrum_with_alpha(spectrum2, alphas[:, i])
        averages = [spectra.bm_average(spec, (t - sizes["width"], t))
                    for t in sizes["window_ends"]]
        entry = {
            "sum_abs_alpha": float(np.sum(np.abs(alphas[:, i]))),
            "sum_sq_alpha": float(np.sum(alphas[:, i] ** 2)),
            "bm_averages": averages,
        }
        if sizes["s_grid"] is not None:
            scan = spectra.perturbed_entropy_scan(spec, sizes["s_grid"], fit_window)
            entry["scan_central_slope"] = scan.central_slope
            entry["scan_base_estimate"] = scan.base_estimate
        summary["cocycles"].append(entry)
    return summary


def emit(payload):
    print(json.dumps(payload), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--spans", help="file for the last traced operation's spans")
    args = parser.parse_args(argv)
    sizes = TOY if args.toy else FULL
    state = setup(sizes)
    emit({"setup_s": time.perf_counter() - T0})

    tracer = tracing.Tracer(time.perf_counter) if args.trace else None
    totals = {}
    started = time.perf_counter()
    index = 0
    # Traced runs alternate untraced and traced operations (at least one
    # each), so the tracing overhead is measured in the same process.
    while index < (2 if tracer else 1) or time.perf_counter() - started < args.seconds:
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            if traced:
                summary = tracer.span("class-spectrum.operation", operation,
                                      state, args.seed, sizes)
            else:
                summary = operation(state, args.seed, sizes)
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            if args.spans:
                tracer.dump(args.spans)
            tracing.merge(totals, tracer.fold())
        emit({"wall_s": wall, "cpu_s": cpu, "traced": traced, "summary": summary})
        index += 1
    if tracer is not None:
        emit({"trace": totals, "leftover_wrappers": tracing.leftover_wrappers()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
