"""Smoke test of the benchmark harness at toy sizes.

Ball R = 8, class radius T = 5, sample counts 50. Run from the repository
root with ``python3 -m pytest benchmark/test_harness.py``.
"""

import sys
import time

import pytest

import run
import tracer

sys.path.insert(0, run.SRC)


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))
    run.prepare_work()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_toy_run_reports_every_layer_metric(workload):
    result_run = run.WORKLOADS[workload](1, 0.0, 1, None, toy=True)
    assert result_run.problems == []
    assert result_run.leftover_wrappers == []
    assert result_run.traced_ops >= 1 and result_run.walls
    _, result = run.report(workload, result_run, 1)
    assert set(result["metrics"]) == set(tracer.LAYER_METRICS) | {run.OVERHEAD_METRIC}
    assert result["correct"] is True


def test_untraced_toy_run_reports_every_end_to_end_metric():
    result_run = run.WORKLOADS["ball-entropy"](1, 0.0, 0, None, toy=True)
    _, result = run.report("ball-entropy", result_run, 0)
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert result["attempted"] == 1 and result["failed"] == 0


def test_wrappers_count_outermost_calls_and_are_removed():
    from anosovlab import affine_deform, cli, fuchsian, spectra, surface_group
    from anosovlab.principal_rep import (
        Representation, principal_basis, sym_representation)

    originals = (cli.enumerate_ball, spectra.conjugacy_canonical,
                 Representation.evaluate, affine_deform.margulis_invariants)
    presentation, generators = fuchsian.octagon_group()
    sl2 = Representation(generators)
    rho = sym_representation(2, sl2)
    omega = cli.random_cocycle(rho, presentation, 3)
    word = (1, 2, -1, -2, 3)

    trace = tracer.Tracer(time.perf_counter).install()
    try:
        assert spectra.conjugacy_canonical is not originals[1]
        # this word makes conjugacy_canonical call itself once
        surface_group.conjugacy_canonical((2, 1, -2, -1, -3, 2, 1, -2, 1),
                                          presentation)
        affine_deform.margulis_invariant(rho, omega, word, principal_basis(2))
    finally:
        trace.uninstall()
    folded = trace.fold()
    assert folded["surface_group.conjugacy_canonical"]["calls"] == 1
    assert folded["affine_deform.margulis_invariants"]["calls"] == 1
    assert folded["affine_deform.margulis_invariants"]["letters"] == len(word)
    assert tracer.leftover_wrappers() == []
    assert (cli.enumerate_ball, spectra.conjugacy_canonical,
            Representation.evaluate, affine_deform.margulis_invariants) == originals
