import os
import subprocess
import sys

import numpy as np
import pytest

import anosovlab
from anosovlab.cli import random_cocycle
from anosovlab.fuchsian import enumerate_ball, octagon_group
from anosovlab.principal_rep import (
    Representation,
    embedded_representation,
    principal_basis,
    sym_representation,
)
from anosovlab.surface_group import GENERATOR_LABELS
from oracles import ball_words


class Lab:
    """Shared bundle: octagon group, principal representations, orbit ball."""

    def __init__(self, radius):
        self.presentation, self.sl2_generators = octagon_group()
        self.sl2 = Representation(self.sl2_generators, labels=GENERATOR_LABELS)
        self.basis = {p: principal_basis(p) for p in (2, 3, 4)}
        self.rho_v = {p: sym_representation(p, self.sl2) for p in (2, 3)}
        self.rho_e = {p: embedded_representation(p, self.sl2) for p in (2, 3)}
        self.ball = enumerate_ball(
            self.sl2.generators, radius, presentation=self.presentation
        )

    def hyperbolic_words(self, max_count=None, rng=None):
        words = [
            w for w, m in zip(ball_words(self.ball), self.ball.matrices)
            if w and abs(float(np.trace(m))) > 2.001
        ]
        if rng is not None:
            words = [words[i] for i in rng.permutation(len(words))]
        return words[:max_count] if max_count else words

    def random_cocycle(self, p, seed):
        return random_cocycle(self.rho_v[p], self.presentation, seed)


@pytest.fixture(scope="session")
def lab():
    """Small workspace for module tests (ball radius 9.5)."""
    return Lab(radius=9.5)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


# BLAS thread settings the determinism tests compare; None leaves both unset
THREAD_SETTINGS = ("1", "2", None)


def run_cli_process(args, threads):
    """Run ``python -m anosovlab.cli ARGS`` in a fresh process.

    The BLAS thread count is fixed at process start, so thread-count
    independence can only be tested across processes: OPENBLAS_NUM_THREADS
    and OMP_NUM_THREADS are both set to `threads`, or both unset for None.
    Returns the exit code.
    """
    env = package_env()
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(key, None)
        if threads is not None:
            env[key] = threads
    return subprocess.run([sys.executable, "-m", "anosovlab.cli", *args],
                          env=env).returncode


def package_env():
    """The environment with this anosovlab first on PYTHONPATH, for
    subprocesses."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(anosovlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env
