import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from tripure import Dims, PureState, partial_trace, sample_haar_state

# Property tests draw the same examples on every run, so they cannot make
# the suite flaky, and a slow example is not a failure.
settings.register_profile("tripure", derandomize=True, deadline=None)
settings.load_profile("tripure")


@pytest.fixture(scope="session", autouse=True)
def checkout_on_subprocess_path():
    """Let ``python -m tripure`` subprocesses import this checkout, installed or not."""
    src = Path(__file__).resolve().parents[1] / "src"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(src), prepend=os.pathsep)
        yield


@pytest.fixture
def dims222():
    return Dims(2, 2, 2)


def state_from_entries(dims, entries):
    """PureState with the given {flat_index: amplitude} entries, normalized."""
    amps = np.zeros(dims.total, dtype=complex)
    for idx, val in entries.items():
        amps[idx] = val
    return PureState(dims, amps / np.linalg.norm(amps))


@pytest.fixture
def product_state(dims222):
    return state_from_entries(dims222, {0: 1.0})


@pytest.fixture
def ghz_state(dims222):
    return state_from_entries(dims222, {0: 1.0, 7: 1.0})


@pytest.fixture
def w_state(dims222):
    return state_from_entries(dims222, {1: 1.0, 2: 1.0, 4: 1.0})


def planted_state(phase=np.pi / 3):
    """sqrt(0.7)|000> + e^{i phase} sqrt(0.3)|111> on qubit dims."""
    return state_from_entries(
        Dims(2, 2, 2), {0: np.sqrt(0.7), 7: np.exp(1j * phase) * np.sqrt(0.3)}
    )


def connected_planted_state(phase=np.pi / 3):
    """sqrt(.5)|000> + e^{i phase} sqrt(.25)|111> + sqrt(.15)|001> + sqrt(.1)|100>.

    Unlike ``planted_state``, the |001> and |100> branches link |000> and
    |111> across both cuts, so the marginals carry the phase.
    """
    return state_from_entries(
        Dims(2, 2, 2),
        {
            0: np.sqrt(0.5),
            7: np.exp(1j * phase) * np.sqrt(0.25),
            1: np.sqrt(0.15),
            4: np.sqrt(0.1),
        },
    )


def marginal_pair(psi):
    return partial_trace(psi, ("A", "B")), partial_trace(psi, ("B", "C"))


def haar(d_a, d_b, d_c, seed):
    return sample_haar_state(Dims(d_a, d_b, d_c), seed)


def peak_bytes(fn):
    """Peak bytes traced by ``tracemalloc`` while ``fn()`` runs, above what was live before.

    What ``fn`` returns counts too.  Byte counts do not depend on the
    machine, unlike timings.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
