import threading

# flowop before numpy: importing it pins BLAS to one thread where the
# environment names no count, as under the `flowop` command, and that
# takes effect only while numpy has not loaded
from flowop import GaussianMixture, NoiseSchedule, make_time_grid, nnops

import numpy as np
import pytest

from checks import default_bimodal


@pytest.fixture(autouse=True)
def no_leaked_threads():
    """Fails a test that leaves running a thread it did not start with: a
    worker that outlives its call could still write into its output."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"


@pytest.fixture(autouse=True)
def tape_restored():
    """Fails a test that leaves the main thread's tape not recording or inside
    a workspace() scope: every later test's ops would build no graph, or take
    their arrays from a pool that outlived its call. The state is reset, so
    only the test that left it fails."""
    yield
    recording, ws = nnops._TAPE.recording, nnops._TAPE.workspace
    nnops._TAPE.recording, nnops._TAPE.workspace = True, None
    assert recording, "the tape was left not recording"
    assert ws is None, "a workspace() scope was left open"


@pytest.fixture
def sched():
    return NoiseSchedule()


@pytest.fixture
def bimodal():
    return default_bimodal()


@pytest.fixture
def standard_normal_2d():
    return GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[1.0])


@pytest.fixture
def single_gaussian():
    # centered component with s^2 = 0.25; the flow ODE is linear and solvable
    return GaussianMixture(weights=[1.0], means=[[0.0, 0.0]], variances=[0.25])


@pytest.fixture
def grid4(sched):
    return make_time_grid(4, "quadratic", sched)


@pytest.fixture
def mode_stacks():
    """Runs fn() and returns its result with the complex mode stack
    (..., J, K) of every spectral branch it ran, mode_multiply(R,
    dft_at_positions(u, J, positions, M)) with its [Re | Im] columns joined,
    recorded by wrapping nnops.spectral_conv. Each stack is taken during the
    call, because inference reuses u's array afterwards."""
    from flowop import nnops
    spectral_conv = nnops.spectral_conv

    def run(fn):
        stacks = []

        def record(R, u, positions, M, **kwargs):
            re, im = np.split(nnops.mode_multiply(R, nnops.dft_at_positions(
                u, R.value.shape[0], positions, M)).value, 2, axis=-1)
            stacks.append(re + 1j * im)
            return spectral_conv(R, u, positions, M, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nnops, "spectral_conv", record)
            out = fn()
        return out, stacks

    return run
