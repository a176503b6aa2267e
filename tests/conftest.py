"""Fixtures and helpers that several test modules share."""

import importlib.util
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from turbowdm.constellation import build_constellation


def load_script(name):
    """``scripts/<name>.py``, imported as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def qpsk():
    return build_constellation(4)


def qpsk_stream(m, seed):
    """(2, m) random unit-energy QPSK symbols."""
    rng = np.random.default_rng(seed)
    re = rng.integers(0, 2, (2, m)) * 2 - 1
    im = rng.integers(0, 2, (2, m)) * 2 - 1
    return (re + 1j * im) / np.sqrt(2.0)


def mimo_channel():
    """Static 3-tap 2x2 ISI channel, main tap at the decision delay."""
    h = np.zeros((2, 2, 3), dtype=complex)
    h[0, 0] = [0.3, 0.85, 0.2j]
    h[1, 1] = [0.25j, 0.9, 0.15]
    h[0, 1] = [0.05, 0.1, 0.02]
    h[1, 0] = [0.0, 0.08j, 0.05]
    return h


def peak_over_returned(fn, *args):
    """``fn(*args)`` and the peak memory it traced (numpy reports its
    buffers to tracemalloc), as a multiple of the bytes of the arrays it
    returned."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = out if isinstance(out, tuple) else (out,)
    return out, peak / sum(a.nbytes for a in arrays)


def x_rel_err(out, ref):
    """Error power of ``out`` against ``ref`` in the x polarization,
    relative to the power of ``ref``."""
    x, x_ref = out.fields[0], ref.fields[0]
    return np.mean(np.abs(x - x_ref) ** 2) / np.mean(np.abs(x_ref) ** 2)


def copied(sig):
    """``sig`` with its own copy of the fields, for a stage that writes
    into its input (``fiber.propagate_link``)."""
    return replace(sig, fields=sig.fields.copy())


def fft_spy(monkeypatch):
    """A list that gets, for every later ``np.fft.fft`` and ``np.fft.ifft``
    call, the number of dimensions of the transformed array and the name
    of the calling function."""
    seen = []
    for name in ("fft", "ifft"):

        def spy(a, *args, _fn=getattr(np.fft, name), **kwargs):
            seen.append((np.ndim(a), sys._getframe(1).f_code.co_name))
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    return seen
