import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from matsketch import matio
from matsketch.matio import _BINARY_HEADER, write_binary

settings.register_profile(
    "matsketch",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("matsketch")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def gather_always(monkeypatch):
    # a negative cost per read: a binary stream gathers whatever share of its rows is chosen
    monkeypatch.setattr(matio, "_PREAD_BYTES", -(1 << 40))


def random_orthonormal(rng, rows, cols):
    q, _ = np.linalg.qr(rng.normal(size=(rows, cols)))
    return q


def matrix_with_singular_values(rng, m, n, values):
    values = np.asarray(values, dtype=float)
    u = random_orthonormal(rng, m, values.size)
    v = random_orthonormal(rng, n, values.size)
    return (u * values) @ v.T


def write_binary_with_nan(path):
    """Write a 3x2 binary matrix file whose entry (1, 0) is NaN; returns the path."""
    write_binary(path, np.arange(6.0).reshape(3, 2))
    data = bytearray(path.read_bytes())
    offset = _BINARY_HEADER.size + 8 * 2
    data[offset : offset + 8] = struct.pack("<d", float("nan"))
    path.write_bytes(bytes(data))
    return path
