"""Counter-based random number streams for reproducible parallel simulation.

Every variate is a pure function of ``(seed, path_index, draw_index)``:
three chained 64-bit finalizer rounds (the splitmix64 update) hash the
triple into a uniform.  The seed and path rounds form a path's key
(:func:`path_keys`), hashed once per path; a draw spends one round on
``key ^ draw_index``.  No generator state is carried between draws, so
paths can be simulated in any order, split across any number of workers,
or replayed individually, and the numbers never change.
"""

from __future__ import annotations

import numpy as np

__all__ = ["path_keys", "uniforms", "exponentials"]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DOMAIN = np.uint64(0x8BADF00DDEADBEEF)  # separates this stream family from other uses
_INV53 = float(2.0 ** -53)


def _mix(z):
    """One splitmix64 round in place on a fresh uint64 ``z``, made an array
    first: arrays wrap modulo 2^64 without numpy scalars' overflow warnings."""
    z = np.asarray(z)
    z += _GOLDEN
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def path_keys(seed: int, path_index) -> np.ndarray:
    """Keys of the paths ``path_index`` in stream ``seed``: its first two rounds."""
    stage0 = _mix(np.uint64(seed & _MASK64) ^ _DOMAIN)
    return _mix(np.asarray(path_index, dtype=np.uint64) ^ stage0)


def _scaled_bits(keys, draw_index, scale: float) -> np.ndarray:
    """The draw round on ``keys ^ draw_index``: its top 53 bits times ``scale``."""
    h = _mix(keys ^ np.asarray(draw_index, dtype=np.uint64))
    h >>= np.uint64(11)
    u = h.astype(np.float64)
    u *= scale
    return u


def uniforms(keys, draw_index) -> np.ndarray:
    """Uniforms in [0, 1) for the paths ``keys`` (from :func:`path_keys`) at
    ``draw_index``; the two broadcast against each other."""
    return _scaled_bits(keys, draw_index, _INV53)


def exponentials(keys, draw_index, rate: float) -> np.ndarray:
    """Exp(rate) variates for the paths ``keys`` at ``draw_index``.

    Inverse-transform ``-log1p(-U)/rate``, so that U = 0 maps to 0 rather
    than overflowing, computed as ``log1p(-U)/(-rate)``: sign flips are
    exact, so the bits are the same.
    """
    u = _scaled_bits(keys, draw_index, -_INV53)
    np.log1p(u, out=u)
    u /= -rate
    return u
