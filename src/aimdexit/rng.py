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
_SHIFT30, _SHIFT27, _SHIFT31, _SHIFT11 = (np.uint64(s) for s in (30, 27, 31, 11))


def _mix(z, tmp=None):
    """One splitmix64 round in place on the uint64 array ``z``, with ``tmp``
    (an array of its shape, allocated when None) holding each shift: arrays
    wrap modulo 2^64 without numpy scalars' overflow warnings."""
    if tmp is None:
        tmp = np.empty_like(z)
    z += _GOLDEN
    z ^= np.right_shift(z, _SHIFT30, out=tmp)
    z *= _MIX1
    z ^= np.right_shift(z, _SHIFT27, out=tmp)
    z *= _MIX2
    z ^= np.right_shift(z, _SHIFT31, out=tmp)
    return z


def path_keys(seed: int, path_index, out=None, scratch=None) -> np.ndarray:
    """Keys of the paths ``path_index`` in stream ``seed``: its first two rounds.

    ``out`` (uint64, of ``path_index``'s shape) receives them, and ``scratch``
    (the same) is overwritten on the way; ``scratch`` may be ``path_index``
    itself.  Either is allocated when None.
    """
    stage0 = _mix(np.asarray(np.uint64(seed & _MASK64) ^ _DOMAIN))
    index = np.asarray(path_index, dtype=np.uint64)
    z = np.bitwise_xor(index, stage0,
                       out=np.empty(index.shape, np.uint64) if out is None else out)
    return _mix(z, scratch)


def _scaled_bits(keys, draw_index, scale: float, out=None, scratch=None) -> np.ndarray:
    """The draw round on ``keys ^ draw_index``: its top 53 bits times ``scale``,
    into ``out`` (float64), hashed in ``scratch`` (uint64); both of the
    broadcast shape, and allocated when None (``out`` is used for the shifts)."""
    z = np.asarray(np.bitwise_xor(keys, np.asarray(draw_index, dtype=np.uint64),
                                  out=scratch))
    if out is None:
        out = np.empty(z.shape)
    _mix(z, out.view(np.uint64))
    z >>= _SHIFT11
    return np.multiply(z, scale, out=out)  # exact: 53 bits, then a power of 2


def uniforms(keys, draw_index) -> np.ndarray:
    """Uniforms in [0, 1) for the paths ``keys`` (from :func:`path_keys`) at
    ``draw_index``; the two broadcast against each other."""
    return _scaled_bits(keys, draw_index, _INV53)


def exponentials(keys, draw_index, rate: float, out=None, scratch=None) -> np.ndarray:
    """Exp(rate) variates for the paths ``keys`` at ``draw_index``.

    Inverse-transform ``-log1p(-U)/rate``, so that U = 0 maps to 0 rather
    than overflowing, computed as ``log1p(-U)/(-rate)``: sign flips are
    exact, so the bits are the same.  ``out`` (float64) receives the
    variates and ``scratch`` (uint64) holds the hash, both of the broadcast
    shape of ``keys`` and ``draw_index``; with them the call allocates no
    array of that size.  Either is allocated when None.
    """
    u = _scaled_bits(keys, draw_index, -_INV53, out, scratch)
    np.log1p(u, out=u)
    u /= -rate
    return u
