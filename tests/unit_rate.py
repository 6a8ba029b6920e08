"""Pose a problem given at jump rate ``lam`` to the unit-rate evaluators."""


def at_rate(f, w, lam, p, *levels, **kwargs):
    """``f(w/lam, p, lam*levels...)``: time and level in units of ``1/lam``,
    which leaves every transform value unchanged."""
    return f(w / lam, p, *(lam * v for v in levels), **kwargs)
