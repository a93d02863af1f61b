"""What the test modules share: random parameters and holes, an ascent check, call swaps."""

import sys
from dataclasses import dataclass

import numpy as np

from matnorm.model import MatrixNormalParams


def shape_matrix(rng, n):
    """A random n x n covariance shape, pinned to 1 at [0, 0]."""
    g = rng.standard_normal((n, n))
    s = g @ g.T / n + 0.3 * np.eye(n)
    return s / s[0, 0]


def random_params(rng, p, q, scale=None):
    """A random p x q parameter set; the scale is drawn from [0.5, 2) unless given."""
    return MatrixNormalParams(
        rng.standard_normal((p, q)),
        shape_matrix(rng, p),
        shape_matrix(rng, q),
        float(rng.uniform(0.5, 2.0)) if scale is None else scale,
    )


def knock_out(values, prop, rng):
    """Remove a fixed fraction of entries, keeping one per observation."""
    out = values.copy()
    k = int(round(prop * out.size))
    flat_ids = rng.choice(out.size, size=k, replace=False)
    mask = np.zeros(out.size, dtype=bool)
    mask[flat_ids] = True
    mask = mask.reshape(out.shape)
    # never blank a whole observation
    for i in range(out.shape[0]):
        if mask[i].all():
            mask[i, 0, 0] = False
    out[mask] = np.nan
    return out


def ill_conditioned_cov(rng, d, cond):
    """A symmetric d x d covariance with eigenvalues log-spaced from 1 down to 1 / cond."""
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    cov = (basis * np.geomspace(1.0, 1.0 / cond, d)) @ basis.T
    return (cov + cov.T) / 2.0


def ascends(trace):
    """Whether a log-likelihood trace never drops by more than 1e-9 relative."""
    slack = 1e-9 * np.maximum(1.0, np.abs(trace[:-1]))
    return bool(np.all(np.diff(trace) >= -slack))


@dataclass
class Call:
    args: tuple
    result: object = None


def swap(monkeypatch, fn, replacement):
    """Put ``replacement`` in place of ``fn`` at every ``matnorm`` binding of it.

    Every module attribute under ``matnorm`` that is ``fn`` itself is
    swapped, so a call reaches ``replacement`` whichever module the caller
    imported ``fn`` from.  Returns the (module, name) bindings swapped.
    """
    bindings = [
        (module, name)
        for module_name, module in list(sys.modules.items())
        if module_name == "matnorm" or module_name.startswith("matnorm.")
        for name, value in list(vars(module).items())
        if value is fn
    ]
    assert bindings, f"no matnorm module binds {fn!r}"
    for module, name in bindings:
        monkeypatch.setattr(module, name, replacement)
    return bindings


def spy(monkeypatch, fn):
    """Record each call of ``fn``, through every ``matnorm`` binding of it (:func:`swap`).

    A call is recorded on entry, so one that raises is counted too, with
    ``result`` left None.  Returns the list of :class:`Call` records.
    """
    calls = []

    def recorded(*args, **kwargs):
        call = Call(args)
        calls.append(call)
        call.result = fn(*args, **kwargs)
        return call.result

    swap(monkeypatch, fn, recorded)
    return calls
