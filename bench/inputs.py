"""Benchmark inputs, generated by the benchmark's own numpy code.

Nothing here calls the package, so the inputs of a given seed are the same
on every commit and their cost never moves with the program.  True
parameters come from fixed constants per shape: the seed draws the samples
and the masks, so an estimator's iteration count, and with it the cost of a
fit, does not swing with the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Truth:
    """Matrix normal parameters: vec(X) ~ N(vec(mean), scale * kron(col, row))."""

    mean: np.ndarray
    row: np.ndarray
    col: np.ndarray
    scale: float

    @property
    def cov(self) -> np.ndarray:
        return self.scale * np.kron(self.col, self.row)


def _factor(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    raw = g @ g.T / dim + 0.1 * np.eye(dim)
    return raw / raw[0, 0]


def truth(p: int, q: int, salt: int = 0) -> Truth:
    """Fixed parameters for a p x q shape; ``salt`` picks another fixed draw."""
    rng = np.random.default_rng([p, q, salt, 20130926])
    row = _factor(rng, p)
    col = _factor(rng, q)
    mean = rng.standard_normal((p, q))
    scale = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
    return Truth(mean, row, col, scale)


def draw(t: Truth, n: int, rng: np.random.Generator) -> np.ndarray:
    """n observations, (n, p, q): mean + sqrt(scale) * L_row @ G @ L_col.T."""
    p, q = t.mean.shape
    lr = np.linalg.cholesky(t.row)
    lc = np.linalg.cholesky(t.col)
    g = rng.standard_normal((n, p, q))
    return t.mean + math.sqrt(t.scale) * (lr @ g @ lc.T)


def mcar(values: np.ndarray, prop: float, rng: np.random.Generator) -> np.ndarray:
    """Blank exactly round(prop * size) entries uniformly, none fully blank."""
    n, p, q = values.shape
    k = int(round(prop * values.size))
    while True:
        mask = np.zeros(values.size, dtype=bool)
        mask[rng.choice(values.size, size=k, replace=False)] = True
        mask = mask.reshape(n, p, q)
        if not mask.all(axis=(1, 2)).any():
            out = values.copy()
            out[mask] = np.nan
            return out


def dropout(values: np.ndarray, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Longitudinal dropout: with probability ``rate`` an observation loses
    every column from a uniform start in [q // 2, q - 1] to the end."""
    n, p, q = values.shape
    out = values.copy()
    drops = rng.random(n) < rate
    starts = rng.integers(q // 2, q, size=n)
    for i in np.flatnonzero(drops):
        out[i, :, starts[i]:] = np.nan
    return out


@dataclass(frozen=True)
class ClassTruth:
    """K classes sharing one row factor; class c is ``classes[c - 1]``."""

    classes: tuple

    @property
    def k(self) -> int:
        return len(self.classes)


def class_truth(p: int, q: int, k: int, separation: float) -> ClassTruth:
    """Shared row factor, per-class mean, column factor and scale (fixed)."""
    base = truth(p, q)
    rng = np.random.default_rng([p, q, k, 19991101])
    classes = []
    for c in range(k):
        other = truth(p, q, salt=c + 1)
        mean = base.mean + separation * rng.standard_normal((p, q))
        classes.append(Truth(mean, base.row, other.col, other.scale))
    return ClassTruth(tuple(classes))


def draw_labeled(
    ct: ClassTruth, n_per_class: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels) with classes interleaved so no class is contiguous."""
    values = np.concatenate([draw(t, n_per_class, rng) for t in ct.classes])
    labels = np.repeat(np.arange(1, ct.k + 1), n_per_class)
    order = rng.permutation(labels.size)
    return values[order], labels[order]


def write_csv(path: str, values: np.ndarray, labels: "np.ndarray | None") -> None:
    """The package's dataset layout: ``x_r{r}_c{c}`` columns, row fastest,
    an optional leading ``label`` column, empty fields for missing entries."""
    n, p, q = values.shape
    header = [f"x_r{r}_c{c}" for c in range(1, q + 1) for r in range(1, p + 1)]
    if labels is not None:
        header = ["label"] + header
    flat = values.transpose(0, 2, 1).reshape(n, p * q)
    lines = [",".join(header)]
    for i in range(n):
        fields = ["" if math.isnan(v) else repr(float(v)) for v in flat[i]]
        if labels is not None:
            fields.insert(0, str(int(labels[i])))
        lines.append(",".join(fields))
    tmp = path + ".part"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    os.replace(tmp, path)
