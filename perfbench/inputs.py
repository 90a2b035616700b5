"""Benchmark inputs: Gaussian-blob candidates written as dataset CSVs.

The generator is the benchmark's own, so the inputs do not change when
the program's generator does. Class k's centre sits at ``sep * e_k``;
each candidate draws its own centre around it and each patch is drawn
around the candidate centre. Each candidate is ambiguous with
probability 1/4: the last quarter of its patches (rounded down) come from
another class while the candidate keeps its own label.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Blobs:
    """Make-up of one dataset; ``m_lo < m_hi`` gives ragged candidates."""

    class_weights: tuple[float, ...]
    train: int
    test: int
    m_lo: int
    m_hi: int
    dim: int
    sep: float = 3.0
    centre_spread: float = 0.7
    patch_spread: float = 0.5
    ambiguous_fraction: float = 0.25
    ambiguous_patch_fraction: float = 0.25


# 10x the program's standard benchmark: 6000/1000 candidates, 12 patches, d = 10.
BIGPOOL = Blobs(class_weights=(0.2, 0.8), train=6000, test=1000, m_lo=12, m_hi=12, dim=10)
# Ragged three-class set: 8-40 patches per candidate, d = 16.
RAGGED = Blobs(class_weights=(0.2, 0.3, 0.5), train=500, test=200, m_lo=8, m_hi=40, dim=16)


def _counts(weights, n: int) -> list[int]:
    counts = [math.floor(w * n) for w in weights]
    for k in range(n - sum(counts)):
        counts[k % len(counts)] += 1
    return counts


def _split(spec: Blobs, n: int, prefix: str, rng: np.random.Generator):
    k = len(spec.class_weights)
    centres = spec.sep * np.eye(k, spec.dim)
    out = []
    for label, count in enumerate(_counts(spec.class_weights, n)):
        ambiguous = rng.random(count) < spec.ambiguous_fraction
        for a in ambiguous:
            m = int(rng.integers(spec.m_lo, spec.m_hi + 1))
            centre = centres[label] + spec.centre_spread * rng.standard_normal(spec.dim)
            feats = centre + spec.patch_spread * rng.standard_normal((m, spec.dim))
            noisy = math.floor(spec.ambiguous_patch_fraction * m)
            if a and noisy:
                other = (label + 1 + int(rng.integers(k - 1))) % k
                alien = centres[other] + spec.centre_spread * rng.standard_normal(spec.dim)
                feats[m - noisy :] = alien + spec.patch_spread * rng.standard_normal((noisy, spec.dim))
            out.append((label, feats))
    order = rng.permutation(len(out))
    width = len(str(n))
    return [(f"{prefix}-{i:0{width}d}", *out[j]) for i, j in enumerate(order)]


def _write_csv(rows, path: Path, dim: int) -> int:
    header = ",".join(["candidate_id", "label"] + [f"f{i}" for i in range(dim)])
    lines = [header]
    for cid, label, feats in rows:
        prefix = f"{cid},{label},"
        lines.extend(prefix + ",".join(map(repr, r)) for r in feats.tolist())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


def write_dataset(spec: Blobs, seed: int, out_dir: Path) -> dict:
    """Write train.csv and test.csv under ``out_dir``; return the ground
    truth the checks compare against (no meta.json, so the program infers
    the class count from the labels)."""
    rng = np.random.default_rng(seed)
    train = _split(spec, spec.train, "train", rng)
    test = _split(spec, spec.test, "test", rng)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _write_csv(train, out_dir / "train.csv", spec.dim)
    rows += _write_csv(test, out_dir / "test.csv", spec.dim)
    truth = {
        "labels": {cid: label for cid, label, _ in train + test},
        "num_classes": len(spec.class_weights),
        "train_size": len(train),
        "train_prior": [sum(1 for _, y, _ in train if y == c) / len(train)
                        for c in range(len(spec.class_weights))],
        "rows": rows,
    }
    (out_dir / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
    return truth
