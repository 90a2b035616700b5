"""Synthetic candidate generator and dataset CSV round-trip.

Candidates are Gaussian blobs: class k's center sits at
``separation * e_k`` (scaled canonical basis), each candidate draws its
own center around the class center with spread ``sigma_candidate``, and
each patch is drawn around the candidate center with spread
``sigma_patch``. A configurable fraction of candidates per class is
*ambiguous*: ``floor(eta * m)`` of their patches are drawn around a
uniformly chosen other class instead, while the candidate keeps its own
label — those patches inherit a label that does not match what they look
like, emulating annotation units whose augmented patches carry noisy
labels.

The generator also writes/reads the dataset CSV format defined in
:mod:`aftstar.pool` plus a sidecar ``meta.json`` recording the config and
the ambiguity bookkeeping (test-only; selection never sees it).
"""

from __future__ import annotations

import csv
import json
import math
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DatasetFormatError, check_integer
from .pool import Candidate

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class DatagenConfig:
    num_classes: int = 2
    class_weights: tuple[float, ...] = (0.2, 0.8)
    train_candidates: int = 600
    test_candidates: int = 200
    patches_per_candidate: int = 12
    feature_dim: int = 10
    class_center_separation: float = 3.0
    candidate_center_spread: float = 0.7
    patch_spread: float = 0.5
    ambiguous_fraction: float = 0.25
    ambiguous_patch_fraction: float = 0.25
    seed: int = 1

    def __post_init__(self) -> None:
        check_integer("num_classes", self.num_classes, 2)
        check_integer("train_candidates", self.train_candidates, 1)
        check_integer("test_candidates", self.test_candidates, 0)
        check_integer("patches_per_candidate", self.patches_per_candidate, 1)
        check_integer("feature_dim", self.feature_dim, 1)
        check_integer("seed", self.seed, 0)
        if len(self.class_weights) != self.num_classes:
            raise ConfigError("class_weights must have one entry per class")
        if not (min(self.class_weights) >= 0 and abs(sum(self.class_weights) - 1.0) <= 1e-9):
            raise ConfigError("class_weights must be non-negative and sum to 1")
        if self.feature_dim < self.num_classes:
            raise ConfigError(
                "feature_dim must be >= num_classes for basis-aligned class centers"
            )
        if not (self.class_center_separation > 0):
            raise ConfigError("class_center_separation must be > 0")
        if not (self.candidate_center_spread > 0 and self.patch_spread > 0):
            raise ConfigError("spreads must be > 0")
        if not (0 <= self.ambiguous_fraction <= 1):
            raise ConfigError("ambiguous_fraction must lie in [0, 1]")
        if not (0 <= self.ambiguous_patch_fraction < 1):
            raise ConfigError("ambiguous_patch_fraction must lie in [0, 1)")


def standard_benchmark(seed: int = 1) -> DatagenConfig:
    """The imbalanced two-class benchmark used throughout the test suite."""
    return DatagenConfig(seed=seed)


@dataclass
class AmbiguityRecord:
    """Generator-side bookkeeping for one ambiguous candidate."""

    candidate_id: str
    contaminant_class: int
    noisy_patch_indices: list[int]


def class_counts(weights: Sequence[float], n: int) -> list[int]:
    """Largest-remainder apportionment of n candidates across classes."""
    raw = [w * n for w in weights]
    base = [math.floor(r) for r in raw]
    remainder = n - sum(base)
    fractional = sorted(
        range(len(weights)), key=lambda k: (-(raw[k] - base[k]), k)
    )
    for k in fractional[:remainder]:
        base[k] += 1
    return base


def _generate_split(
    cfg: DatagenConfig, n: int, prefix: str, rng: np.random.Generator
) -> tuple[list[Candidate], list[AmbiguityRecord]]:
    centers = np.zeros((cfg.num_classes, cfg.feature_dim))
    for k in range(cfg.num_classes):
        centers[k, k] = cfg.class_center_separation
    counts = class_counts(cfg.class_weights, n)
    n_noisy_patches = math.floor(cfg.ambiguous_patch_fraction * cfg.patches_per_candidate)

    candidates: list[Candidate] = []
    ambiguity: list[AmbiguityRecord] = []
    next_index = 0
    width = max(5, len(str(n)))
    for label, count in enumerate(counts):
        n_ambiguous = int(round(cfg.ambiguous_fraction * count)) if n_noisy_patches else 0
        ambiguous_slots = set(rng.choice(count, size=n_ambiguous, replace=False).tolist()) if n_ambiguous else set()
        for slot in range(count):
            cid = f"{prefix}-{next_index:0{width}d}"
            next_index += 1
            center = centers[label] + cfg.candidate_center_spread * rng.standard_normal(cfg.feature_dim)
            feats = center + cfg.patch_spread * rng.standard_normal(
                (cfg.patches_per_candidate, cfg.feature_dim)
            )
            if slot in ambiguous_slots:
                others = [k for k in range(cfg.num_classes) if k != label]
                contaminant = int(others[rng.integers(len(others))])
                noisy_rows = list(range(cfg.patches_per_candidate - n_noisy_patches, cfg.patches_per_candidate))
                alien_center = centers[contaminant] + cfg.candidate_center_spread * rng.standard_normal(cfg.feature_dim)
                feats[noisy_rows] = alien_center + cfg.patch_spread * rng.standard_normal(
                    (n_noisy_patches, cfg.feature_dim)
                )
                ambiguity.append(AmbiguityRecord(cid, contaminant, noisy_rows))
            candidates.append(Candidate(id=cid, features=feats, true_label=label))
    return candidates, ambiguity


def generate(cfg: DatagenConfig) -> tuple[list[Candidate], list[Candidate], dict]:
    """Generate disjoint train/test splits, fully determined by cfg.seed.

    Returns (train, test, meta) where meta records the config and the
    ambiguity flags for both splits.
    """
    rng = np.random.default_rng(cfg.seed)
    train, train_amb = _generate_split(cfg, cfg.train_candidates, "train", rng)
    test, test_amb = _generate_split(cfg, cfg.test_candidates, "test", rng)
    meta = {
        "config": asdict(cfg),
        "ambiguous": {
            rec.candidate_id: {
                "contaminant_class": rec.contaminant_class,
                "noisy_patch_indices": rec.noisy_patch_indices,
            }
            for rec in train_amb + test_amb
        },
    }
    return train, test, meta


def write_csv(candidates: Iterable[Candidate], path: str | Path) -> None:
    """Write candidates in the pool CSV format, 17 significant digits."""
    candidates = list(candidates)
    if candidates:
        d = candidates[0].feature_dim
    else:
        d = 0
    header = ["candidate_id", "label"] + [f"f{i}" for i in range(d)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for c in candidates:
            for row in c.features.tolist():
                writer.writerow([c.id, c.true_label] + [FLOAT_FMT % v for v in row])


def load_csv(path: str | Path) -> list[Candidate]:
    """Load candidates from the pool CSV format.

    Patches are ordered by file appearance; the label column must repeat
    identically on every row of a candidate.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty file, expected a header row")
        if header[:2] != ["candidate_id", "label"]:
            raise DatasetFormatError(f"{path}: header must start with candidate_id,label")
        feature_cols = header[2:]
        expected = [f"f{i}" for i in range(len(feature_cols))]
        if feature_cols != expected:
            raise DatasetFormatError(f"{path}: feature columns must be f0..f{len(feature_cols) - 1}")
        d = len(feature_cols)
        if d == 0:
            raise DatasetFormatError(f"{path}: no feature columns")
        values_by_id: dict[str, array] = {}  # each candidate's rows, flattened
        label_by_id: dict[str, int] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2 + d:
                raise DatasetFormatError(f"{path}:{lineno}: expected {2 + d} columns, got {len(row)}")
            cid = row[0]
            try:
                label = int(row[1])
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: label {row[1]!r} is not an integer")
            try:
                feats = [float(v) for v in row[2:]]
            except ValueError:
                raise DatasetFormatError(f"{path}:{lineno}: non-numeric feature value")
            if not all(map(math.isfinite, feats)):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
            if cid in label_by_id:
                if label_by_id[cid] != label:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: candidate {cid!r} has inconsistent labels "
                        f"{label_by_id[cid]} and {label}"
                    )
            else:
                label_by_id[cid] = label
                values_by_id[cid] = array("d")
            values_by_id[cid].extend(feats)
    return [
        Candidate(
            id=cid,
            features=np.frombuffer(values, dtype=float).reshape(-1, d),
            true_label=label_by_id[cid],
        )
        for cid, values in values_by_id.items()
    ]


def write_dataset(cfg: DatagenConfig, out_dir: str | Path) -> dict:
    """Generate and write train.csv, test.csv and meta.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test, meta = generate(cfg)
    write_csv(train, out_dir / "train.csv")
    write_csv(test, out_dir / "test.csv")
    (out_dir / "meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
    )
    return meta


def load_dataset(data_dir: str | Path) -> tuple[list[Candidate], list[Candidate], dict | None]:
    """Load train.csv/test.csv (and meta.json when present) from a directory."""
    data_dir = Path(data_dir)
    train = load_csv(data_dir / "train.csv")
    test = load_csv(data_dir / "test.csv")
    meta_path = data_dir / "meta.json"
    meta = json.loads(meta_path.read_text(encoding="utf-8")) if meta_path.exists() else None
    return train, test, meta


def infer_num_classes(candidates: Iterable[Candidate]) -> int:
    """Class count implied by ground-truth labels (dataset-side helper)."""
    labels = {c.true_label for c in candidates}
    if not labels:
        raise DatasetFormatError("cannot infer class count from an empty candidate set")
    return max(int(max(labels)) + 1, 2)
