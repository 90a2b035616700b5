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
the ambiguity bookkeeping (test-only; selection never sees it). Each
file is written to a temporary name and moved into place, so an
interrupted write leaves no cut file. A class label must be a
non-negative integer.

``load_csv`` parses in bulk the file shape that ``write_csv`` and the
benchmark's writer produce: ASCII, ``\n`` line ends, no quote, ids under
64 and labels under 20 characters, and each candidate's rows in one run
with one label text (:func:`_load_plain_csv` has the whole list). It
reads each chunk of whole lines (about 64 KiB) as bytes in numpy: it
finds the fields from the positions of the commas and line ends, reads
each plain decimal (an optional ``-`` and up to 18 digits, then maybe a
``.`` and up to 18 more, 19 in all) from its digits with one
``np.fromstring`` and one long double division, exactly
(:func:`_plain_values`), and
hands every other value to ``float``, the reference's own routine, so
every value is ``float``'s to the bit. The exact route needs the x87
long double of x86-64; elsewhere ``np.fromstring`` reads each plain
decimal with ``float``'s own string-to-double routine. The rows
go straight into one array, which becomes the split's
:class:`~aftstar.pool.CandidateStack` (:func:`~aftstar.pool.stack_over`).
Any other file is read again by the per-row ``csv.reader`` loop, the
reference the tests compare against and the only code that reports a
row's format error; a file that is not UTF-8 or has a field over the
``csv`` limit is a format error too.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from array import array
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DatasetFormatError, check_integer, shown
from .metrics import FLOAT_FMT, replacing
from .pool import Candidate, CandidateStack, stack_over, stack_rows

CHUNK_CHARS = 1 << 16  # bytes per read of the bulk CSV parser, which reads ASCII alone
NOT_BULK = '"\r\x00\x1c\x1d\x1e\x1f'  # characters the bulk CSV parser leaves to the reference
ID_CHARS, LABEL_CHARS = 64, 20  # the bulk CSV parser's bounds on an id's and a label's width
COMMA, NEWLINE, DOT, MINUS, ZERO = b",\n.-0"
SIDE_DIGITS, PLAIN_DIGITS = 18, 19  # of a plain value, on either side of its dot and in all
# The exact route of the bulk CSV parser reads a long double's 64-bit
# significand from the first 8 of its 16 bytes, the x87 extended format
# on a little-endian host (x86-64); elsewhere np.fromstring reads each
# plain value with float()'s own string-to-double routine.
X87_LONG_DOUBLE = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)
LONG_TENS = np.cumprod([1] + [10] * SIDE_DIGITS, dtype=np.longdouble)  # exact products


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
        object.__setattr__(self, "class_weights", tuple(self.class_weights))
        check_integer("num_classes", self.num_classes, 2)
        check_integer("train_candidates", self.train_candidates, 1)
        check_integer("test_candidates", self.test_candidates, 1)
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
        for name in ("class_center_separation", "candidate_center_spread", "patch_spread"):
            if not (0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and > 0")
        if not (0 <= self.ambiguous_fraction <= 1):
            raise ConfigError("ambiguous_fraction must lie in [0, 1]")
        if not (0 <= self.ambiguous_patch_fraction < 1):
            raise ConfigError("ambiguous_patch_fraction must lie in [0, 1)")


def standard_benchmark(seed: int = 1) -> DatagenConfig:
    """The imbalanced two-class benchmark used throughout the test suite."""
    return DatagenConfig(seed=seed)


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
) -> tuple[list[Candidate], dict]:
    centers = np.zeros((cfg.num_classes, cfg.feature_dim))
    for k in range(cfg.num_classes):
        centers[k, k] = cfg.class_center_separation
    counts = class_counts(cfg.class_weights, n)
    n_noisy_patches = math.floor(cfg.ambiguous_patch_fraction * cfg.patches_per_candidate)

    candidates: list[Candidate] = []
    ambiguous: dict[str, dict] = {}
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
                ambiguous[cid] = {
                    "contaminant_class": contaminant,
                    "noisy_patch_indices": noisy_rows,
                }
            candidates.append(Candidate(id=cid, features=feats, true_label=label))
    return candidates, ambiguous


def generate(cfg: DatagenConfig) -> tuple[list[Candidate], list[Candidate], dict]:
    """Generate disjoint train/test splits, fully determined by cfg.seed.

    Returns (train, test, meta) where meta records the config and the
    ambiguity flags for both splits.
    """
    rng = np.random.default_rng(cfg.seed)
    train, train_amb = _generate_split(cfg, cfg.train_candidates, "train", rng)
    test, test_amb = _generate_split(cfg, cfg.test_candidates, "test", rng)
    meta = {"config": asdict(cfg), "ambiguous": {**train_amb, **test_amb}}
    return train, test, meta


def write_csv(candidates: Iterable[Candidate], path: str | Path) -> None:
    """Write candidates in the pool CSV format, 17 significant digits."""
    candidates = list(candidates)
    if candidates:
        d = candidates[0].feature_dim
    else:
        d = 0
    header = ["candidate_id", "label"] + [f"f{i}" for i in range(d)]
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for c in candidates:
            for row in c.features.tolist():
                writer.writerow([c.id, c.true_label] + [FLOAT_FMT % v for v in row])


def load_csv(path: str | Path) -> CandidateStack:
    """Load a split from the pool CSV format as one stack.

    Candidates are ordered by their first row in the file, and each
    one's patches by file appearance; the label column must repeat
    identically on every row of a candidate. A file in the shape
    ``write_csv`` writes is parsed in bulk; anything else goes to the
    per-row reference parser, which also reports every format error.
    """
    stack = _load_plain_csv(path)
    return _load_csv_rows(path) if stack is None else stack


def _feature_count(header: list[str], path: str | Path) -> int:
    """Check a header row and return the number of feature columns."""
    if header[:2] != ["candidate_id", "label"]:
        raise DatasetFormatError(f"{path}: header must start with candidate_id,label")
    feature_cols = header[2:]
    expected = [f"f{i}" for i in range(len(feature_cols))]
    if feature_cols != expected:
        raise DatasetFormatError(f"{path}: feature columns must be f0..f{len(feature_cols) - 1}")
    if not feature_cols:
        raise DatasetFormatError(f"{path}: no feature columns")
    return len(feature_cols)


def _load_csv_rows(path: str | Path) -> CandidateStack:
    """The reference parser, one ``csv.reader`` row at a time, and the one
    that reports a file's format errors."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                return _parse_rows(reader, path)
            except csv.Error as exc:
                raise DatasetFormatError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            lineno = data.count(b"\n", 0, exc.start) + 1
            raise DatasetFormatError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
        raise


def _parse_rows(reader, path: str | Path) -> CandidateStack:
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"{path}: empty file, expected a header row")
    d = _feature_count(header, path)
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
            raise DatasetFormatError(f"{path}:{lineno}: label {shown(row[1])} is not an integer")
        if label < 0:
            raise DatasetFormatError(f"{path}:{lineno}: label {shown(label)} is negative")
        try:
            feats = [float(v) for v in row[2:]]
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: non-numeric feature value")
        if not all(map(math.isfinite, feats)):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite feature value")
        if cid in label_by_id:
            if label_by_id[cid] != label:
                raise DatasetFormatError(
                    f"{path}:{lineno}: candidate {shown(cid)} has inconsistent labels "
                    f"{shown(label_by_id[cid])} and {shown(label)}"
                )
        else:
            label_by_id[cid] = label
            values_by_id[cid] = array("d")
        values_by_id[cid].extend(feats)
    return stack_rows(
        list(values_by_id),
        list(label_by_id.values()),  # the same insertion order
        [len(values) // d for values in values_by_id.values()],
        [np.frombuffer(rows, dtype=float).reshape(-1, d) for rows in values_by_id.values()],
        d,
    )


def _load_plain_csv(path: str | Path) -> CandidateStack | None:
    """Parse in bulk, a chunk of whole lines at a time, a file in which
    each candidate's rows form one contiguous run with one label text.

    Returns None, for the reference parser to read the file again, for
    any other file: a character that is not ASCII or is in ``NOT_BULK``,
    a line that could hold a field over ``csv.field_size_limit()``, an id
    of ``ID_CHARS`` or a label of ``LABEL_CHARS`` characters or more, a
    candidate's rows in two runs, or a row the reference parser would
    reject. ``csv.reader`` reads a quote or a carriage return otherwise
    than a comma split, and a NUL would pass for the end of an id. A run
    starts at a row whose id or label differs from the row before's; each
    is one id, one label and a count of rows, which go on into the next
    chunk when its run does. Each chunk's values (:func:`_read_lines`)
    are written straight into one array, sized from the bytes per row
    read so far and the file size and grown only when that runs out.
    """
    limit = csv.field_size_limit()
    ids, labels, counts = [], [], []
    seen: set[str] = set()
    last = None  # the "id,label" text of the last run, which may go on in the next chunk
    d = rows = None
    filled = 0  # the rows written
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            while chunk := fh.read(CHUNK_CHARS):
                if not chunk.endswith(b"\n"):
                    chunk += fh.readline()
                if not chunk.isascii() or any(c in chunk for c in NOT_BULK.encode()):
                    return None
                if len(chunk) >= limit and max(map(len, chunk.split(b"\n"))) >= limit:
                    return None
                if d is None:
                    header, _, chunk = chunk.partition(b"\n")
                    try:
                        d = _feature_count(header.decode().split(","), path)
                    except DatasetFormatError:  # for the reference to report
                        return None
                    rows = np.empty((0, d + 1))
                read = _read_lines(chunk, d)
                if read is None:
                    return None
                keys, values = read
                n = len(keys)
                if not n:
                    continue
                if filled + n > len(rows):  # the rows this file's bytes per row so far imply
                    grown = np.empty((math.ceil((filled + n) * size / fh.tell() * 1.05), d + 1))
                    grown[:filled] = rows[:filled]
                    rows = grown
                rows[filled : filled + n, :-1] = values
                filled += n
                starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
                for key, count in zip(keys[starts].tolist(), np.diff(starts, append=n).tolist()):
                    if key == last:
                        counts[-1] += count
                        continue
                    cid, _, text = key.decode().partition(",")
                    if cid in seen:
                        return None
                    seen.add(cid)
                    label = int(text)
                    if label < 0:
                        return None
                    ids.append(cid)
                    labels.append(label)
                    counts.append(count)
                    last = key
    except ValueError:  # also what int and float raise
        return None
    if d is None:
        return None
    rows.resize((filled, d + 1), refcheck=False)  # no view of it is left
    return stack_over(ids, labels, counts, rows)


def _read_lines(chunk: bytes, d: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The rows of a chunk of whole lines of ``d + 2`` fields: each row's
    ``id,label`` text as one array of fixed-width bytes, and its ``(n,
    d)`` values, equal to ``float``'s to the bit; None if a line has
    another field count, an id or a label is too wide or a value is not
    finite. Blank lines are skipped, as ``csv.reader`` skips them. A value
    in plain form is read from its digits (:func:`_plain_values`); any
    other is converted by ``float``, whose ValueError goes to the caller.
    """
    if not chunk:
        return np.empty(0, dtype="S1"), np.empty((0, d))
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    u = np.frombuffer(chunk, dtype=np.uint8)
    special = np.flatnonzero((u == COMMA) | (u == NEWLINE) | (u == DOT))
    dot = u[special] == DOT
    ends = special[~dot]  # every field's end
    n = len(ends) // (d + 2)
    if (
        len(ends) != n * (d + 2)
        or (u[ends[d + 1 :: d + 2]] != NEWLINE).any()
        or np.count_nonzero(u[ends] == NEWLINE) != n
    ):
        if chunk.startswith(b"\n") or b"\n\n" in chunk:  # blank lines
            return _read_lines(b"\n".join(filter(None, chunk.split(b"\n"))), d)
        return None
    starts = np.concatenate(([0], ends[:-1] + 1)).reshape(n, d + 2)
    ends = ends.reshape(n, d + 2)
    if (ends[:, 0] - starts[:, 0]).max() >= ID_CHARS:
        return None
    if (ends[:, 1] - starts[:, 1]).max() >= LABEL_CHARS:
        return None
    width = int((ends[:, 1] - starts[:, 0]).max())
    key_at = starts[:, :1] + np.arange(width)  # each row's "id,label" bytes, and more
    key = key_at < ends[:, 1:2]
    np.minimum(key_at, len(u) - 1, out=key_at)
    keys = np.where(key, u[key_at], 0).view(f"S{width}").ravel()
    first, last = starts[:, 2:].ravel(), ends[:, 2:].ravel()
    digits = u.copy()
    digits[key_at[key]] = ZERO  # one token
    digits[ends[:, -1]] = COMMA
    at = np.flatnonzero(dot)
    field = at - np.arange(len(at))  # the field each dot is in: the separators before it
    read = _plain_values(digits, first, last, special[at], field, d)
    if read is None:
        return None
    redo, values = read
    if len(redo):
        text = chunk.decode()
        values[redo] = [float(text[s:e]) for s, e in zip(first[redo].tolist(), last[redo].tolist())]
        if not np.isfinite(values[redo]).all():
            return None
    return keys, values.reshape(n, d)


def _plain_values(
    digits: np.ndarray, first: np.ndarray, last: np.ndarray, dots: np.ndarray, field: np.ndarray,
    d: int,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The values of the fields ``digits[first:last]``, ``d`` a line, and
    the positions of those that ``float`` must convert. ``digits`` is the
    chunk with each line's ``id,label`` text written over with ``0`` and
    its end with ``,``, and is written over; ``dots`` are the positions of
    its dots and ``field`` the index of the field each is in, ``d + 2`` a
    line.

    A field is plain when it is an optional ``-`` and up to 18 digits,
    then maybe a ``.`` and up to 18 more, 19 in all. Its digits, the dot
    taken out, are one integer m < 10**19 of a ``np.fromstring`` of the
    chunk, and f of them follow the dot: m / 10**f is one correctly
    rounded long double division, and then rounded to a double the right
    double, but where it lies on a midpoint of two doubles, which is left
    to ``float``. Any other field is left to ``float`` too. Without the
    x87 long double, ``np.fromstring`` reads the plain fields as doubles,
    through ``PyOS_string_to_double`` as ``float`` does.
    """
    count = len(first)
    if (first == last).any():  # an empty value, which float rejects, would be no token
        return None
    neg = digits[first] == MINUS
    line, column = np.divmod(field, d + 2)
    inner = column >= 2  # a dot in a value
    k = (line * d + column - 2)[inner]
    dotted = np.bincount(k, minlength=count)
    plain = dotted <= 1
    dotted = dotted == 1
    at = last.copy()
    at[k] = dots[inner]  # a plain field's dot, if it has one
    whole = at - first - neg
    frac = last - at - dotted
    plain &= (whole >= 1) & (whole <= SIDE_DIGITS) & (frac >= dotted) & (frac <= SIDE_DIGITS)
    plain &= whole + frac <= PLAIN_DIGITS
    digits[first[neg]] = ZERO
    odd = (digits - ZERO) > 9
    odd &= digits != COMMA
    odd &= digits != DOT  # a byte no plain field holds
    plain[np.searchsorted(last, np.flatnonzero(odd))] = False
    for s, e in zip(first[~plain].tolist(), last[~plain].tolist()):
        digits[s:e] = ZERO  # one token, whose dots go with it
    text = digits.tobytes()
    if not X87_LONG_DOUBLE:  # float's own string-to-double, in numpy's loop
        values = np.fromstring(text, sep=",")
        if len(values) != count + count // d:
            return None
        values = values.reshape(-1, d + 1)[:, 1:].ravel()
        values *= np.where(neg, -1.0, 1.0)
        return np.flatnonzero(~plain), values
    tokens = np.fromstring(text.replace(b".", b""), dtype=np.uint64, sep=",")
    if len(tokens) != count + count // d:
        return None
    frac *= plain
    x = tokens.reshape(-1, d + 1)[:, 1:].ravel().astype(np.longdouble) / LONG_TENS[frac]
    values = x.astype(np.float64)
    values *= np.where(neg, -1.0, 1.0)
    midpoint = (x.view(np.uint64)[::2] & 0x7FF) == 0x400  # the 11 bits a double drops
    return np.flatnonzero(~plain | midpoint), values


def write_dataset(cfg: DatagenConfig, out_dir: str | Path) -> dict:
    """Generate and write train.csv, test.csv and meta.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train, test, meta = generate(cfg)
    write_csv(train, out_dir / "train.csv")
    write_csv(test, out_dir / "test.csv")
    with replacing(out_dir / "meta.json") as fh:
        fh.write(json.dumps(meta, indent=2, sort_keys=True))
    return meta


def load_dataset(data_dir: str | Path) -> tuple[CandidateStack, CandidateStack, dict | None]:
    """Load train.csv/test.csv (and meta.json when present) from a directory."""
    data_dir = Path(data_dir)
    train = load_csv(data_dir / "train.csv")
    test = load_csv(data_dir / "test.csv")
    meta_path = data_dir / "meta.json"
    if not meta_path.exists():
        return train, test, None
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also what the UTF-8 decoder raises
        raise DatasetFormatError(f"{meta_path}: invalid JSON: {exc}") from None
    return train, test, meta


def infer_num_classes(true_labels: np.ndarray) -> int:
    """Class count implied by an array of ground-truth labels (dataset-side
    helper)."""
    if not len(true_labels):
        raise DatasetFormatError("cannot infer class count from an empty candidate set")
    if true_labels.min() < 0:
        raise DatasetFormatError(f"class label {true_labels.min()} is negative")
    return max(int(true_labels.max()) + 1, 2)
