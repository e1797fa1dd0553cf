"""Irregular multivariate series and their fixed-grid feature views.

The pipeline goes: load (or generate) :class:`IrregularSeries`, fit
normalization stats on training episodes only, normalize, bin a list of
series onto a fixed time grid in whole-array passes (:func:`bin_series`),
then compute the columns that widen them: missingness indicators and gaps
(:func:`attach_mask`) or sinusoidal time embeddings of each step's hours
since the latest observation (:func:`attach_te`), which
``training.build_features`` writes next to the binned values. Observation
dropout and fold splitting operate on the series level and are
deterministic under explicit seeds.

File formats. Observations: CSV with header ``episode_id,time_hours,channel,value``.
Labels: CSV with header ``episode_id,label``. Schema: JSON mapping channel
names to kinds (``real`` or ``categorical`` with a cardinality). Floats are
written with ``repr`` so a write/read cycle reproduces the exact bits. Fields
are written unquoted with ``\n`` line ends; reading also accepts quoted
fields and CRLF line ends, as ``csv.reader`` does; every reading error is a
``ValueError`` naming its line. Normalized, labeled episodes (a training
run's test set): an npz container of columns written by :func:`save_episodes`;
:func:`load_episodes` reads it with ``_util.read_npz`` and checks it column by column.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import (
    atomic_write_npz,
    atomic_write_text,
    check_object,
    float_repr,
    from_object,
    make_rng,
    open_text,
    read_json_document,
    read_npz,
    to_object,
    write_json_document,
)
from .encoding import EncoderConfig, _check_window, te_batch

DATA_HEADER = ["episode_id", "time_hours", "channel", "value"]
LABEL_HEADER = ["episode_id", "label"]

EPISODES_FORMAT_VERSION = 1
# the columns of an episode container and their dtypes (ids: any string length)
_EPISODE_DTYPES = {name: np.dtype(kind) for name, kind in (
    ("episode_ids", np.str_), ("labels", np.float64), ("offsets", np.int64),
    ("times", np.float64), ("channel_idx", np.int64), ("values", np.float64))}


@dataclass(frozen=True)
class ChannelSpec:
    """One channel: a name plus a kind, ``real`` or ``categorical``.

    Categorical channels carry a cardinality and expand to that many
    one-hot columns when binned; real channels occupy a single column.
    """

    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str):
            raise ValueError(f"channel name must be a string, got {self.name!r}")
        if self.kind not in ("real", "categorical"):
            raise ValueError(f"channel kind must be 'real' or 'categorical', got {self.kind!r}")
        if self.kind == "categorical":
            if not isinstance(self.cardinality, int) or self.cardinality < 2:
                raise ValueError(
                    f"categorical channel {self.name!r} needs an integer cardinality >= 2"
                )
        elif self.cardinality is not None:
            raise ValueError(f"real channel {self.name!r} must not declare a cardinality")

    @property
    def n_columns(self) -> int:
        return 1 if self.kind == "real" else int(self.cardinality)


@dataclass(frozen=True)
class Schema:
    """Ordered channel declarations shared by every episode of a dataset."""

    channels: tuple[ChannelSpec, ...]

    def __post_init__(self) -> None:
        if not self.channels:
            raise ValueError("schema needs at least one channel")
        names = [c.name for c in self.channels]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ValueError(f"channel names must be unique: channel {i} repeats {name!r}")

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.channels):
            if c.name == name:
                return i
        raise KeyError(f"unknown channel {name!r}")

    @classmethod
    def from_dict(cls, d: dict) -> "Schema":
        channels = check_object("schema document", d, ("channels",), ("channels",))["channels"]
        if not isinstance(channels, list):
            raise ValueError(f"schema 'channels' must be a list of channel entries, got {channels!r}")
        return cls(channels=tuple(from_object(ChannelSpec, f"schema channel entry {i}", entry)
                                  for i, entry in enumerate(channels)))


def save_schema(path: str, schema: Schema) -> None:
    write_json_document(path, to_object(schema))


def load_schema(path: str) -> Schema:
    return Schema.from_dict(read_json_document(path))


@dataclass
class IrregularSeries:
    """Timestamped observations of one episode, time-sorted.

    ``times`` are hours >= 0; ``channel_idx`` indexes into the schema;
    ``values`` hold the measurement (for categorical channels, the integer
    category). ``label`` is the supervision target, in the task's native
    unit (hours for regression tasks). ``normalized`` records whether
    training statistics have been applied, so a second application can be
    refused.
    """

    episode_id: str
    times: np.ndarray
    channel_idx: np.ndarray
    values: np.ndarray
    label: float | None = None
    normalized: bool = False

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        chans = np.asarray(self.channel_idx)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.times.ndim != 1 or chans.ndim != 1 or self.values.ndim != 1:
            raise ValueError(f"episode {self.episode_id!r}: times, channels, values must be 1-d arrays")
        if chans.dtype.kind not in "biu":  # an integer array needs no test
            real = chans.astype(np.float64)
            bad = ~(np.abs(real) < 2.0**63) | (real != np.trunc(real))  # also NaN, inf and past int64
            if bad.any():
                raise ValueError(f"episode {self.episode_id!r}: channel index {float(real[bad][0])!r} "
                                 "is not an int64 integer")
        self.channel_idx = chans.astype(np.int64, copy=False)
        n = self.times.shape[0]
        if self.channel_idx.shape[0] != n or self.values.shape[0] != n:
            raise ValueError(
                f"episode {self.episode_id!r}: times, channels, values must have equal length"
            )
        if n and not np.isfinite(self.times).all():
            raise ValueError(f"episode {self.episode_id!r}: non-finite observation time")
        if n and self.times.min(initial=0.0) < 0:
            raise ValueError(f"episode {self.episode_id!r}: negative observation time")
        if n and not np.isfinite(self.values).all():
            raise ValueError(f"episode {self.episode_id!r}: non-finite observation value")
        if n > 1 and (self.times[1:] < self.times[:-1]).any():
            order = np.argsort(self.times, kind="stable")
            self.times = self.times[order]
            self.channel_idx = self.channel_idx[order]
            self.values = self.values[order]

    @property
    def n_obs(self) -> int:
        return int(self.times.shape[0])

    @classmethod
    def _checked(cls, episode_id: str, times: np.ndarray, channel_idx: np.ndarray,
                 values: np.ndarray, label: float | None, normalized: bool) -> "IrregularSeries":
        """A series from arrays that already pass ``__post_init__``: equal-length
        float64 times (finite, >= 0, sorted), int64 channels and finite float64
        values. It skips the checks, which would leave such arrays unchanged, and
        is how the program builds every series from arrays it made or checked
        itself; ``__post_init__`` checks the arrays of other callers."""
        series = cls.__new__(cls)
        series.episode_id, series.label, series.normalized = episode_id, label, normalized
        series.times, series.channel_idx, series.values = times, channel_idx, values
        return series


def _to_columns(series_list: Sequence[IrregularSeries]) -> dict[str, np.ndarray]:
    """The columnar form of a list of series: ``offsets`` (series i owns observations
    ``offsets[i]:offsets[i + 1]``), then its ``times``, ``channel_idx`` and ``values``."""
    columns = {"offsets": np.cumsum([0] + [s.n_obs for s in series_list], dtype=np.int64)}
    for name in ("times", "channel_idx", "values"):
        columns[name] = np.concatenate([getattr(s, name) for s in series_list] + [np.empty(0, _EPISODE_DTYPES[name])])
    return columns


def _episode_of(offsets: np.ndarray) -> np.ndarray:
    """The index of the series that owns each observation of a columnar form."""
    return np.repeat(np.arange(offsets.shape[0] - 1), np.diff(offsets))


def _to_series(columns: dict[str, np.ndarray], ids, labels, normalized: bool) -> list[IrregularSeries]:
    """The series of a columnar form whose columns pass every check of IrregularSeries."""
    times, chans, values = columns["times"], columns["channel_idx"], columns["values"]
    bounds = columns["offsets"].tolist()
    return [IrregularSeries._checked(eid, times[a:b], chans[a:b], values[a:b], label, normalized)
            for eid, label, a, b in zip(ids, labels, bounds[:-1], bounds[1:])]


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean and standard deviation fitted on training episodes.

    Population convention. Categorical channels and degenerate cases
    (empty or constant channels) get mean 0 / std 1 so that applying the
    stats never divides by zero and never touches category codes.
    """

    mean: np.ndarray
    std: np.ndarray


@dataclass
class BinnedBatch:
    """Fixed-grid view of a list of episodes, stacked on a leading axis.

    ``X`` (episodes, steps, features) holds observed/imputed values: one
    column per real channel and one-hot columns per categorical channel, as
    :func:`bin_series` builds it, followed by the time columns of an input
    regime once ``training.build_features`` has added them. ``M``
    (episodes, steps, channels) marks bins with at least one observation per
    channel; ``D`` is hours since the channel was last observed, with
    D[:, 0] = 0 and D[:, j] = 0 wherever M[:, j] = 1, else
    D[:, j-1] + bin_width. ``series`` (the source episodes, in order) carry
    the ids and labels.
    """

    series: tuple[IrregularSeries, ...]
    X: np.ndarray
    M: np.ndarray | None
    D: np.ndarray | None
    window: float


# Observation files are read in blocks of about this many characters, each
# extended to the end of its last line, so memory stays near one block's
# columns whatever the file size.
_BLOCK_CHARS = 1 << 20
# The comma split reads a block as csv.reader would unless the block holds a
# quote, a carriage return, a NUL (which csv.reader rejects before Python
# 3.11) or a field over csv.field_size_limit(); from the first block that
# does, csv.reader parses the rest of the file, this many records at a time.
_CSV_ONLY = ('"', "\r", "\0")
_CSV_BLOCK_ROWS = 1 << 14


def _parse_float(text: str, what: str, line_no: int) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ValueError(f"line {line_no}: {what} {text!r} is not a number") from None
    if not math.isfinite(v):
        raise ValueError(f"line {line_no}: {what} {text!r} is not finite")
    return v


def _invalid_codes(chans: np.ndarray, vals: np.ndarray, schema: Schema) -> np.ndarray:
    """Mask of observations on a categorical channel whose value is not an
    integer in [0, cardinality)."""
    card = np.array([spec.cardinality or 0 for spec in schema.channels])[chans]
    return (card > 0) & ((vals != np.trunc(vals)) | (vals < 0) | (vals >= card))


def _check_schema(chans: np.ndarray, vals: np.ndarray, schema: Schema, where) -> None:
    """Raise for the first observation that does not fit the schema: a channel
    index outside it, else an invalid categorical code. ``where(i)`` names the
    line or episode of observation ``i``."""
    outside = (chans < 0) | (chans >= schema.n_channels)
    if outside.any():
        i = int(np.argmax(outside))
        raise ValueError(f"{where(i)}: channel index {chans[i]} outside the "
                         f"{schema.n_channels}-channel schema")
    bad = _invalid_codes(chans, vals, schema)
    if bad.any():
        i = int(np.argmax(bad))
        spec = schema.channels[chans[i]]
        raise ValueError(
            f"{where(i)}: categorical channel {spec.name!r} takes integer values in "
            f"[0, {spec.cardinality}), got {float(vals[i])!r}"
        )


def _check_row(row: Sequence[str], line_no: int, channel_of: dict[str, int],
               schema: Schema) -> None:
    """Raise the first problem of one data record, checked field by field."""
    if len(row) != 4:
        raise ValueError(f"line {line_no}: expected 4 fields, got {len(row)}")
    _, t_raw, channel, v_raw = row
    t = _parse_float(t_raw, "time", line_no)
    if t < 0:
        raise ValueError(f"line {line_no}: negative time {t_raw!r}")
    if channel not in channel_of:
        raise ValueError(f"line {line_no}: unknown channel {channel!r}")
    v = _parse_float(v_raw, "value", line_no)
    _check_schema(np.array([channel_of[channel]]), np.array([v]), schema,
                  lambda _: f"line {line_no}")


def _field_blocks(fh):
    """Yield ``(line numbers, fields per record, fields)`` for each block of
    data records after the header.

    ``fields`` holds the fields of the block's records one after another.
    Blank records are left out but counted, so line numbers count records
    from the header as csv.reader counts them. A block is split on newlines
    and commas. From the first block that holds a character in ``_CSV_ONLY``
    or a field that may be longer than ``csv.field_size_limit()`` on,
    csv.reader parses the rest of the file, so such a field raises
    ``ValueError`` naming its line wherever it stands.
    """
    line_no = 2
    while text := fh.read(_BLOCK_CHARS):
        text += fh.readline()
        lines = text if text.endswith("\n") else text + "\n"
        raw = np.frombuffer(lines.encode(), np.uint8)
        newline = raw == ord("\n")
        seps = np.flatnonzero(newline | (raw == ord(",")))
        # a field takes at least as many bytes as characters
        longest = int(np.diff(seps, prepend=-1).max()) - 1
        if longest > csv.field_size_limit() or any(c in text for c in _CSV_ONLY):
            reader = csv.reader(itertools.chain(io.StringIO(text, newline=""), fh))
            try:
                yield from _csv_field_blocks(reader, line_no)
            except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
                raise ValueError(f"line {line_no - 1 + reader.line_num}: {exc}") from None
            return
        ends = np.flatnonzero(newline)
        n_fields = np.diff(np.searchsorted(seps, ends), prepend=-1)
        kept = np.diff(ends, prepend=-1) > 1  # not a blank line
        if not kept.all():
            lines = "".join(line + "\n" for line in lines.split("\n") if line)
        fields = lines.replace("\n", ",").split(",")
        del fields[-1]
        yield line_no + np.flatnonzero(kept), n_fields[kept], fields
        line_no += ends.size


def _csv_field_blocks(reader, line_no: int):
    """:func:`_field_blocks` for records that csv.reader parses."""
    while block := list(itertools.islice(reader, _CSV_BLOCK_ROWS)):
        n_fields = np.fromiter(map(len, block), np.int64, len(block))
        kept = np.flatnonzero(n_fields)  # a blank record has no fields
        yield line_no + kept, n_fields[kept], list(itertools.chain.from_iterable(block))
        line_no += len(block)


def _parse_block(line_nos: np.ndarray, n_fields: np.ndarray, fields: list[str],
                 channel_of: dict[str, int], schema: Schema, codes: dict[str, int]):
    """Validate one block of records and return its (episode code, time,
    channel, value) columns; ``codes`` numbers episode ids as first seen.

    Every check runs on whole columns. When one fails, :func:`_check_row`
    walks the block's records and words the error of the first bad one.
    """
    try:
        if (n_fields != 4).any():
            raise ValueError("a record without 4 fields")
        eids, t_raw, names, v_raw = (fields[k::4] for k in range(4))
        times, values = (np.fromiter(map(float, col), np.float64, len(col)) for col in (t_raw, v_raw))
        chans = np.fromiter(map(channel_of.get, names, itertools.repeat(-1)), np.int64, len(names))
        # a record with an unknown channel (-1) is bad whatever the code check says
        if (~np.isfinite(times) | (times < 0) | (chans < 0) | ~np.isfinite(values)
                | _invalid_codes(chans, values, schema)).any():
            raise ValueError("a record that does not fit the schema")
    except ValueError:
        starts = np.cumsum(n_fields) - n_fields
        for start, n, line in zip(starts.tolist(), n_fields.tolist(), line_nos.tolist()):
            _check_row(fields[start : start + n], line, channel_of, schema)
        raise  # the walk refuses the first bad record, so this is not reached
    for eid in dict.fromkeys(eids):
        codes.setdefault(eid, len(codes))
    return np.fromiter(map(codes.__getitem__, eids), np.int64, len(eids)), times, chans, values


def load_labels(path: str) -> dict[str, float]:
    """Read an ``episode_id,label`` CSV into a dict."""
    labels: dict[str, float] = {}
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != LABEL_HEADER:
                raise ValueError(f"{path}: expected header {','.join(LABEL_HEADER)}, got {header}")
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != 2:
                    raise ValueError(f"line {line_no}: expected 2 fields, got {len(row)}")
                eid, raw = row
                if eid in labels:
                    raise ValueError(f"line {line_no}: duplicate label for episode {eid!r}")
                labels[eid] = _parse_float(raw, "label", line_no)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise ValueError(f"line {reader.line_num}: {exc}") from None
    return labels


def load_csv(data_path: str, schema: Schema, label_path: str | None = None) -> list[IrregularSeries]:
    """Read observation rows into one time-sorted series per episode.

    Episodes come back sorted by id. When ``label_path`` is given, every
    episode must have a label and every label an episode; mismatches are
    reported rather than silently dropped. The file is parsed and checked
    in blocks of whole columns; an error names the first bad line. One
    stable sort by (episode, time) then groups the observations, and every
    series is a slice of the shared sorted arrays.
    """
    channel_of = {spec.name: i for i, spec in enumerate(schema.channels)}
    codes: dict[str, int] = {}
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0, np.int64), np.empty(0))]
    with open_text(data_path, newline="") as fh:
        header_reader = csv.reader(fh)
        try:
            header = next(header_reader, None)
        except csv.Error as exc:
            raise ValueError(f"line {header_reader.line_num}: {exc}") from None
        if header not in (None, DATA_HEADER):
            raise ValueError(f"{data_path}: expected header {','.join(DATA_HEADER)}, got {header}")
        for block in _field_blocks(fh):
            parts.append(_parse_block(*block, channel_of, schema, codes))

    ids = list(codes)
    labels = load_labels(label_path) if label_path is not None else None
    if labels is not None:
        missing = sorted(set(ids) - set(labels))
        if missing:
            raise ValueError(f"episodes without labels: {missing[:5]} (total {len(missing)})")
        orphans = sorted(set(labels) - set(ids))
        if orphans:
            raise ValueError(f"labels without episodes: {orphans[:5]} (total {len(orphans)})")

    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[by_id] = np.arange(len(ids))
    episode, times, chans, values = (np.concatenate(col) for col in zip(*parts))
    episode = rank[episode]
    order = np.lexsort((times, episode))
    columns = {"offsets": np.searchsorted(episode[order], np.arange(len(ids) + 1)),
               "times": times[order], "channel_idx": chans[order], "values": values[order]}
    sorted_ids = [ids[j] for j in by_id]
    # the block checks and the sort established everything IrregularSeries checks
    return _to_series(columns, sorted_ids, map((labels or {}).get, sorted_ids), False)


def _columns_to_write(episodes: Sequence[IrregularSeries], schema: Schema, labeled: bool) -> dict[str, np.ndarray]:
    """The columnar form of ``episodes`` (``_to_columns``) for a writer, once every
    observation fits the schema (``_check_schema``) and, where ``labeled``, every
    episode has a finite label; a problem raises ``ValueError`` naming the episode."""
    for ep in episodes if labeled else ():
        if ep.label is None:
            raise ValueError(f"episode {ep.episode_id!r} has no label to write")
        if not math.isfinite(ep.label):
            raise ValueError(f"episode {ep.episode_id!r} has label {ep.label!r}, which is not finite")
    columns = _to_columns(episodes)
    episode_of = _episode_of(columns["offsets"])
    _check_schema(columns["channel_idx"], columns["values"], schema,
                  lambda i: f"episode {episodes[episode_of[i]].episode_id!r}")
    return columns


def write_csv(episodes: Sequence[IrregularSeries], schema: Schema, data_path: str,
              label_path: str | None = None) -> None:
    """Write observation (and optionally label) CSVs that round-trip exactly.

    Fields are written unquoted, one row per line ending in ``\\n``, so an
    episode id, or the name of a channel that some observation is on,
    holding a comma or a line break, or starting with a quote, is refused
    before anything is written; so are two episodes of one id, which would
    read back as one, an observation that does not fit the schema, and,
    when ``label_path`` is given, an episode without a finite label
    (``_columns_to_write``).
    """
    names = [spec.name for spec in schema.channels]
    columns = _columns_to_write(episodes, schema, label_path is not None)
    times, chans, values = (columns[name].tolist() for name in ("times", "channel_idx", "values"))
    written = [("channel", names[c]) for c in sorted(set(chans))]
    for what, name in written + [("episode id", ep.episode_id) for ep in episodes]:
        if name.startswith('"') or any(c in name for c in ",\r\n"):
            raise ValueError(f"{what} {name!r} cannot be written to CSV unquoted")
    seen: set[str] = set()
    for ep in episodes:
        if ep.episode_id in seen:
            raise ValueError(f"episode {ep.episode_id!r} is given twice; its CSV rows would read back as one episode")
        seen.add(ep.episode_id)
        if not ep.n_obs:
            raise ValueError(f"episode {ep.episode_id!r} has no observations, so it would have no CSV "
                             "rows to read back")
    ids = itertools.chain.from_iterable(itertools.repeat(ep.episode_id, ep.n_obs) for ep in episodes)
    rows = map(",".join, zip(ids, map(repr, times), map(names.__getitem__, chans), map(repr, values)))
    atomic_write_text(data_path, "\n".join(itertools.chain([",".join(DATA_HEADER)], rows)) + "\n")
    if label_path is not None:
        label_lines = [",".join(LABEL_HEADER)]
        label_lines += [f"{ep.episode_id},{float_repr(ep.label)}" for ep in episodes]
        atomic_write_text(label_path, "\n".join(label_lines) + "\n")


def save_episodes(path: str, episodes: Sequence[IrregularSeries], schema: Schema) -> None:
    """Write labeled, normalized episodes and their schema to one npz
    container; :func:`load_episodes` reads them back bit for bit.

    The container holds a ``__meta__`` JSON (format version, schema) and the
    episodes as columns: ``episode_ids``, ``labels`` and their columnar form
    (``offsets``, ``times``, ``channel_idx`` and ``values``, see ``_to_columns``).
    Before anything is written, every episode must be labeled and normalized,
    every label finite and every observation fit the schema (``_columns_to_write``),
    so nothing is saved that :func:`load_episodes` would refuse.
    """
    for ep in episodes:
        if ep.label is None or not ep.normalized:
            raise ValueError(f"episode {ep.episode_id!r} must be labeled and normalized to be saved")
    ids = np.array([ep.episode_id for ep in episodes], dtype=str)
    if ids.tolist() != [ep.episode_id for ep in episodes]:  # numpy drops trailing NULs
        raise ValueError("episode ids ending in a NUL character cannot be saved")
    columns = _columns_to_write(episodes, schema, labeled=True)
    meta = {"format_version": EPISODES_FORMAT_VERSION, "schema": to_object(schema)}
    labels = np.array([float(ep.label) for ep in episodes], dtype=np.float64)
    atomic_write_npz(path, meta, {"episode_ids": ids, "labels": labels, **columns})


def load_episodes(path: str) -> tuple[list[IrregularSeries], Schema]:
    """Read what :func:`save_episodes` wrote: the normalized episodes, in the
    order they were saved, and their schema.

    The container comes from outside the program, so its meta, the dtype and
    shape of every column, the offsets, and the times (finite, >= 0 and
    sorted within each episode), channels (inside the schema), values
    (finite, and valid codes on categorical channels) and labels (finite) are
    checked in whole-column passes before any series is built; a problem
    raises ``ValueError``.
    """
    meta, columns = read_npz(path, "episode", EPISODES_FORMAT_VERSION)
    names = sorted(f"{name}.npy" for name in ("__meta__", *columns))
    expected = sorted(f"{name}.npy" for name in ("__meta__", *_EPISODE_DTYPES))
    if names != expected:
        raise ValueError(f"holds {names}, expected {expected}")
    schema = Schema.from_dict(meta.get("schema"))
    for name, kind in _EPISODE_DTYPES.items():
        arr = columns[name]
        if arr.ndim != 1 or (arr.dtype.kind != kind.kind if kind.kind == "U" else arr.dtype != kind):
            raise ValueError(f"{name} must be a 1-d {kind.name} array, got {arr.dtype} of shape {arr.shape}")
    ids, labels, offsets = columns["episode_ids"], columns["labels"], columns["offsets"]
    times, chans, values = columns["times"], columns["channel_idx"], columns["values"]
    n_obs = times.shape[0]
    if (labels.shape[0] != ids.shape[0] or offsets.shape[0] != ids.shape[0] + 1
            or chans.shape[0] != n_obs or values.shape[0] != n_obs):
        raise ValueError(f"column lengths disagree: {ids.shape[0]} episode ids, {labels.shape[0]} "
                         f"labels, {offsets.shape[0]} offsets, {n_obs} times, {chans.shape[0]} "
                         f"channels, {values.shape[0]} values")
    if offsets[0] != 0 or offsets[-1] != n_obs or (np.diff(offsets) < 0).any():
        raise ValueError(f"offsets must rise from 0 to the {n_obs} observations")
    episode_of = _episode_of(offsets)
    within = episode_of[1:] == episode_of[:-1]
    for problem, bad in (
        ("non-finite or negative time", ~np.isfinite(times) | (times < 0)),
        ("times not sorted", np.concatenate([[False], within & (times[1:] < times[:-1])])),
        ("non-finite value", ~np.isfinite(values)),
    ):
        if bad.any():
            raise ValueError(f"episode {str(ids[episode_of[np.argmax(bad)]])!r}: {problem}")
    _check_schema(chans, values, schema, lambda i: f"episode {str(ids[episode_of[i]])!r}")
    if not np.isfinite(labels).all():
        raise ValueError(f"episode {str(ids[np.argmax(~np.isfinite(labels))])!r}: non-finite label")
    # the checks above established everything IrregularSeries checks
    return _to_series(columns, ids.tolist(), labels.tolist(), True), schema


def fit_norm(train: Sequence[IrregularSeries], schema: Schema) -> NormStats:
    """Pool all training observations per real channel and fit mean/std.

    Only training episodes may be passed here; applying the result to
    validation or test data is how those sets stay leak-free. Each channel's
    values are pooled from one concatenation of all episodes, in episode
    order, the order the sums are taken in.
    """
    n = schema.n_channels
    mean = np.zeros(n)
    std = np.ones(n)
    columns = _to_columns(train)
    chans, values = columns["channel_idx"], columns["values"]
    for ch, spec in enumerate(schema.channels):
        if spec.kind != "real":
            continue
        pooled = values[chans == ch]
        if pooled.size == 0:
            warnings.warn(
                f"channel {spec.name!r} has no training observations; using mean 0, std 1",
                stacklevel=2,
            )
            continue
        mean[ch] = float(pooled.mean())
        s = float(pooled.std())
        std[ch] = s if s > 0 else 1.0
    return NormStats(mean=mean, std=std)


def apply_norm(series: IrregularSeries, stats: NormStats, schema: Schema) -> IrregularSeries:
    """Return a copy with real-channel values standardized by ``stats``.

    Refuses already-normalized input: standardizing twice would shift the
    data again, so the flag makes the mistake loud instead of silent.
    """
    if series.normalized:
        raise ValueError(f"episode {series.episode_id!r} is already normalized")
    # the kept copies come before the temporaries: interleaving them left the
    # heap fragmented enough to raise the peak RSS of a later dropout sweep
    times, chans, values = series.times.copy(), series.channel_idx.copy(), series.values.copy()
    # is_real[ch + 1] for a channel index, False outside the schema on both sides
    is_real = np.array([False] + [spec.kind == "real" for spec in schema.channels] + [False])
    real = np.take(is_real, chans + 1, mode="clip")
    ch = chans[real]
    values[real] = (values[real] - stats.mean[ch]) / stats.std[ch]
    if not np.isfinite(values).all():  # only stats fitted to values near the float limit do this
        raise ValueError(f"episode {series.episode_id!r}: non-finite observation value after normalization")
    return IrregularSeries._checked(series.episode_id, times, chans, values, series.label, True)


def _steps_for(window: float, bin_width: float) -> int:
    steps = math.ceil(window / bin_width)
    # guard against float noise pushing an exact ratio past the next integer
    if steps > 1 and (steps - 1) * bin_width >= window:
        steps -= 1
    return steps


def bin_series(series_list: Sequence[IrregularSeries], schema: Schema, window: float,
               bin_width: float) -> BinnedBatch:
    """Place every episode on a fixed grid of ceil(window/bin_width) bins.

    Within a bin and channel the last observation wins. Unobserved bins
    are forward-filled; bins before a channel's first observation take 0
    for real channels (the training mean of normalized data) and an
    all-zero one-hot for categorical channels. Observations at or beyond
    ``window`` are ignored. Within the concatenated observations of all
    episodes, a stable sort by (episode, bin, channel) finds each cell's last
    observation; ``maximum.accumulate`` along the steps forward-fills one
    integer array of their ranks, through which the values and source bins
    are gathered.
    """
    if not (window > 0 and bin_width > 0):
        raise ValueError(f"window and bin_width must be positive, got {window}, {bin_width}")
    series_list = tuple(series_list)
    n, n_ch, steps = len(series_list), schema.n_channels, _steps_for(window, bin_width)

    offsets, times, chans, vals = _to_columns(series_list).values()
    episode = _episode_of(offsets)
    in_window = times < window
    episode, chans, vals = episode[in_window], chans[in_window], vals[in_window]
    bins = np.minimum((times[in_window] / bin_width).astype(np.int64), steps - 1)

    _check_schema(chans, vals, schema, lambda i: f"episode {series_list[episode[i]].episode_id!r}")

    cell = (episode * steps + bins) * n_ch + chans
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    last = np.ones(cell.shape[0], dtype=bool)
    last[:-1] = cell[1:] != cell[:-1]
    kept = order[last]  # the last observation of each observed cell
    cell, vals, bins = cell[last], vals[kept], bins[kept]
    M = np.zeros((n, steps, n_ch))
    M.reshape(-1)[cell] = 1.0
    # rank[e, t, c]: 1 + the rank of the latest observed cell of (e, c) at or
    # before step t, 0 before the first; cells rise with the step within
    # (e, c), so a running maximum along the steps forward-fills the ranks
    rank = np.zeros((n, steps, n_ch), np.int32 if cell.shape[0] < 2**31 else np.int64)
    rank.reshape(-1)[cell] = np.arange(1, cell.shape[0] + 1)
    np.maximum.accumulate(rank, axis=1, out=rank)
    filled = np.concatenate([[0.0], vals])[rank]
    source = np.concatenate([[0], bins]).astype(rank.dtype)[rank]
    D = (np.arange(steps, dtype=rank.dtype)[:, None] - source) * bin_width

    if all(spec.kind == "real" for spec in schema.channels):
        X = filled
    else:
        X = np.zeros((n, steps, sum(spec.n_columns for spec in schema.channels)))
        col = 0
        for ch, spec in enumerate(schema.channels):
            if spec.kind == "real":
                X[..., col] = filled[..., ch]
            else:
                X[..., col : col + spec.cardinality] = (rank[..., ch, None] > 0) & (
                    filled[..., ch, None].astype(np.int64) == np.arange(spec.cardinality))
            col += spec.n_columns

    return BinnedBatch(series=series_list, X=X, M=M, D=D, window=float(window))


def attach_mask(batch: BinnedBatch) -> list[np.ndarray]:
    """The missingness indicators and window-scaled observation gaps to
    append to X, as (episodes, steps, channels) column blocks.

    That is 2 columns per channel: M as-is and D divided by the window so
    the gap feature stays in [0, 1].
    """
    return [batch.M, batch.D / batch.window]


def attach_te(batch: BinnedBatch, cfg: EncoderConfig) -> list[np.ndarray]:
    """The column block to append to X, alone in a list: for each bin, the
    cfg.dim-wide time embedding of the hours since the latest observation in
    any channel.

    That gap is ``batch.D.min(axis=2)``; before the episode's first
    observation it counts from the window start, as ``D`` does. The
    embedding varies with each episode's observation times, which is what
    carries irregular sampling into the features. This is the concatenated
    integration: the embedding columns carry the timing, so the mask and
    gap features are left out of the feature set.
    """
    _check_window(cfg, batch.window)
    gaps = batch.D.min(axis=2)
    return [te_batch(gaps.reshape(-1), cfg).reshape(gaps.shape + (cfg.dim,))]


def drop_observations(series: IrregularSeries, keep_fraction: float, rng_seed) -> IrregularSeries:
    """Keep each observation independently with probability ``keep_fraction``.

    Deterministic under a fixed seed (an int or a sequence of ints); the
    label is untouched and an episode may come back empty.
    """
    if not (0 < keep_fraction <= 1):
        raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
    keep = make_rng(rng_seed).random(series.n_obs) < keep_fraction
    # a subset of a valid series is valid
    return IrregularSeries._checked(series.episode_id, series.times[keep],
                                    series.channel_idx[keep], series.values[keep],
                                    series.label, series.normalized)


def _canonical_permutation(episodes: Sequence[IrregularSeries], rng_seed) -> list[int]:
    """Seeded shuffle of episodes in episode-id order, so the result does not
    depend on the order episodes were passed in."""
    ids = [ep.episode_id for ep in episodes]
    if len(set(ids)) != len(ids):
        raise ValueError("episode ids must be unique")
    by_id = sorted(range(len(ids)), key=lambda i: ids[i])
    return [by_id[j] for j in make_rng(rng_seed).permutation(len(by_id))]


def _split_groups(episodes: Sequence[IrregularSeries], perm: list[int], stratify: bool) -> list[list[int]]:
    """The groups of episode indices that a split deals from: by label in
    ascending label order when ``stratify``, each group keeping the order of
    ``perm``, else ``perm`` as one group."""
    if not stratify:
        return [perm]
    groups: dict[float, list[int]] = {}
    for i in perm:
        if episodes[i].label is None:
            raise ValueError("stratified split needs a label on every episode")
        groups.setdefault(float(episodes[i].label), []).append(i)
    return [groups[key] for key in sorted(groups)]


def split_folds(
    episodes: Sequence[IrregularSeries],
    k: int,
    rng_seed,
    stratify: bool = True,
) -> np.ndarray:
    """Assign each episode to one of k folds, returned aligned to the input.

    Episodes are dealt round-robin from a seeded shuffle of the id-sorted
    list, class by class when stratifying, so fold contents depend only on
    (ids, labels, seed) and fold sizes differ by at most one overall and
    per class.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(episodes) < k:
        raise ValueError(f"cannot split {len(episodes)} episodes into {k} folds")
    perm = _canonical_permutation(episodes, rng_seed)
    ordered = [i for group in _split_groups(episodes, perm, stratify) for i in group]
    fold = np.empty(len(episodes), dtype=np.int64)
    for position, i in enumerate(ordered):
        fold[i] = position % k
    return fold


def train_test_split(
    episodes: Sequence[IrregularSeries],
    test_fraction: float,
    rng_seed,
    stratify: bool = True,
) -> tuple[list[IrregularSeries], list[IrregularSeries]]:
    """Carve a held-out test set off the pool, order-invariantly and seeded."""
    if not (0 < test_fraction < 1):
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if not episodes:
        raise ValueError("cannot split an empty set of episodes")
    perm = _canonical_permutation(episodes, rng_seed)
    test_idx: set[int] = set()
    for members in _split_groups(episodes, perm, stratify):
        test_idx.update(members[: int(round(len(members) * test_fraction))])
    if not test_idx:
        test_idx = {perm[0]}
    if len(test_idx) == len(episodes):
        test_idx.discard(perm[-1])
    pool = [ep for i, ep in enumerate(episodes) if i not in test_idx]
    test = [ep for i, ep in enumerate(episodes) if i in test_idx]
    return pool, test
