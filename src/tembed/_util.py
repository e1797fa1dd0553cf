"""Shared helpers: deterministic RNG construction, canonical JSON, atomic writes and
the readers of what they write, number and JSON-object checks."""

from __future__ import annotations

import hashlib
import io
import json
import locale
import numbers
import os
import sys
import tempfile
import zipfile
from dataclasses import MISSING, fields
from typing import Sequence

import numpy as np

RNG_ALGORITHM = "philox-4x64"


def check_int(name: str, value, low: int):
    """``value`` if it is an int >= ``low``, else ValueError; a bool is never a count or a seed."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(name: str, value, low: float, *, strict: bool):
    """``value`` if it is a finite real number > ``low`` (``strict``) or >= ``low``,
    else ValueError; a bool is never a real value."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max  # NaN, inf, or an int past every float
            or (value <= low if strict else value < low)):
        raise ValueError(f"{name} must be a finite number {'>' if strict else '>='} {low}, got {value!r}")
    return value


def check_object(what: str, obj, names=None, required=(), paths=()):
    """``obj`` if it is a JSON object whose keys all lie in ``names`` (any keys when None),
    that holds every key in ``required`` and a string or null under each key in ``paths``;
    else ValueError naming ``what`` and every fault."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(names)) if names is not None else []
    missing = [key for key in required if key not in obj]
    faults = [f"unknown keys {unknown}"] if unknown else []
    faults += [f"missing keys {missing}"] if missing else []
    faults += [f"{key} must be a path string, got {obj[key]!r}"
               for key in paths if not isinstance(obj.get(key), (str, type(None)))]
    if faults:
        raise ValueError(f"{what}: {'; '.join(faults)}")
    return obj


def from_object(cls, what: str, obj):
    """``cls(**obj)`` for a dataclass ``cls``, once ``obj`` passes :func:`check_object`
    with the fields of ``cls`` as its keys, those without a default required; a
    ValueError from ``cls`` is prefixed with ``what``."""
    check_object(what, obj, [f.name for f in fields(cls)],
                 [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING])
    try:
        return cls(**obj)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def seed_entropy(seed: int | Sequence[int]) -> list[int]:
    """Normalize a seed, an int or a sequence of ints, to an entropy list."""
    return [seed] if isinstance(seed, (int, np.integer)) else list(seed)


def make_rng(seed: int | Sequence[int]) -> np.random.Generator:
    """Build a counter-based generator keyed by an int or a list of integers.

    Philox is counter-based: streams keyed by distinct entropy lists are
    statistically independent, so ``[seed, episode]`` or ``[seed, fold, run]``
    give reproducible per-unit streams with no cross-talk. List keying avoids
    the collisions that XOR-combining components would produce (0^1 == 1^0).
    An int ``n`` keys the same stream as ``[n]``.
    """
    ss = np.random.SeedSequence(seed_entropy(seed))
    return np.random.Generator(np.random.Philox(ss))


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no float truncation, for stable hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write a file via temp-and-rename so readers never observe a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_npz(path: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Atomically write named arrays plus a ``__meta__`` JSON string as one
    uncompressed npz container; numpy fixes its zip timestamps, so equal
    inputs give equal bytes."""
    buf = io.BytesIO()
    np.savez(buf, __meta__=np.array(json.dumps(meta, sort_keys=True)), **arrays)
    atomic_write_bytes(path, buf.getvalue())


def read_npz(path: str, what: str, version: int) -> tuple[dict, dict[str, np.ndarray]]:
    """The ``__meta__`` object and the arrays of an :func:`atomic_write_npz`
    container, read without unpickling anything. A container that is not a
    readable zip, holds a pickle, lacks a JSON-object ``__meta__`` or gives a
    ``format_version`` other than ``version`` raises ValueError."""
    try:
        with zipfile.ZipFile(path) as zf:
            arrays = {}
            for name in zf.namelist():
                with zf.open(name) as fh:
                    arrays[name.removesuffix(".npy")] = np.lib.format.read_array(fh, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"not a readable npz container ({exc})") from None
    try:
        meta = json.loads(str(arrays.pop("__meta__")[()]))
    except (KeyError, ValueError):
        meta = None
    if not isinstance(meta, dict):
        raise ValueError("__meta__ is not a JSON object")
    if meta.get("format_version") != version:
        raise ValueError(f"unsupported {what} container version {meta.get('format_version')!r}, "
                         f"expected {version}")
    return meta, arrays


def atomic_write_text(path: str, text: str) -> None:
    """Text form of :func:`atomic_write_bytes`, encoded as text-mode ``open`` encodes."""
    atomic_write_bytes(path, text.encode(locale.getpreferredencoding(False)))


def write_json_document(path: str, obj) -> None:
    """Atomically write an indented, key-sorted JSON document for people to read."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json_document(path: str):
    """The JSON document at ``path``; invalid JSON raises ValueError naming the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that do not decode
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def float_repr(x: float) -> str:
    """Shortest decimal string that round-trips the exact float64 value."""
    return repr(float(x))
