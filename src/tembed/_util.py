"""Shared helpers: deterministic RNG construction, canonical JSON, atomic writes and
the readers of what they write, number checks, the table-driven reader of JSON
objects and the JSON object of a dataclass."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import locale
import numbers
import os
import secrets
import sys
import zipfile
from dataclasses import MISSING, asdict, fields
from typing import Sequence

import numpy as np

RNG_ALGORITHM = "philox-4x64"


def check_int(name: str, value, low: int):
    """``value`` if it is an int >= ``low``, else ValueError; a bool is never a count or a seed."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(name: str, value, low: float, *, strict: bool, below: float | None = None):
    """``value`` if it is a finite real number > ``low`` (``strict``) or >= ``low``, and
    < ``below`` when that is given, else ValueError; a bool is never a real value."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max  # NaN, inf, or an int past every float
            or (value <= low if strict else value < low) or (below is not None and value >= below)):
        bound = f"{'>' if strict else '>='} {low}" + (f" and < {below}" if below is not None else "")
        raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
    return value


def check_object(what: str, obj, names=None, required=(), paths=()):
    """``obj`` if it is a JSON object whose keys all lie in ``names`` (any keys when None),
    that holds every key in ``required`` and a non-empty string or null under each key in
    ``paths``; else ValueError naming ``what`` and every fault."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(names)) if names is not None else []
    missing = [key for key in required if key not in obj]
    faults = [f"unknown keys {unknown}"] if unknown else []
    faults += [f"missing keys {missing}"] if missing else []
    faults += [f"{key} must be a path string, got {obj[key]!r}"
               for key in paths if obj.get(key) == "" or not isinstance(obj.get(key), (str, type(None)))]
    if faults:
        raise ValueError(f"{what}: {'; '.join(faults)}")
    return obj


TOP = "top level"  # the ``what`` of a config document's own entries
REQUIRED = object()  # the table default of a key that the section must hold
PATH = object()  # the table check of a path: a non-empty string, or null for none


class Needed(str):
    """The table default of a key that a flag may give instead: the problem of its absence."""


def check_section(what: str, obj, table: dict, problems: list[str], build=None):
    """The values of the JSON object ``obj`` under ``table``, ``{key: (default, check)}``, or
    ``build(**values)``; None once ``obj`` gave a problem, each recorded in ``problems`` once.

    The key pass (:func:`check_object`, with the REQUIRED keys and the PATH entries) and an
    absent or null Needed key come first. Each other given entry then goes through
    ``check(name, value)``, ``name`` being ``what.key`` (``key`` at the TOP level), and takes
    its result. ``build`` runs once every required key is there, on the table's keys only
    and an entry that failed its check at its default, so no fault is reported twice; its
    ValueError is prefixed with ``what``."""
    first = len(problems)
    required = [key for key, (default, _) in table.items() if default is REQUIRED]
    try:
        check_object(what, obj, table, required, [key for key, (_, check) in table.items() if check is PATH])
    except ValueError as exc:
        problems.append(str(exc))
        if not isinstance(obj, dict):
            return None
    needed = [default for key, (default, _) in table.items() if isinstance(default, Needed) and obj.get(key) is None]
    problems += needed
    values = {key: obj.get(key, default) for key, (default, _) in table.items()}
    for key, (default, check) in table.items():
        if key in obj and check not in (None, PATH):
            try:
                values[key] = check(key if what == TOP else f"{what}.{key}", obj[key])
            except ValueError as exc:
                problems.append(str(exc))
                values[key] = default
    if build is not None and not needed and all(key in obj for key in required):
        try:
            values = build(**values)
        except ValueError as exc:
            problems.append(f"{what}: {exc}")
    return values if len(problems) == first else None


def field_table(cls) -> dict:
    """The :func:`check_section` table of a dataclass: its fields, checked by the constructor."""
    return {f.name: (REQUIRED if f.default is MISSING else f.default, None) for f in fields(cls)}


def from_object(cls, what: str, obj):
    """The dataclass ``cls`` built from ``obj`` by :func:`check_section` under its
    :func:`field_table`; its problems, each naming ``what``, raise one ValueError."""
    problems: list[str] = []
    built = check_section(what, obj, field_table(cls), problems, cls)
    if problems:
        raise ValueError("; ".join(problems))
    return built


def _json_value(value):
    return list(value) if isinstance(value, tuple) else value.tolist() if isinstance(value, np.ndarray) else value


def to_object(obj) -> dict:
    """The JSON object of the dataclass ``obj``, the form :func:`from_object` reads: nested
    dataclasses as objects, tuples and float arrays as lists, and None fields left out."""
    return asdict(obj, dict_factory=lambda items: {key: _json_value(value) for key, value in items
                                                   if value is not None})


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
    """Write a file via temp-and-rename so readers never observe a torn file. The file
    gets the mode that ``open(path, "w")`` gives a new file under the process umask."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}{os.path.basename(path)}")
    # not tempfile.mkstemp, which creates mode 0600 whatever the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
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


@contextlib.contextmanager
def open_text(path: str, **kwargs):
    """``open(path, **kwargs)``, undecodable bytes a ValueError naming ``path``."""
    with open(path, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path} is not valid text: {exc}") from None


def float_repr(x: float) -> str:
    """Shortest decimal string that round-trips the exact float64 value."""
    return repr(float(x))
