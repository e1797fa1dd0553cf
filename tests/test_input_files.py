"""Malformed ``labels.csv`` and ``schema.json`` files, drawn with ``hypothesis``.

Every drawn file either loads to what a simple reading of it gives, or
raises a ``ValueError`` that names the line (labels) or the channel entry
(schema) an oracle finds first; no other exception type may escape. The
drawn inputs: missing and extra fields, bad and non-finite numbers,
duplicate ids, empty files, blank and CRLF lines, and non-object, incomplete
or ill-typed schema entries. Pinned ``@example`` cases are failures these
tests found, now mended.
"""

import csv
import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tembed._util import to_object
from tembed.dataset import LABEL_HEADER, load_labels, load_schema

# fields never hold a comma, quote or line break, so a line splits on commas
FIELD_CHARS = st.characters(min_codepoint=32, max_codepoint=126, exclude_characters=',"')
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "", "abc", "1.0.0", " 2 ", "0x10"]),
    st.text(FIELD_CHARS, max_size=4),
)
LABEL_ROWS = st.one_of(
    st.none(),  # a blank line
    st.tuples(st.sampled_from(["a", "b", "c"]), NUMBERS).map(list),
    st.lists(st.text(FIELD_CHARS, max_size=3), max_size=3),  # missing or extra fields
)


def oracle_labels(has_header, rows):
    """The labels of the file, or a regex for the error its first bad line gives."""
    if not has_header:
        return re.escape(f"expected header {','.join(LABEL_HEADER)}")
    labels = {}
    for line_no, row in enumerate(rows, start=2):
        if not row or row == [""]:  # a blank line
            continue
        if any(len(field) > csv.field_size_limit() for field in row):
            return f"^line {line_no}: field larger than field limit"
        if len(row) != 2:
            return f"^line {line_no}: expected 2 fields, got {len(row)}"
        eid, raw = row
        if eid in labels:
            return f"^line {line_no}: duplicate label for episode"
        try:
            value = float(raw)
        except ValueError:
            return f"^line {line_no}: label .* is not a number"
        if not math.isfinite(value):
            return f"^line {line_no}: label .* is not finite"
        labels[eid] = value
    return labels


@settings(max_examples=200)
@given(has_header=st.booleans(), rows=st.lists(LABEL_ROWS, max_size=6), crlf=st.booleans())
@example(has_header=True, rows=[["a", "1" * (csv.field_size_limit() + 1)]], crlf=False)
def test_label_files_load_or_name_the_bad_line(tmp_path_factory, has_header, rows, crlf):
    lines = ([",".join(LABEL_HEADER)] if has_header else []) + [",".join(row or []) for row in rows]
    end = "\r\n" if crlf else "\n"
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    path.write_bytes("".join(line + end for line in lines).encode())
    expected = oracle_labels(has_header, rows)
    if isinstance(expected, dict):
        assert load_labels(str(path)) == expected
    else:
        with pytest.raises(ValueError, match=expected):
            load_labels(str(path))


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 5), st.floats(allow_nan=False),
                         st.text(max_size=3))
JSON_VALUES = st.recursive(JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=2), inner, max_size=2)), max_leaves=4)
ENTRIES = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries({}, optional={
        "name": st.one_of(st.sampled_from(["a", "b"]), JSON_VALUES),
        "kind": st.one_of(st.sampled_from(["real", "categorical"]), JSON_VALUES),
        "cardinality": st.one_of(st.integers(-1, 4), JSON_VALUES),
        "units": JSON_VALUES,
    }),
)
DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"channels": st.lists(ENTRIES, max_size=4)}),
    st.fixed_dictionaries({"channels": JSON_VALUES}, optional={"extra": JSON_VALUES}),
    JSON_VALUES,
)


def oracle_schema_error(doc):
    """None for a valid schema document, else a regex for the error it must give."""
    if not isinstance(doc, dict):
        return "^schema document must be an object, got "
    if set(doc) - {"channels"}:
        return "^schema document: unknown keys "
    if "channels" not in doc:
        return "^schema document: missing keys "
    if not isinstance(doc["channels"], list):
        return "^schema 'channels' must be a list"
    for i, entry in enumerate(doc["channels"]):
        if not isinstance(entry, dict):
            return f"^schema channel entry {i} must be an object"
        if set(entry) - {"name", "kind", "cardinality"}:
            return f"^schema channel entry {i}: unknown keys "
        if {"name", "kind"} - set(entry):
            return f"^schema channel entry {i}: missing keys "
        card = entry.get("cardinality")
        valid = isinstance(entry["name"], str) and (
            (entry["kind"] == "real" and card is None)
            or (entry["kind"] == "categorical" and type(card) is int and card >= 2))
        if not valid:
            return f"^schema channel entry {i}: "
    names = [entry["name"] for entry in doc["channels"]]
    if not names:
        return "^schema needs at least one channel"
    for j, name in enumerate(names):
        if name in names[:j]:
            return f"^channel names must be unique: channel {j} repeats"
    return None


@settings(max_examples=300)
@given(doc=DOCUMENTS)
@example(doc={"channels": [{"name": "a", "kind": "real"}, {"name": "b", "kind": "categorical", "cardinality": 3}]})
@example(doc={"channels": [{"name": ["a"], "kind": "real"}]})
@example(doc={"channels": [{"name": 5, "kind": "real"}]})
@example(doc={"channels": [{"name": "a", "kind": "real"}, {"name": "a", "kind": "real"}]})
@example(doc={"channels": [{"name": "a", "kind": "bogus"}]})
def test_schema_documents_load_or_name_the_bad_entry(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("schema") / "schema.json"
    path.write_text(json.dumps(doc))
    expected = oracle_schema_error(doc)
    if expected is None:
        assert to_object(load_schema(str(path)))["channels"] == [
            {key: entry[key] for key in ("name", "kind", "cardinality") if entry.get(key) is not None}
            for entry in doc["channels"]]
    else:
        with pytest.raises(ValueError, match=expected):
            load_schema(str(path))


@settings(max_examples=100)
@given(text=st.one_of(st.just(""), st.text(st.characters(max_codepoint=126), max_size=8)))
def test_schema_files_that_are_not_json_name_the_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("schema") / "schema.json"
    path.write_text(text)
    try:
        doc = json.loads(text)
    except ValueError:
        with pytest.raises(ValueError, match=r"line \d+ column \d+"):
            load_schema(str(path))
        return
    expected = oracle_schema_error(doc)
    assert expected is not None  # no valid schema document is this short
    with pytest.raises(ValueError, match=expected):
        load_schema(str(path))
