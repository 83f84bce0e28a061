"""Every reader of an outside file either parses it or raises a
`CorpusError`, `ParseError` or `ValueError` whose message names the file."""

import argparse
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmat import cli
from lingmat.corpus import CorpusError, DatasetSelection, read_pairs
from lingmat.invariants import EnsembleAverages
from lingmat.matrix_core import (LABELS_NAME, MEMBERS_NAME, ParseError, read_ensemble,
                                 read_matrix, read_stack, read_vector, write_stack)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=10)


def objects(keys, values=json_values):
    """JSON objects over ``keys``, so that values reach the checks behind
    the key lookups."""
    return st.dictionaries(st.sampled_from(keys), values, max_size=len(keys))


def json_bytes(values):
    return values.map(lambda v: json.dumps(v).encode())


#: Tab-separated lines of short fields, some of them counts or not UTF-8.
pairs_bytes = st.lists(
    st.lists(st.sampled_from([b"big", b"3", b"-1", b"x", b"#", b"", b"c\xe1t", b"caf\xc3\xa9"]),
             max_size=4).map(b"\t".join),
    max_size=4).map(b"\n".join)


def _npy(descr="<f8", fortran="False", shape="(2, 2, 2)", length_shift=0, data_len=64):
    """A format 1.0 ``.npy`` file of zero bytes whose header fields, written
    as text, may be wrong; ``length_shift`` moves its header length field."""
    header = f"{{'descr': {descr!r}, 'fortran_order': {fortran}, 'shape': {shape}, }}\n"
    length = min(max(len(header) + length_shift, 0), 0xFFFF)
    return (b"\x93NUMPY\x01\x00" + length.to_bytes(2, "little") + header.encode("latin1")
            + bytes(data_len))


#: Stacks with mutated descr, order, shape, header length and data length.
npy_bytes = st.builds(
    _npy,
    st.sampled_from(["<f8", ">f8", "<f4", "<i8", "|O", "float64"]),
    st.sampled_from(["False", "True", "0", "None"]),
    st.lists(st.integers(0, 3) | st.just(10 ** 6), max_size=4).map(lambda s: repr(tuple(s)))
    | st.sampled_from(["(2L, 2L, 2L)", "(2, 2", "[2, 2, 2]", "(True, 2, 2)", "(2.0, 2, 2)",
                       "(-1, 2, 2)", "(2, 2, 2) + (1,)"]),
    st.integers(-6, 6),
    st.integers(0, 80))

#: Lines of a single-item matrix or vector text file, some not UTF-8.
text_bytes = st.lists(
    st.sampled_from([b"label w", b"dim 1", b"dim 2", b"1.5", b"1 2", b"x", b"nan", b"",
                     b"\xff", b"caf\xc3\xa9"]),
    max_size=5).map(b"\n".join)


def _read_config(path):
    """The config reader of a subcommand with string, bool and path flags."""
    return cli._merge_config(cli.build_parser().parse_args(["report", "--config", path]))


def _read_params(path):
    return cli._read_params(argparse.Namespace(params=path, dim=None))


def _read_averages(path):
    return cli._load_json(path, EnsembleAverages.from_json_dict)


def _read_selection(path):
    return cli._load_json(path, DatasetSelection.from_json_dict)


def _read_labels(path):
    return read_stack(os.path.dirname(path), MEMBERS_NAME, 3)


def _read_stack(path):
    return read_ensemble(os.path.dirname(path))


#: reader name -> (file name, read(path), contents shaped to reach its checks)
READERS = {
    "pairs": ("pairs.tsv", read_pairs, pairs_bytes),
    "config": ("config.json", _read_config,
               json_bytes(objects(["params", "ensemble", "out", "text"]))),
    "params": ("params.json", _read_params,
               json_bytes(objects(["dim", "lambda", "a", "b", "j0", "js"],
                                  json_values | st.floats(0.5, 9.0) | st.integers(1, 9)))),
    "averages": ("averages.json", _read_averages,
                 json_bytes(objects(["dim", "count", "values"],
                                    json_values | objects(["Md1", "Mo1", "nope"])))),
    "selection": ("selection.json", _read_selection,
                  json_bytes(objects(["targets"], st.lists(
                      objects(["word", "pos_class", "freq", "args"]), max_size=3)))),
    "labels": (LABELS_NAME, _read_labels,
               json_bytes(st.lists(st.text(max_size=3), max_size=3))),
    "stack": (MEMBERS_NAME, _read_stack, npy_bytes),
    "matrix": ("matrix.txt", read_matrix, text_bytes),
    "vector": ("vector.txt", read_vector, text_bytes),
}


#: JSON nested deeper than the decoder's recursion limit.
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def _raw(reader):
    """Random bytes, any JSON value, JSON nested too deep to decode, or
    contents shaped for ``reader``."""
    return st.one_of(st.binary(max_size=40), json_bytes(json_values), st.just(DEEP_JSON),
                     READERS[reader][2])


def _check_names_the_file(reader, raw):
    name, read, _ = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        write_stack([("a", np.zeros((2, 2))), ("b", np.ones((2, 2)))], tmp, MEMBERS_NAME)
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        try:
            read(path)
        except SystemExit as exc:
            # a config key that matches no flag is the CLI's usage error,
            # which names the file as well
            assert reader == "config" and path in str(exc.code), exc
        except ValueError as exc:  # CorpusError and ParseError included
            assert path in str(exc), exc


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_parses_or_names_its_file(reader):
    @settings(max_examples=150, deadline=None)
    @given(_raw(reader))
    def check(raw):
        _check_names_the_file(reader, raw)

    check()


@pytest.mark.parametrize("reader, raw", [
    ("params", b"[1, 2]"),
    ("params", b'{"dim": 2.5, "lambda": 1, "a": 1, "b": 1, "j0": 0, "js": 0}'),
    ("params", b'{"dim": true, "lambda": 1, "a": 1, "b": 1, "j0": 0, "js": 0}'),
    ("params", b'{"dim": 2, "lambda": "3", "a": 1, "b": 1, "j0": 0, "js": 0}'),
    ("averages", b'{"dim": 3, "count": 2, "values": [1]}'),
    ("averages", b'{"dim": 3, "count": 2, "values": {"nope": 1}}'),
    ("averages", b'{"dim": 4.7, "count": 2.9, "values": {"Md1": 1}}'),
    ("averages", b'{"dim": 4, "count": 2, "values": {"Md1": "1"}}'),
    ("config", b"not json"),
    ("config", b"[1]"),
    ("config", b'{"text": "yes"}'),
    ("selection", b'{"targets": [7]}'),
    ("selection", b'{"targets": [{"word": "big", "pos_class": "adjective", "freq": 7.9, '
                  b'"args": []}]}'),
    ("selection", b'{"targets": [{"word": "big", "pos_class": "adjective", "freq": 7, '
                  b'"args": [["cat", 2.5]]}]}'),
    ("selection", b'{"targets": [{"word": "big", "pos_class": "adjective", "freq": 7, '
                  b'"args": [["cat", true]]}]}'),
    ("selection", b'{"targets": [{"word": 3, "pos_class": "adjective", "freq": 7, '
                  b'"args": []}]}'),
    ("selection", b'{"targets": [{"word": "big", "pos_class": "bogus", "freq": 7, '
                  b'"args": []}]}'),
    ("labels", b'["a", 1]'),
    ("stack", _npy(length_shift=-20)),
    ("stack", _npy(shape="(2L, 2L, 2L)")),
])
def test_malformed_file_names_its_path(reader, raw):
    name, read, _ = READERS[reader]
    with tempfile.TemporaryDirectory() as tmp:
        write_stack([("a", np.zeros((2, 2)))], tmp, MEMBERS_NAME)
        path = os.path.join(tmp, name)
        with open(path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(ValueError) as info:
            read(path)
    assert path in str(info.value)


@pytest.mark.parametrize("shape", ["(1, 1000000, 1000000)", "(1, 3000, 3000)"])
def test_stack_header_is_checked_before_the_data_are_allocated(tmp_path, shape):
    write_stack([("a", np.zeros((2, 2)))], tmp_path, MEMBERS_NAME)
    (tmp_path / MEMBERS_NAME).write_bytes(_npy(shape=shape, data_len=64))
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=f"^{tmp_path / MEMBERS_NAME}: "):
            read_ensemble(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("reader", ["matrix", "vector"])
def test_invalid_utf8_text_line_is_named(tmp_path, reader):
    name, read, _ = READERS[reader]
    path = tmp_path / name
    path.write_bytes(b"label w\ndim 1\n\xff\n")
    with pytest.raises(ParseError, match=f"^{path}:3: invalid UTF-8"):
        read(path)


def test_invalid_utf8_pairs_line_is_named(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"# comment\nbig\tcat\t3\nbig\tcaf\xc3\xa9\t1\nred\tc\xe1r\t2\n")
    with pytest.raises(CorpusError, match=f"^{path}:4: invalid UTF-8"):
        read_pairs(path)


@pytest.mark.parametrize("line, field", [(b"adj\t\t3", "argument"), (b"\tn00\t9", "head"),
                                         (b"\t\t1", "head")])
def test_empty_pairs_field_is_named(tmp_path, line, field):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"# comment\nbig\tcat\t3\n" + line + b"\n")
    with pytest.raises(CorpusError, match=f"^{path}:3: empty {field}$"):
        read_pairs(path)


@pytest.mark.parametrize("count, message", [
    ("1_0", "count '1_0' is not an integer"), ("\u0663", "count '\u0663' is not an integer"),
    ("+3", "count '\\+3' is not an integer"), (" 3", "count ' 3' is not an integer"),
    ("-1", "negative count"), ("-0", "negative count"), ("-x", "negative count"),
])
def test_pairs_count_is_ascii_digits(tmp_path, count, message):
    """``int`` would read ``1_0`` as 10 and ``\u0663`` (ARABIC-INDIC DIGIT
    THREE) as 3; a count is ASCII digits only."""
    path = tmp_path / "pairs.tsv"
    path.write_text(f"big\tcat\t007\nbig\tdog\t{count}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"^{path}:2: {message}$"):
        read_pairs(path)
    path.write_text("big\tcat\t007\n", encoding="utf-8")
    assert read_pairs(path) == {"big": {"cat": 7}}


def test_pairs_keep_their_non_ascii_words(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("café\t名\t2\r\ncafé\t名\t1\n", encoding="utf-8")
    assert read_pairs(path) == {"café": {"名": 3}}
