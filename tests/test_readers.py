"""Every reader of an outside file either parses it or raises a
`CorpusError`, `ParseError` or `ValueError` whose message names the file."""

import argparse
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmat import cli
from lingmat.corpus import CorpusError, DatasetSelection, read_pairs
from lingmat.invariants import EnsembleAverages
from lingmat.matrix_core import LABELS_NAME, MEMBERS_NAME, read_stack, write_stack

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
}


def _raw(reader):
    """Random bytes, any JSON value, or contents shaped for ``reader``."""
    return st.one_of(st.binary(max_size=40), json_bytes(json_values), READERS[reader][2])


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
    ("averages", b'{"dim": 3, "count": 2, "values": [1]}'),
    ("averages", b'{"dim": 3, "count": 2, "values": {"nope": 1}}'),
    ("config", b"not json"),
    ("config", b"[1]"),
    ("config", b'{"text": "yes"}'),
    ("selection", b'{"targets": [7]}'),
    ("labels", b'["a", 1]'),
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


def test_invalid_utf8_pairs_line_is_named(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"# comment\nbig\tcat\t3\nbig\tcaf\xc3\xa9\t1\nred\tc\xe1r\t2\n")
    with pytest.raises(CorpusError, match=f"^{path}:4: invalid UTF-8"):
        read_pairs(path)


def test_pairs_keep_their_non_ascii_words(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("café\t名\t2\r\ncafé\t名\t1\n", encoding="utf-8")
    assert read_pairs(path) == {"café": {"名": 3}}
