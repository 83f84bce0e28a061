import json
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest

from lingmat.corpus import read_vectors_dir, write_vectors_dir
from lingmat.matrix_core import (
    MEMBERS_NAME,
    Ensemble,
    ParseError,
    PermutationMap,
    WordMatrix,
    antisymmetric_part,
    apply_permutation,
    read_ensemble,
    read_matrix,
    read_vector,
    symmetric_part,
    write_ensemble,
    write_matrix,
    write_stack,
    write_vector,
)


def wm(values, label="w"):
    return WordMatrix(label, np.asarray(values, dtype=float))


class TestWordMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            wm([[0.0, np.nan], [0.0, 0.0]])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            wm([[np.inf]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            WordMatrix("w", np.zeros((2, 3)))

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError):
            WordMatrix("", np.zeros((1, 1)))

    def test_values_locked(self):
        m = wm([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0


def ens(labels, values):
    return Ensemble(labels, np.asarray(values, dtype=float))


class TestEnsemble:
    def test_nonempty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ens([], np.zeros((0, 2, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ens(["a", "b"], np.zeros((2, 2, 3)))

    def test_takes_the_stack_without_a_copy(self):
        values = np.arange(18.0).reshape(2, 3, 3)
        e = Ensemble(["a", "b"], values)
        assert e.values is values and not values.flags.writeable
        assert len(e) == 2 and e.dim == 3 and e.labels() == ["a", "b"]
        assert [m.label for m in e.members] == ["a", "b"]
        np.testing.assert_array_equal(e.members[1].values, values[1])

    @pytest.mark.parametrize("labels, entry, match", [
        (["a"], 0.0, "1 labels for 2 matrices"),
        (["a", ""], 0.0, "nonempty strings"),
        (["a", "b"], np.nan, "non-finite"),
        (["a", "b"], -np.inf, "non-finite"),
    ])
    def test_rejects_bad_labels_and_entries(self, labels, entry, match):
        values = np.zeros((2, 3, 3))
        values[1, 2, 0] = entry
        with pytest.raises(ValueError, match=match):
            Ensemble(labels, values)


class TestSymmetricDecomposition:
    def test_symmetric_part_basic(self):
        s = symmetric_part(wm([[0, 2], [0, 0]]))
        np.testing.assert_array_equal(s.values, [[0, 1], [1, 0]])

    def test_symmetric_fixed_point(self):
        m = wm([[1, 5], [5, 2]])
        np.testing.assert_array_equal(symmetric_part(m).values, m.values)

    def test_symmetric_hand_case(self):
        s = symmetric_part(wm([[1, 3], [-1, 2]]))
        np.testing.assert_array_equal(s.values, [[1, 1], [1, 2]])

    def test_antisymmetric_basic(self):
        a = antisymmetric_part(wm([[0, 2], [0, 0]]))
        np.testing.assert_array_equal(a.values, [[0, 1], [-1, 0]])

    def test_antisymmetric_of_symmetric_is_zero(self):
        a = antisymmetric_part(wm([[1, 5], [5, 2]]))
        np.testing.assert_array_equal(a.values, np.zeros((2, 2)))

    def test_antisymmetric_hand_case(self):
        a = antisymmetric_part(wm([[1, 3], [-1, 2]]))
        np.testing.assert_array_equal(a.values, [[0, 2], [-2, 0]])

    def test_decomposition_reconstructs(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5, 9):
            m = wm(rng.normal(size=(d, d)))
            total = symmetric_part(m).values + antisymmetric_part(m).values
            np.testing.assert_allclose(total, m.values, rtol=0, atol=1e-15)

    def test_transpose_identities(self):
        m = wm(np.random.default_rng(1).normal(size=(4, 4)))
        s = symmetric_part(m).values
        a = antisymmetric_part(m).values
        np.testing.assert_array_equal(s, s.T)
        np.testing.assert_array_equal(a, -a.T)


class TestPermutations:
    def test_identity(self):
        m = wm([[1, 2], [3, 4]])
        out = apply_permutation(m, PermutationMap.identity(2))
        np.testing.assert_array_equal(out.values, m.values)

    def test_swap(self):
        out = apply_permutation(wm([[1, 2], [3, 4]]), PermutationMap([1, 0]))
        np.testing.assert_array_equal(out.values, [[4, 3], [2, 1]])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(2)
        m = wm(rng.normal(size=(6, 6)))
        sigma = PermutationMap(rng.permutation(6))
        back = apply_permutation(apply_permutation(m, sigma), sigma.inverse())
        np.testing.assert_array_equal(back.values, m.values)

    def test_group_action(self):
        rng = np.random.default_rng(3)
        m = wm(rng.normal(size=(5, 5)))
        for _ in range(10):
            sigma = PermutationMap(rng.permutation(5))
            tau = PermutationMap(rng.permutation(5))
            lhs = apply_permutation(apply_permutation(m, sigma), tau)
            rhs = apply_permutation(m, tau.compose(sigma))
            np.testing.assert_array_equal(lhs.values, rhs.values)

    def test_not_a_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            PermutationMap([0, 0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            apply_permutation(wm(np.zeros((3, 3))), PermutationMap([1, 0]))


class TestMatrixIO:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(7, 7)) * np.exp(rng.normal(size=(7, 7)) * 20)
        m = WordMatrix("some word", values)
        path = tmp_path / "m.txt"
        write_matrix(m, path)
        back = read_matrix(path)
        assert back.label == "some word"
        np.testing.assert_array_equal(back.values, m.values)

    def test_row_length_mismatch_names_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("label w\ndim 3\n1 2 3\n4 5\n7 8 9\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4"):
            read_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            read_matrix(path)

    def test_non_numeric_entry(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("label w\ndim 2\n1 2\n3 x\n")
        with pytest.raises(ParseError, match=r"bad\.txt:4.*non-numeric"):
            read_matrix(path)

    def test_missing_rows(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("label w\ndim 3\n1 2 3\n")
        with pytest.raises(ParseError, match="rows"):
            read_matrix(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.txt"
        path.write_text("dim 2\nlabel w\n1 2\n3 4\n")
        with pytest.raises(ParseError, match=r"hdr\.txt:1"):
            read_matrix(path)

    def test_vector_roundtrip(self, tmp_path):
        v = np.random.default_rng(5).normal(size=11)
        path = tmp_path / "v.txt"
        write_vector("red car", v, path)
        label, back = read_vector(path)
        assert label == "red car"
        np.testing.assert_array_equal(back, v)


class TestEnsembleIO:
    def test_roundtrip_preserves_order(self, tmp_path):
        rng = np.random.default_rng(6)
        labels = [f"word{i}" for i in range(5)]
        values = rng.normal(size=(5, 3, 3))
        write_ensemble(ens(labels, values), tmp_path / "ens")
        back = read_ensemble(tmp_path / "ens")
        assert back.labels() == labels
        np.testing.assert_array_equal(back.values, values)

    def test_streamed_stack_is_the_npy_of_the_whole_array(self, tmp_path):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(11, 4, 4))
        labels = write_stack(((f"m{i}", v) for i, v in enumerate(values)),
                             tmp_path / "ens", MEMBERS_NAME)
        assert labels == [f"m{i}" for i in range(11)]
        np.save(tmp_path / "whole.npy", values)
        assert ((tmp_path / "ens" / "members.npy").read_bytes()
                == (tmp_path / "whole.npy").read_bytes())

    def test_rewrite_removes_stale_members(self, tmp_path):
        rng = np.random.default_rng(7)
        old = ens([f"old{i}" for i in range(5)], rng.normal(size=(5, 3, 3)))
        new = ens(["new0", "new1"], rng.normal(size=(2, 3, 3)))
        write_ensemble(old, tmp_path / "ens")
        (tmp_path / "ens" / "notes.txt").write_text("kept\n")
        write_ensemble(new, tmp_path / "ens")
        assert sorted(os.listdir(tmp_path / "ens")) == [
            "labels.json", "members.npy", "notes.txt"]
        back = read_ensemble(tmp_path / "ens")
        assert back.labels() == ["new0", "new1"]
        np.testing.assert_array_equal(back.values, new.values)

    @pytest.mark.parametrize("fault", ["exception", "dimension"])
    def test_failed_write_keeps_previous_ensemble(self, tmp_path, fault):
        rng = np.random.default_rng(9)
        old = ens([f"old{i}" for i in range(4)], rng.normal(size=(4, 3, 3)))
        write_ensemble(old, tmp_path / "ens")

        def rows():  # a streamed write, as `lingmat sample` makes
            yield "new0", rng.normal(size=(3, 3))
            yield "new1", rng.normal(size=(3, 3))
            if fault == "exception":
                raise RuntimeError("interrupted")
            yield "new2", rng.normal(size=(4, 4))

        with pytest.raises(RuntimeError if fault == "exception" else ValueError):
            write_stack(rows(), tmp_path / "ens", MEMBERS_NAME)
        assert sorted(os.listdir(tmp_path / "ens")) == ["labels.json", "members.npy"]
        back = read_ensemble(tmp_path / "ens")
        assert back.labels() == old.labels()
        np.testing.assert_array_equal(back.values, old.values)

    def test_crash_between_replaces_leaves_no_stale_labels(self, tmp_path, monkeypatch):
        """A failure after the stack is moved into place, before the labels
        are, must not pair the new rows with the old labels."""
        rng = np.random.default_rng(11)
        write_ensemble(ens(["a", "b"], rng.normal(size=(2, 3, 3))), tmp_path / "ens")
        real = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "labels.json":
                raise OSError("disk full")
            real(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(OSError, match="disk full"):
            write_ensemble(ens(["c", "d"], rng.normal(size=(2, 3, 3))), tmp_path / "ens")
        monkeypatch.undo()
        assert os.listdir(tmp_path / "ens") == ["members.npy"]
        with pytest.raises(ParseError, match="labels.json"):
            read_ensemble(tmp_path / "ens")

    def test_empty_ensemble_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_ensemble(ens([], np.zeros((0, 3, 3))), tmp_path / "ens")
        assert not (tmp_path / "ens").exists()

    def test_read_holds_one_copy_of_the_stack(self, tmp_path):
        values = np.random.default_rng(10).normal(size=(300, 100, 100))
        labels = [f"m{i}" for i in range(300)]
        write_ensemble(ens(labels, values), tmp_path)
        size = os.path.getsize(tmp_path / "members.npy")
        tracemalloc.start()
        try:
            back = read_ensemble(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * size
        assert back.labels() == labels
        assert back.values.tobytes() == values.tobytes()

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ParseError, match="manifest"):
            read_ensemble(tmp_path)


LABELS = ["#tag", "# two words", "red car", "Bär", "名詞", "manifest", "labels.json",
          "members.npy", "vectors.npy", " padded ", "line\nbreak"]


def _write_good(kind, dirpath):
    """A two-row stack directory of the given kind; returns its reader,
    stack path and shape."""
    if kind == "ensemble":
        write_ensemble(ens(["a", "b"], [np.eye(3), 2 * np.eye(3)]), dirpath)
        return read_ensemble, dirpath / "members.npy", (2, 3, 3)
    write_vectors_dir((["a", "b"], np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])), dirpath)
    return read_vectors_dir, dirpath / "vectors.npy", (2, 3)


def _truncate(path, size):
    with open(path, "r+b") as fh:
        fh.truncate(size)


def _savez(path, array):
    with open(path, "wb") as fh:
        np.savez(fh, a=array)


def _with_entry(value):
    def corrupt(path, shape):
        bad = np.ones(shape)
        bad[(1,) * len(shape)] = value
        np.save(path, bad)
    return corrupt


BAD_STACKS = {
    "missing": lambda path, shape: os.remove(path),
    "empty_file": lambda path, shape: _truncate(path, 0),
    "truncated_header": lambda path, shape: _truncate(path, 50),
    "truncated_data": lambda path, shape: _truncate(path, os.path.getsize(path) - 5),
    "int64": lambda path, shape: np.save(path, np.ones(shape, dtype=np.int64)),
    "float32": lambda path, shape: np.save(path, np.ones(shape, dtype=np.float32)),
    "object": lambda path, shape: np.save(path, np.full(shape, 1.0, dtype=object),
                                          allow_pickle=True),
    "pickle": lambda path, shape: path.write_bytes(pickle.dumps(np.ones(shape))),
    "npz": lambda path, shape: _savez(path, np.ones(shape)),
    "rank_low": lambda path, shape: np.save(path, np.ones(shape[:-1])),
    "rank_high": lambda path, shape: np.save(path, np.ones(shape + (1,))),
    "more_rows": lambda path, shape: np.save(path, np.ones((3,) + shape[1:])),
    "fewer_rows": lambda path, shape: np.save(path, np.ones((1,) + shape[1:])),
    "nan": _with_entry(np.nan),
    "inf": _with_entry(-np.inf),
}

BAD_LABELS = {
    "missing": None,
    "not_json": "label a\nlabel b\n",
    "object": '{"a": 0, "b": 1}',
    "empty_label": '["a", ""]',
    "number": '["a", 2]',
}


class TestStackDirectories:
    @pytest.mark.parametrize("kind", ["ensemble", "vectors"])
    @pytest.mark.parametrize("label", LABELS)
    def test_labels_round_trip(self, tmp_path, kind, label):
        labels = [label, "plain"]
        if kind == "ensemble":
            write_ensemble(ens(labels, [np.eye(2)] * 2), tmp_path)
            assert read_ensemble(tmp_path).labels() == labels
        else:
            write_vectors_dir((labels, np.array([[1.0, 2.0]] * len(labels))), tmp_path)
            assert read_vectors_dir(tmp_path)[0] == labels

    @pytest.mark.parametrize("kind", ["ensemble", "vectors"])
    @pytest.mark.parametrize("case", sorted(BAD_STACKS))
    def test_malformed_stack_names_the_path(self, tmp_path, kind, case):
        reader, path, shape = _write_good(kind, tmp_path)
        BAD_STACKS[case](path, shape)
        with pytest.raises(ParseError, match=re.escape(str(path))):
            reader(tmp_path)

    @pytest.mark.parametrize("kind", ["ensemble", "vectors"])
    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_malformed_label_manifest_names_the_path(self, tmp_path, kind, case):
        reader, _, _ = _write_good(kind, tmp_path)
        if BAD_LABELS[case] is None:
            os.remove(tmp_path / "labels.json")
        else:
            (tmp_path / "labels.json").write_text(BAD_LABELS[case])
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "labels.json"))):
            reader(tmp_path)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3, 3), (2, 0, 0)])
    def test_ensemble_stack_must_be_nonempty_and_square(self, tmp_path, shape):
        write_ensemble(ens(["a", "b"], [np.eye(3)] * 2), tmp_path)
        np.save(tmp_path / "members.npy", np.ones(shape))
        (tmp_path / "labels.json").write_text(json.dumps(["a", "b"][:shape[0]]))
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "members.npy"))):
            read_ensemble(tmp_path)
