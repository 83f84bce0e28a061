import json
import tracemalloc

import numpy as np
import pytest

from lingmat import _kernels
from lingmat.invariants import (
    CATALOG,
    CATALOG_GRAPHS,
    CATALOG_INDEX,
    QUADRATIC_TAGS,
    EnsembleAverages,
    GraphInvariant,
    element_histogram,
    ensemble_averages,
    eval_all,
    eval_graph_invariant,
    eval_invariant,
)
from lingmat.matrix_core import Ensemble, PermutationMap, WordMatrix, apply_permutation

from oracles import close, loop_invariant


def wm(values, label="w"):
    return WordMatrix(label, np.asarray(values, dtype=float))


class TestEvalInvariant:
    def test_zero_matrix(self):
        z = wm(np.zeros((5, 5)))
        for tag in CATALOG:
            assert eval_invariant(tag, z) == 0.0

    def test_identity_d4(self):
        m = wm(np.eye(4))
        assert eval_invariant("Md1", m) == 4.0
        assert eval_invariant("Md2", m) == 4.0
        assert eval_invariant("Qdd", m) == 12.0
        assert eval_invariant("Mo1", m) == 0.0
        assert eval_invariant("Mo32", m) == 0.0

    def test_matches_loop_oracle_integer_matrices(self):
        rng = np.random.default_rng(10)
        for d in (1, 2, 3, 5):
            for _ in range(4):
                m = rng.integers(-4, 5, size=(d, d)).astype(float)
                got = eval_all(m)
                for tag in CATALOG:
                    assert got[tag] == loop_invariant(tag, m), (tag, d)

    def test_matches_loop_oracle_float_matrices(self):
        rng = np.random.default_rng(11)
        for d in (2, 4, 6):
            m = rng.normal(size=(d, d))
            for tag in CATALOG:
                assert close(eval_invariant(tag, m), loop_invariant(tag, m), 1e-12)

    @pytest.mark.parametrize("d", (7, 9, 12))
    def test_matches_loop_oracle_at_larger_dimensions(self, d):
        # the sum of the absolute terms bounds the round-off of any
        # summation order, the oracle's and the kernel's
        m = np.random.default_rng(d).normal(0.3, 1.0, size=(d, d))
        got = _kernels.catalog_values(m)
        for tag in CATALOG:
            err = abs(got[CATALOG_INDEX[tag]] - loop_invariant(tag, m))
            assert err <= 1e-12 * loop_invariant(tag, np.abs(m)), (tag, d)

    def test_qdisc_vanishes_at_d3(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            m = wm(rng.normal(size=(3, 3)))
            assert eval_invariant("Qdisc", m) == pytest.approx(0.0, abs=1e-9)

    def test_vacuous_sums_are_zero(self):
        # exactly 0.0, alone and in a stack: the expansion leaves no round-off
        rng = np.random.default_rng(13)
        for d in (1, 2, 3):
            stack = rng.normal(0.4, 2.0, size=(5, d, d))
            empty = [CATALOG_INDEX[t] for t, g in CATALOG_GRAPHS.items() if g.vertex_count > d]
            assert (_kernels.catalog_values(stack)[:, empty] == 0.0).all(), d
            for m in stack:
                assert (_kernels.catalog_values(m)[empty] == 0.0).all(), d
                assert all(eval_invariant(CATALOG[i], m) == 0.0 for i in empty), d

    def test_unknown_tag(self):
        with pytest.raises(KeyError, match="unknown invariant"):
            eval_invariant("nope", np.zeros((2, 2)))


class TestStackedCatalog:
    """An (N, D, D) stack gets the bits of evaluating each matrix alone."""

    @staticmethod
    def per_matrix(stack):
        return np.stack([_kernels.catalog_values(np.array(m, order="C")) for m in stack])

    @pytest.mark.parametrize("dim", (1, 2, 3, 7, 30, 100))
    def test_stack_matches_per_matrix(self, dim):
        rng = np.random.default_rng(dim)
        wide = rng.normal(0.4, 2.0, size=(5, dim + 3, dim + 2))
        stacks = {
            "C": np.ascontiguousarray(wide[:, :dim, :dim]),
            "Fortran": np.asfortranarray(wide[:, :dim, :dim]),
            "sliced": wide[:, 1:dim + 1, 2:dim + 2],
            "single": wide[2:3, :dim, :dim],
        }
        for layout, stack in stacks.items():
            got = _kernels.catalog_values(stack)
            want = self.per_matrix(stack)
            assert got.shape == (len(stack), len(CATALOG)), layout
            assert got.tobytes() == want.tobytes(), layout

    def test_expansion_table_follows_the_catalog(self):
        assert [tag for tag, _, _ in _kernels._EXPANSIONS] == list(CATALOG)
        assert _kernels.VERTICES.tolist() == [g.vertex_count for g in CATALOG_GRAPHS.values()]
        assert _kernels.COEF.shape == (len(_kernels._BASE), len(CATALOG))

    @pytest.mark.parametrize("dim", (30, 60, 100))
    def test_block_evaluation_allocates_under_four_stacks(self, dim):
        """One block's evaluation allocates less than four times the
        stack's bytes: the kernel holds Mᵀ, M² and M³ and no more
        block-sized temporaries, the premise of ``_BLOCK_BYTES``."""
        stack = np.random.default_rng(dim).normal(size=(_kernels.block_size(dim), dim, dim))
        _kernels.catalog_values(stack)  # first-call set-up is not per block
        tracemalloc.start()
        try:
            _kernels.catalog_values(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * stack.nbytes

    def test_matrix_input_gives_vector(self):
        m = np.random.default_rng(3).normal(size=(4, 4))
        vec = _kernels.catalog_values(m)
        assert vec.shape == (len(CATALOG),)
        assert vec.tobytes() == _kernels.catalog_values(m[None])[0].tobytes()


class TestPermutationInvariance:
    def test_all_tags_random_permutations(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            m = wm(rng.normal(size=(8, 8)))
            sigma = PermutationMap(rng.permutation(8))
            before = eval_all(m)
            after = eval_all(apply_permutation(m, sigma))
            for tag in CATALOG:
                assert close(before[tag], after[tag], 1e-9), tag


class TestGraphInvariant:
    def test_single_loop_equals_trace(self):
        rng = np.random.default_rng(16)
        m = wm(rng.normal(size=(6, 6)))
        g = GraphInvariant(vertex_count=1, edges=((0, 0),))
        assert eval_graph_invariant(g, m) == pytest.approx(eval_invariant("Md1", m))

    def test_triangle_equals_mo32(self):
        rng = np.random.default_rng(17)
        m = wm(rng.normal(size=(5, 5)))
        g = GraphInvariant(vertex_count=3, edges=((0, 1), (1, 2), (2, 0)))
        assert eval_graph_invariant(g, m) == pytest.approx(
            eval_invariant("Mo32", m), rel=1e-10)

    def test_disjoint_edges_vanish_at_d3(self):
        m = wm(np.random.default_rng(18).normal(size=(3, 3)))
        g = GraphInvariant(vertex_count=4, edges=((0, 1), (2, 3)))
        assert eval_graph_invariant(g, m) == 0.0

    def test_isolated_vertex_rejected(self):
        with pytest.raises(ValueError, match="isolated"):
            GraphInvariant(vertex_count=3, edges=((0, 1),))

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            GraphInvariant(vertex_count=2, edges=((0, 2),))


class TestEnsembleAverages:
    def test_single_matrix(self):
        m = wm(np.random.default_rng(19).normal(size=(4, 4)))
        avgs = ensemble_averages(Ensemble([m.label], m.values[None]))
        vals = eval_all(m)
        for tag in CATALOG:
            assert avgs.values[tag] == pytest.approx(vals[tag])
        assert avgs.dim == 4 and avgs.count == 1

    def test_odd_tags_cancel_for_plus_minus_pair(self):
        m = np.random.default_rng(20).normal(size=(5, 5))
        ens = Ensemble(["p", "m"], np.stack([m, -m]))
        avgs = ensemble_averages(ens)
        for tag in ("Md1", "Mo1", "Md3", "Mo31", "Mo32"):
            assert close(avgs.values[tag], 0.0, 1e-12), tag

    def test_mean_of_loop_oracle(self):
        rng = np.random.default_rng(21)
        mats = [rng.normal(size=(4, 4)) for _ in range(3)]
        ens = Ensemble([f"w{i}" for i in range(3)], np.stack(mats))
        avgs = ensemble_averages(ens)
        for tag in CATALOG:
            want = sum(loop_invariant(tag, m) for m in mats) / 3.0
            assert close(avgs.values[tag], want, 1e-11), tag

    def test_blocked_evaluation_matches_per_member_kernel(self):
        # 2B - 1 members at D = 30 are two blocks, of B and B - 1
        rng = np.random.default_rng(22)
        n = 2 * _kernels.block_size(30) - 1
        ens = Ensemble([f"w{i}" for i in range(n)], rng.normal(size=(n, 30, 30)))
        table = np.stack([_kernels.catalog_values(m.copy()) for m in ens.values])
        means = table.sum(axis=0) / len(ens)
        avgs = ensemble_averages(ens)
        assert avgs.values == {t: float(means[CATALOG_INDEX[t]]) for t in CATALOG}

    def test_json_roundtrip(self):
        avgs = EnsembleAverages(dim=4, count=2, values={"Md1": 1.5, "Mo1": -0.25})
        back = EnsembleAverages.from_json_dict(json.loads(json.dumps(avgs.to_json_dict())))
        assert back.dim == 4 and back.count == 2
        assert back.values == avgs.values


class TestElementHistogram:
    def make(self, values):
        values = np.asarray(values, dtype=float)
        stack = np.zeros((values.size, 2, 2))
        stack[:, 0, 0] = values
        return Ensemble([f"w{i}" for i in range(values.size)], stack)

    def test_constant_entry_single_bin(self):
        h = element_histogram(self.make([2.5] * 7), 0, 0, 4)
        assert list(h.counts) == [7]
        assert list(h.edges) == [2.5, 2.5]

    def test_two_bins(self):
        h = element_histogram(self.make([0.0, 1.0, 2.0, 3.0]), 0, 0, 2)
        assert list(h.counts) == [2, 2]
        np.testing.assert_allclose(h.edges, [0.0, 1.5, 3.0])

    def test_counts_conserved(self):
        rng = np.random.default_rng(23)
        h = element_histogram(self.make(rng.normal(size=100)), 0, 0, 13)
        assert h.counts.sum() == 100

    def test_csv_shape(self):
        h = element_histogram(self.make([0.0, 1.0]), 0, 0, 2)
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 3

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError, match="out of range"):
            element_histogram(self.make([1.0]), 0, 5, 2)


def test_quadratic_tags_subset_of_catalog():
    assert set(QUADRATIC_TAGS) <= set(CATALOG)
    assert len(QUADRATIC_TAGS) == 11
