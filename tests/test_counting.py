import numpy as np
import pytest

from lingmat.counting import (
    Partition,
    count_invariants,
    count_invariants_stable,
    enumerate_quadratic_graphs,
    partitions,
)
from lingmat.invariants import (
    CATALOG,
    CATALOG_GRAPHS,
    QUADRATIC_TAGS,
    eval_graph_invariant,
    eval_invariant,
)

from oracles import close, loop_invariant, partition_count


class TestPartitions:
    def test_zero(self):
        ps = partitions(0)
        assert len(ps) == 1 and ps[0].parts == ()

    def test_four(self):
        ps = partitions(4)
        assert len(ps) == 5
        assert [p.parts for p in ps] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_ten_has_42(self):
        assert len(partitions(10)) == 42

    def test_counts_match_pentagonal_recurrence(self):
        for n in range(31):
            assert len(partitions(n)) == partition_count(n), n

    def test_all_distinct_and_correct_weight(self):
        for n in (6, 9):
            ps = partitions(n)
            assert len({p.parts for p in ps}) == len(ps)
            assert all(p.weight == n for p in ps)

    def test_multiplicities_roundtrip(self):
        p = Partition((3, 2, 2, 1))
        assert p.multiplicities == {3: 1, 2: 2, 1: 1}
        assert sum(s * c for s, c in p.multiplicities.items()) == p.weight

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError, match="decreasing"):
            Partition((1, 2))

    def test_fixed_points_divisor_sum(self):
        p = Partition((4, 2, 2, 1))   # cycle type of a 9-element permutation
        assert p.fixed_points_of_power(1) == 1
        assert p.fixed_points_of_power(2) == 5
        assert p.fixed_points_of_power(4) == 9
        assert p.fixed_points_of_power(3) == 1


class TestCountInvariants:
    def test_known_quadratic_counts(self):
        assert count_invariants(4, 2) == 11
        assert count_invariants(3, 2) == 10
        assert count_invariants(2, 2) == 6

    def test_stable_sequence(self):
        assert [count_invariants_stable(k) for k in range(2, 7)] == \
            [11, 52, 296, 1724, 11060]

    def test_linear_count_is_two(self):
        for d in (2, 3, 7, 12):
            assert count_invariants(d, 1) == 2
        assert count_invariants(1, 1) == 1

    def test_stabilization_in_dimension(self):
        for k in range(1, 6):
            stable = count_invariants(2 * k, k)
            for d in range(2 * k, 2 * k + 4):
                assert count_invariants(d, k) == stable, (d, k)

    def test_monotone_below_stabilization(self):
        for k in (2, 3, 4):
            for d in range(1, 2 * k):
                assert count_invariants(d, k) <= count_invariants(d + 1, k)

    def test_returns_exact_int(self):
        out = count_invariants(12, 6)
        assert isinstance(out, int) and out == 11060

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            count_invariants(0, 2)
        with pytest.raises(ValueError):
            count_invariants_stable(0)


class TestQuadraticGraphs:
    def test_eleven_graphs(self):
        graphs = enumerate_quadratic_graphs()
        assert len(graphs) == 11
        assert len(graphs) == count_invariants(4, 2)

    def test_first_is_doubled_loop(self):
        g = enumerate_quadratic_graphs()[0]
        assert g.vertex_count == 1
        assert g.edges == ((0, 0), (0, 0))

    def test_all_have_degree_two(self):
        assert all(g.degree == 2 for g in enumerate_quadratic_graphs())

    def test_graphs_match_catalog_evaluator(self):
        # every catalog graph against the literal restricted sum and the
        # fast kernel; D = 1..3 include the empty sums of larger graphs
        rng = np.random.default_rng(30)
        for d in (1, 2, 3, 4, 5):
            m = rng.normal(size=(d, d))
            for tag in CATALOG:
                got = eval_graph_invariant(CATALOG_GRAPHS[tag], m)
                assert close(got, loop_invariant(tag, m), 1e-12), (tag, d)
                assert close(got, eval_invariant(tag, m), 1e-10), (tag, d)

    def test_catalog_alignment(self):
        assert QUADRATIC_TAGS == ("Md2", "Mo21", "Mo22", "Qdd", "Qdio", "Qoid",
                                  "Qchain", "Qout", "Qin", "Qodiag", "Qdisc")
        assert enumerate_quadratic_graphs() == [CATALOG_GRAPHS[t] for t in QUADRATIC_TAGS]
