import os
import re
import signal
from functools import lru_cache

import numpy as np
import pytest

from lingmat import _kernels, _workers
from lingmat.gauss import GaussParams, predict_moment
from lingmat.invariants import CATALOG, CATALOG_INDEX, eval_all
from lingmat.matrix_core import PermutationMap, apply_permutation
from lingmat.sampler import (
    SampleSpec,
    iter_matrices,
    mc_records_csv,
    monte_carlo_check,
    sample,
    sample_matrices,
    sample_matrix,
)

from oracles import close, sample_matrix_reference
from test_corpus_split import leaves_no_worker_or_spill, pytestmark as one_thread, worker_only

PARAMS = GaussParams(dim=10, lam=1.6, a=0.8, b=2.4, j0=0.7, js=-0.4)
C04 = dict(lam=1.3, a=0.9, b=1.8, j0=0.6, js=-0.35)
D30 = GaussParams(dim=30, **C04)


def philox(seed, k):
    """Matrix k's stream of a run keyed by seed."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | k))


def reference_draws(params, seed, start, count):
    return np.stack([sample_matrix_reference(params, philox(seed, k))
                     for k in range(start, start + count)])


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@lru_cache(maxsize=None)
def per_draw_table(count):
    """The catalog of each of the first `count` draws of seed 4 at D = 30,
    one matrix at a time."""
    return np.stack([_kernels.catalog_values(m)
                     for m in reference_draws(D30, 4, 0, count)])


def assert_records_match_oracle(count, records, tags=CATALOG):
    """The Monte Carlo records of seed 4 at D = 30 are those of the
    per-draw table, bit for bit."""
    table = per_draw_table(count)
    assert list(records) == list(tags)
    for tag, rec in records.items():
        col = table[:, CATALOG_INDEX[tag]]
        mean = float(col.sum() / count)
        stderr = float(np.std(col, ddof=1) / np.sqrt(count))
        theory = predict_moment(D30, tag)
        if stderr > 0:
            z = float((mean - theory) / stderr)
        else:
            z = 0.0 if mean == theory else np.inf
        assert rec.to_json_dict() == {"tag": tag, "theory": theory,
                                      "sample_mean": mean,
                                      "sample_stderr": stderr,
                                      "z_score": z}


class TestSampleDeterminism:
    def test_same_spec_identical_output(self):
        spec = SampleSpec(params=PARAMS, count=20, seed=123456789)
        e1 = sample(spec)
        e2 = sample(spec)
        for a, b in zip(e1.members, e2.members):
            np.testing.assert_array_equal(a.values, b.values)

    def test_different_seed_differs(self):
        a = sample(SampleSpec(params=PARAMS, count=1, seed=1)).members[0]
        b = sample(SampleSpec(params=PARAMS, count=1, seed=2)).members[0]
        assert not np.array_equal(a.values, b.values)

    def test_streaming_matches_materialized(self):
        spec = SampleSpec(params=PARAMS, count=5, seed=77)
        streamed = list(iter_matrices(spec))
        ens = sample(spec)
        for s, m in zip(streamed, ens.members):
            np.testing.assert_array_equal(s, m.values)

    def test_seed_validation(self):
        with pytest.raises(ValueError, match="64-bit"):
            SampleSpec(params=PARAMS, count=1, seed=-1)
        with pytest.raises(ValueError, match="count"):
            SampleSpec(params=PARAMS, count=0, seed=0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match=f"^sample count must be an integer, got {count!r}$"):
            SampleSpec(params=PARAMS, count=count, seed=0)


class TestBlockedSampling:
    """Blocked draws give the bits of the three-``normal`` reference."""

    DIMS = (1, 2, 3, 10, 30, 61)

    @pytest.mark.parametrize("dim", DIMS)
    def test_sample_matrices_match_reference(self, dim):
        params = GaussParams(dim=dim, **C04)
        b = _kernels.block_size(dim)
        for start, count in ((0, 1), (3, b), (b + 1, b + 1), (2 * b - 1, 2)):
            got = sample_matrices(params, 99, start, count)
            assert got.flags.c_contiguous
            assert_bits_equal(got, reference_draws(params, 99, start, count))

    @pytest.mark.parametrize("dim", DIMS)
    def test_iter_matrices_match_reference(self, dim):
        params = GaussParams(dim=dim, **C04)
        b = _kernels.block_size(dim)
        for count in (1, b, b + 1):
            spec = SampleSpec(params=params, count=count, seed=2 ** 64 - 1)
            assert_bits_equal(np.stack(list(iter_matrices(spec))),
                              reference_draws(params, spec.seed, 0, count))

    @pytest.mark.parametrize("dim", DIMS)
    def test_sample_matrix_matches_reference(self, dim):
        params = GaussParams(dim=dim, **C04)
        for k in range(3):
            assert_bits_equal(sample_matrix(params, philox(5, k)),
                              sample_matrix_reference(params, philox(5, k)))

    def test_block_size_budget(self):
        assert _kernels.block_size(30) == 9
        assert _kernels.block_size(100) == 1
        for dim in range(1, 120):
            b = _kernels.block_size(dim)
            assert b >= 1
            assert b == 1 or 8 * dim * dim * b <= 65536


class TestSampleStatistics:
    def test_diagonal_mean(self):
        # law of large numbers: 1e5 draws at D = 10
        spec = SampleSpec(params=PARAMS, count=10 ** 5, seed=11)
        vals = np.array([np.diag(m).mean() for m in iter_matrices(spec)])
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean() - PARAMS.mean_diag) < 5 * stderr

    def test_symmetric_limit_decorrelates_transpose_pair(self):
        p = GaussParams(dim=6, lam=1.0, a=1.5, b=1.5, j0=0.0, js=0.2)
        spec = SampleSpec(params=p, count=4000, seed=12)
        xy = np.array([(m[0, 1], m[1, 0]) for m in iter_matrices(spec)])
        x = xy[:, 0] - xy[:, 0].mean()
        y = xy[:, 1] - xy[:, 1].mean()
        cov = (x * y).mean()
        stderr = (x * y).std(ddof=1) / np.sqrt(x.size)
        assert abs(cov) < 5 * stderr

    def test_empirical_wick_fourth_moment(self):
        # connected 4th moment of one Gaussian variable is 3 * var^2
        spec = SampleSpec(params=PARAMS, count=20000, seed=13)
        v = np.array([m[2, 2] for m in iter_matrices(spec)])
        c = v - PARAMS.mean_diag
        quart = c ** 4
        stderr = quart.std(ddof=1) / np.sqrt(quart.size)
        assert abs(quart.mean() - 3.0 * PARAMS.var_diag ** 2) < 5 * stderr

    def test_relabeling_leaves_invariants_unchanged(self):
        rng = np.random.default_rng(14)
        ens = sample(SampleSpec(params=PARAMS, count=5, seed=15))
        sigma = PermutationMap(rng.permutation(PARAMS.dim))
        for m in ens.members:
            before = eval_all(m)
            after = eval_all(apply_permutation(m, sigma))
            for tag in CATALOG:
                assert close(before[tag], after[tag], 1e-9)


class TestMonteCarloCheck:
    def test_moments_within_five_stderr_small_run(self):
        spec = SampleSpec(params=PARAMS, count=3000, seed=16)
        records = monte_carlo_check(spec)
        for tag, rec in records.items():
            assert abs(rec.z_score) < 5, (tag, rec)

    def test_zero_source_triangle_mean_near_zero(self):
        p = GaussParams(dim=8, lam=1.0, a=1.0, b=1.0, j0=0.5, js=0.0)
        rec = monte_carlo_check(SampleSpec(params=p, count=3000, seed=17),
                                tags=("Mo32",))["Mo32"]
        assert rec.theory == 0.0
        assert abs(rec.sample_mean) < 5 * rec.sample_stderr

    def test_harness_detects_shifted_theory(self):
        # shifting the theory by 10 standard errors must push |z| beyond 5
        spec = SampleSpec(params=PARAMS, count=2000, seed=18)
        records = monte_carlo_check(spec)
        for rec in records.values():
            shifted_z = (rec.sample_mean - (rec.theory + 10 * rec.sample_stderr)) \
                / rec.sample_stderr
            assert abs(shifted_z) > 5

    def test_one_draw_is_refused(self):
        """One draw has no standard error, so no z-score."""
        with pytest.raises(ValueError, match="at least 2 draws .* got count 1$"):
            monte_carlo_check(SampleSpec(params=PARAMS, count=1, seed=4))

    def test_records_are_consistent(self):
        spec = SampleSpec(params=PARAMS, count=500, seed=19)
        records = monte_carlo_check(spec, tags=("Md1", "Mo22"))
        for tag, rec in records.items():
            assert rec.theory == predict_moment(PARAMS, tag)
            assert rec.sample_stderr > 0
            assert rec.z_score == pytest.approx(
                (rec.sample_mean - rec.theory) / rec.sample_stderr)

    @pytest.mark.parametrize("count", (2, 9, 10, 3001))
    def test_records_match_per_draw_oracle(self, count):
        # block size 9 at D = 30: one partial, one full, a full plus one,
        # and many blocks
        spec = SampleSpec(params=D30, count=count, seed=4)
        assert_records_match_oracle(count, monte_carlo_check(spec))

    def test_csv_rendering(self):
        spec = SampleSpec(params=PARAMS, count=100, seed=20)
        text = mc_records_csv(monte_carlo_check(spec, tags=("Md1",)))
        lines = text.strip().split("\n")
        assert lines[0] == "tag,theory,sample_mean,sample_stderr,z_score"
        assert lines[1].startswith("Md1,")


class TestSplitMonteCarloCheck:
    """The check in parts: forked workers fill their rows of one shared
    table.  Parts are forced by setting ``_MIN_PART`` to one byte and the
    usable CPU count to the number of parts."""

    SUBSET = ("Mo32", "Md1", "Qin")

    @one_thread
    @pytest.mark.parametrize("parts", (1, 2, 3, 4))
    @pytest.mark.parametrize("count", (2, 9, 10, 3001))
    def test_split_records_match_per_draw_oracle(self, monkeypatch, count, parts):
        """One worker per part after the first, at most one part per block
        (more workers than CPUs on a 2-CPU host), and the records of every
        tag or of a subset are the oracle's bit for bit."""
        # A one-part check of other draws first: if the table's memory is
        # reused, rows that a worker did not share hold that check's values.
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        monte_carlo_check(SampleSpec(params=D30, count=count, seed=5))
        forks, real_fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(_workers, "_MIN_PART", 1)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: parts)
        spec = SampleSpec(params=D30, count=count, seed=4)
        with leaves_no_worker_or_spill():
            records = monte_carlo_check(spec)
            subset = monte_carlo_check(spec, tags=self.SUBSET)
        assert len(forks) == 2 * (min(parts, -(-count // 9)) - 1)
        assert_records_match_oracle(count, records)
        assert_records_match_oracle(count, subset, self.SUBSET)

    @one_thread
    def test_a_worker_exception_is_raised_here(self, monkeypatch):
        def fault():
            raise ValueError("a bad block")

        fail, real = worker_only(fault), _kernels.catalog_values
        monkeypatch.setattr(_kernels, "catalog_values", lambda block: fail() or real(block))
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 3)
        with leaves_no_worker_or_spill(), pytest.raises(ValueError, match="^a bad block$"):
            monte_carlo_check(SampleSpec(params=D30, count=3001, seed=4))

    @one_thread
    @pytest.mark.parametrize("how, message", [
        ("exit", "exited with status 3"),
        ("kill", f"was killed by signal {int(signal.SIGKILL)}")])
    def test_a_worker_that_dies_names_its_exit_status(self, monkeypatch, how, message):
        die = worker_only(lambda: os._exit(3) if how == "exit"
                          else os.kill(os.getpid(), signal.SIGKILL))
        real = _kernels.catalog_values
        monkeypatch.setattr(_kernels, "catalog_values", lambda block: die() or real(block))
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 2)
        with leaves_no_worker_or_spill(), pytest.raises(RuntimeError) as info:
            monte_carlo_check(SampleSpec(params=D30, count=3001, seed=4))
        assert re.fullmatch(f"a Monte Carlo worker process {message} before it sent "
                            "its result", str(info.value))

    @pytest.mark.parametrize("why", ["below the minimum", "may not fork"])
    def test_nothing_forks_below_the_minimum_or_where_forking_is_unsafe(self, monkeypatch,
                                                                         why):
        """200 draws at D = 30 are 1.44 MB of matrices, under two
        `_MIN_PART`: one part.  A process that may not fork (one that runs
        a second thread) checks 3001 draws in one part too."""
        def no_fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(_workers, "_can_fork", lambda: why == "below the minimum")
        count = 200 if why == "below the minimum" else 3001
        if why == "may not fork":
            monkeypatch.setattr(_workers, "_MIN_PART", 1)
        assert_records_match_oracle(count, monte_carlo_check(
            SampleSpec(params=D30, count=count, seed=4)))
