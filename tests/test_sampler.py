import os
import re
import signal
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest

import lingmat
from lingmat import _kernels, _workers, sampler
from lingmat.gauss import GaussParams, predict_moment
from lingmat.invariants import CATALOG, CATALOG_GRAPHS, eval_all
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

from oracles import (
    close,
    mc_records_reference,
    sample_matrix_reference,
    stream_draws_reference,
)
from test_corpus_split import leaves_no_worker_or_spill, pytestmark as one_thread, worker_only

PARAMS = GaussParams(dim=10, lam=1.6, a=0.8, b=2.4, j0=0.7, js=-0.4)
C04 = dict(lam=1.3, a=0.9, b=1.8, j0=0.6, js=-0.35)
D30 = GaussParams(dim=30, **C04)
#: Matrices per block at D = 30.
B30 = _kernels.block_size(30)
#: Draw counts of the D = 30 checks: one partial block (2, 9 and 10), one
#: full block, a full block plus one, and many blocks.
COUNTS = (2, 9, 10, B30, B30 + 1, 3001)


def philox(seed, k):
    """A Philox generator keyed by (seed, k)."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | k))


def reference_draws(params, seed, start, count):
    return stream_draws_reference(params, seed, start, count)


def assert_bits_equal(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@lru_cache(maxsize=None)
def per_draw_table(params, seed, count):
    """The catalog of each of the first `count` draws of `seed`, one
    matrix at a time."""
    return np.stack([_kernels.catalog_values(m)
                     for m in reference_draws(params, seed, 0, count)])


def oracle_records(params, seed, count, tags=CATALOG):
    return mc_records_reference(per_draw_table(params, seed, count),
                                {tag: predict_moment(params, tag) for tag in tags})


def assert_records_match_oracle(count, records, tags=CATALOG):
    """The Monte Carlo records of seed 4 at D = 30 are those of the
    two-pass oracle on the per-draw table: the mean and z to 1e-11
    standard errors and the standard error to 1e-13 of itself (the check
    sums group moments, the oracle whole columns, so the last digits
    differ).  A record whose standard error is 0 is the oracle's exactly."""
    want = oracle_records(D30, 4, count, tags)
    assert list(records) == list(tags)
    for tag, rec in records.items():
        got, ref = rec.to_json_dict(), want[tag]
        stderr = ref["sample_stderr"]
        if stderr == 0:
            assert got == ref
            continue
        assert got["theory"] == ref["theory"]
        assert abs(got["sample_mean"] - ref["sample_mean"]) <= 1e-11 * stderr, tag
        assert abs(got["sample_stderr"] - stderr) <= 1e-13 * stderr, tag
        assert abs(got["z_score"] - ref["z_score"]) <= 1e-11, tag


def as_json(records):
    return {tag: rec.to_json_dict() for tag, rec in records.items()}


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
    def test_sample_matrices_across_stream_boundaries(self, dim):
        """Streams are 128 draws long: a call that starts at draw 127, 128,
        129 or 255 opens the stream of its start, throws away that
        stream's earlier draws and opens the next stream at 128 or 256."""
        params = GaussParams(dim=dim, **C04)
        for start, count in ((127, 130), (128, 129), (129, 128), (255, 2)):
            got = sample_matrices(params, 99, start, count)
            assert_bits_equal(got, reference_draws(params, 99, start, count))

    @pytest.mark.parametrize("dim", DIMS)
    def test_iter_matrices_across_streams(self, dim):
        params = GaussParams(dim=dim, **C04)
        spec = SampleSpec(params=params, count=300, seed=2 ** 64 - 1)
        assert_bits_equal(np.stack(list(iter_matrices(spec))),
                          reference_draws(params, spec.seed, 0, 300))

    def test_streams_are_keyed_by_seed_and_stream_index(self):
        """Draw 0 of seeds s and s + 1 differ.  Draw 128 of a seed, the
        first of its stream 1, differs from draw 0 and is the first draw
        of a fresh ``SFC64(SeedSequence(s, spawn_key=(1,)))``."""
        seed = 29
        draws = sample_matrices(PARAMS, seed, 0, 129)
        assert not np.array_equal(draws[0], sample_matrices(PARAMS, seed + 1, 0, 1)[0])
        assert not np.array_equal(draws[0], draws[128])
        stream = np.random.SeedSequence(seed, spawn_key=(1,))
        assert_bits_equal(draws[128],
                          sample_matrix(PARAMS, np.random.Generator(np.random.SFC64(stream))))

    @pytest.mark.parametrize("dim", DIMS)
    def test_sample_matrix_matches_reference(self, dim):
        params = GaussParams(dim=dim, **C04)
        for k in range(3):
            assert_bits_equal(sample_matrix(params, philox(5, k)),
                              sample_matrix_reference(params, philox(5, k)))

    def test_block_size_budget(self):
        assert _kernels._BLOCK_BYTES == 131072
        assert _kernels.block_size(30) == B30 == 18
        assert _kernels.block_size(100) == 1
        for dim in range(1, 120):
            b = _kernels.block_size(dim)
            assert b >= 1
            assert b == 1 or 8 * dim * dim * b <= 131072

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("start", (0, 130))
    def test_no_draws_is_an_empty_stack(self, dim, start):
        got = sample_matrices(GaussParams(dim=dim, **C04), 99, start, 0)
        assert got.shape == (0, dim, dim) and got.dtype == np.float64
        assert got.flags.c_contiguous

    @pytest.mark.parametrize("args, message", [
        (dict(start=-5), "^start must be >= 0, got -5$"),
        (dict(count=-2), "^count must be >= 0, got -2$"),
        (dict(start=2.5), "^start must be an integer, got 2.5$"),
        (dict(seed=-1), "^seed must be a 64-bit unsigned integer$")])
    def test_sample_matrices_checks_its_arguments(self, args, message):
        call = dict(params=PARAMS, seed=1, start=0, count=3) | args
        with pytest.raises(ValueError, match=message):
            sample_matrices(**call)


def opened_streams(monkeypatch):
    """The spawn keys of the ``SeedSequence`` objects built from now on, in
    order: one per stream opened."""
    keys, real = [], np.random.SeedSequence

    def record(*args, **kwargs):
        seq = real(*args, **kwargs)
        keys.append(seq.spawn_key)
        return seq

    monkeypatch.setattr(np.random, "SeedSequence", record)
    return keys


class TestStreamsOpenOnce:
    """A run opens each stream it draws from once, whatever its blocks."""

    def test_sample(self, monkeypatch):
        keys = opened_streams(monkeypatch)
        sample(SampleSpec(params=PARAMS, count=300, seed=3))
        assert keys == [(0,), (1,), (2,)]

    def test_group_moments_from_inside_a_stream(self, monkeypatch):
        """Draw 5040 is draw 48 of stream 39, draw 9999 the last one taken,
        of stream 78."""
        keys = opened_streams(monkeypatch)
        sampler._group_moments(SampleSpec(params=D30, count=10000, seed=4), 5040, 10000)
        assert keys == [(k,) for k in range(39, 79)]


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

    def test_empty_invariants_read_z_zero(self):
        # at D = 2 the invariants of three and four graph vertices are empty sums
        records = monte_carlo_check(SampleSpec(params=GaussParams(dim=2, **C04),
                                               count=2000, seed=3))
        for tag, g in CATALOG_GRAPHS.items():
            if g.vertex_count > 2:
                assert records[tag].to_json_dict() == {
                    "tag": tag, "theory": 0.0, "sample_mean": 0.0,
                    "sample_stderr": 0.0, "z_score": 0.0}

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

    @pytest.mark.parametrize("count", COUNTS)
    def test_records_match_per_draw_oracle(self, count):
        spec = SampleSpec(params=D30, count=count, seed=4)
        assert_records_match_oracle(count, monte_carlo_check(spec))

    def test_merge_is_accurate_when_the_mean_dwarfs_the_spread(self):
        """With j0 / lam ~ 3e5 at D = 10 the Md values are about 1e6 times
        their spread, where a one-pass ``sum(x^2) - N mean^2`` puts the
        standard error off by 4e-6 of itself or more.  The last bit of such
        a mean is ~1e-8 standard errors at 2000 draws, so the means are
        compared to 1e-15 of themselves and z to that over the standard
        error; the group means' rounding enters the between-group sum, so
        the standard error is compared to 1e-9 of itself."""
        params = GaussParams(dim=10, lam=1.3, a=0.9, b=1.8, j0=4e5, js=-0.35)
        records = monte_carlo_check(SampleSpec(params=params, count=2000, seed=4))
        want = oracle_records(params, 4, 2000)
        assert want["Md1"]["sample_mean"] > 1e6 * want["Md1"]["sample_stderr"] * np.sqrt(2000)
        for tag, rec in records.items():
            got, ref = rec.to_json_dict(), want[tag]
            stderr, mean = ref["sample_stderr"], ref["sample_mean"]
            assert got["theory"] == ref["theory"]
            assert abs(got["sample_mean"] - mean) <= 1e-15 * abs(mean), tag
            assert abs(got["sample_stderr"] - stderr) <= 1e-9 * stderr, tag
            z_tolerance = 1e-15 * abs(mean) / stderr + 1e-11
            assert abs(got["z_score"] - ref["z_score"]) <= z_tolerance, tag

    def test_groups_are_the_fewest_whole_blocks_of_128_draws(self):
        assert sampler._group_size(30) == 144
        for dim in range(1, 120):
            size, group = _kernels.block_size(dim), sampler._group_size(dim)
            assert group % size == 0 and group - size < 128 <= group
        assert {sampler._group_size(dim) for dim in range(91, 120)} == {128}

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
    def test_peak_memory_stays_flat_in_the_draw_count(self):
        """A fresh interpreter's peak RSS (VmHWM) after a check of 200 000
        draws at D = 10 is within 2 MB of its peak after 20 000: the check
        keeps per-group, not per-draw, statistics.  A per-draw table would
        add 27 MB."""
        child = (
            "from lingmat import GaussParams, SampleSpec, monte_carlo_check\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('VmHWM:'))\n"
            f"params = {PARAMS!r}\n"
            "for count in (20000, 200000):\n"
            "    monte_carlo_check(SampleSpec(params=params, count=count, seed=1))\n"
            "    print(peak())\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lingmat.__file__)))
        proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        small, large = map(int, proc.stdout.split())
        assert large - small < 2048, (small, large)

    def test_csv_rendering(self):
        spec = SampleSpec(params=PARAMS, count=100, seed=20)
        text = mc_records_csv(monte_carlo_check(spec, tags=("Md1",)))
        lines = text.strip().split("\n")
        assert lines[0] == "tag,theory,sample_mean,sample_stderr,z_score"
        assert lines[1].startswith("Md1,")


class TestSplitMonteCarloCheck:
    """The check in parts: forked workers send back the moments of their
    groups.  Parts are forced by setting ``_MIN_PART`` to one byte and the
    usable CPU count to the number of parts."""

    SUBSET = ("Mo32", "Md1", "Qin")

    @one_thread
    @pytest.mark.parametrize("parts", (1, 2, 3, 4))
    @pytest.mark.parametrize("count", COUNTS)
    def test_split_records_match_per_draw_oracle(self, monkeypatch, count, parts):
        """One worker per part after the first, at most one part per group
        (more workers than CPUs on a 2-CPU host), and the records of every
        tag or of a subset are those of a one-part check bit for bit.  A
        group is bound to one block, so that every count forks."""
        monkeypatch.setattr(sampler, "_GROUP_DRAWS", 1)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: 1)
        spec = SampleSpec(params=D30, count=count, seed=4)
        whole = monte_carlo_check(spec)
        assert_records_match_oracle(count, whole)
        forks, real_fork = [], os.fork

        def counted_fork():
            forks.append(os.getpid())
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(_workers, "_MIN_PART", 1)
        monkeypatch.setattr(_workers, "_usable_cpus", lambda: parts)
        with leaves_no_worker_or_spill():
            records = monte_carlo_check(spec)
            subset = monte_carlo_check(spec, tags=self.SUBSET)
        assert len(forks) == 2 * (min(parts, -(-count // B30)) - 1)
        assert as_json(records) == as_json(whole)
        assert as_json(subset) == {tag: whole[tag].to_json_dict() for tag in self.SUBSET}

    @pytest.mark.parametrize("parts", (2, 3, 4))
    def test_parts_are_runs_of_whole_groups(self, monkeypatch, parts):
        """At D = 30 a group is 8 blocks, 144 draws: 3001 draws are 21
        groups, the last of 121 draws, and each part starts on a group
        (two parts: 1440 and 1561 draws).  The records are those of one
        part, bit for bit.  The parts run here one after another."""
        monkeypatch.setattr(_workers, "_can_fork", lambda: False)
        spec = SampleSpec(params=D30, count=3001, seed=4)
        whole = monte_carlo_check(spec)
        spans, real = [], sampler._group_moments
        monkeypatch.setattr(sampler, "_group_moments",
                            lambda spec, first, stop: spans.append((first, stop))
                            or real(spec, first, stop))
        monkeypatch.setattr(_workers, "_part_count", lambda nbytes: parts)
        records = monte_carlo_check(spec)
        assert len(spans) == parts and spans[0][0] == 0 and spans[-1][1] == 3001
        assert all(stop == first and stop % 144 == 0
                   for (_, stop), (first, _) in zip(spans, spans[1:]))
        if parts == 2:
            assert spans == [(0, 1440), (1440, 3001)]
        assert as_json(records) == as_json(whole)

    @pytest.mark.parametrize("parts", (2, 3, 4))
    def test_parts_that_start_inside_a_stream(self, monkeypatch, parts):
        """Every later part of 3001 draws at D = 30 starts on a group of
        144 draws inside a stream of 128 (two parts: at 1440, draw 32 of
        stream 11), so it opens that stream and throws away the draws
        before its first.  The records are those of the one-part check bit
        for bit, and those of the per-draw oracle."""
        monkeypatch.setattr(_workers, "_can_fork", lambda: False)
        spec = SampleSpec(params=D30, count=3001, seed=4)
        whole = monte_carlo_check(spec)
        assert_records_match_oracle(3001, whole)
        firsts, real = [], sampler._group_moments
        monkeypatch.setattr(sampler, "_group_moments",
                            lambda spec, first, stop: firsts.append(first)
                            or real(spec, first, stop))
        monkeypatch.setattr(_workers, "_part_count", lambda nbytes: parts)
        records = monte_carlo_check(spec)
        assert len(firsts) == parts and all(first % 128 for first in firsts[1:])
        assert as_json(records) == as_json(whole)

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
