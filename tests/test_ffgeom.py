import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    degree_table_oracle,
    graph_distance_set_oracle,
    histogram_oracle,
    pairwise_norms_oracle,
    partial_fisher_yates_oracle,
)
import distgraphs
from distgraphs import _pcg64, ffgeom
from distgraphs.errors import (
    DimensionTooSmall,
    InexactTransform,
    SizeTooLarge,
    SpecMismatch,
    TooLarge,
)
from distgraphs.experiments import instance_seed
from distgraphs.field import FieldSpec, Point, make_field
from distgraphs.ffgeom import (
    PointSet,
    all_points,
    distance_graph,
    distance_histogram,
    graph_distance_set,
    ir_check,
    pairwise_norms,
    point_count,
    random_subset,
    read_points_file,
    write_points_file,
)
from distgraphs.graphs import Graph, complete_graph, cycle_graph, hypercube_graph, path_graph


@pytest.fixture(scope="module")
def f3():
    return make_field(3, 1)


@pytest.fixture(scope="module")
def f5():
    return make_field(5, 1)


def test_all_points_counts(f3, f5):
    assert len(all_points(f3, 2)) == 9
    assert len(all_points(f5, 3)) == 125


def test_all_points_too_large():
    f13 = make_field(13, 1)
    with pytest.raises(TooLarge):
        all_points(f13, 4)  # 28561 over the default cap of 5000


def test_all_points_lexicographic(f3):
    E = all_points(f3, 2)
    assert E.codes[0].tolist() == [0, 0]
    assert E.codes[1].tolist() == [0, 1]
    assert E.codes[3].tolist() == [1, 0]


def test_point_set_validation(f3):
    with pytest.raises(DimensionTooSmall):
        PointSet(f3, 1, np.zeros((2, 1), dtype=np.int32))
    with pytest.raises(ValueError):
        PointSet(f3, 2, np.zeros((2, 2), dtype=np.int32))  # duplicate rows


@pytest.mark.parametrize(
    "codes",
    [
        np.zeros((2, 3), dtype=np.int32),  # six codes a reshape would read as three points
        np.array([[1.7, 2.2]]),  # floats a cast would truncate to [[1, 2]]
        [[1.0, 2.0]],
        np.array([[True, False]]),
        np.array([0, 1], dtype=np.int32),  # one point, but not as an (n, 2) array
        np.zeros((1, 2, 1), dtype=np.int32),
        [[2**40, 1]],  # past int32, where a cast would wrap it into range
        np.array([[2**32 + 1, 0]], dtype=np.int64),
    ],
    ids=["2x3-for-d-2", "floats", "float-list", "bools", "flat", "3-axes", "big-list", "big-int64"],
)
def test_point_set_rejects_codes_it_would_repair(f3, codes):
    with pytest.raises(ValueError) as info:
        PointSet(f3, 2, codes)
    assert "\n" not in str(info.value)


def test_point_set_copies_the_codes_it_is_given(f3):
    codes = np.array([[0, 1], [2, 2]], dtype=np.int64)
    E = PointSet(f3, 2, codes)
    codes[0, 0] = 2
    assert E.codes.dtype == np.int32 and E.codes.tolist() == [[0, 1], [2, 2]] and codes.flags.writeable


def test_permute_coordinates_rechecks_distinctness(f3):
    E = PointSet(f3, 2, np.array([[0, 1], [0, 2]], dtype=np.int32))
    assert E.permute_coordinates([1, 0]).codes.tolist() == [[1, 0], [2, 0]]
    with pytest.raises(ValueError, match="distinct"):
        E.permute_coordinates([0, 0])


def test_built_sets_pass_the_public_checks(f5):
    # random_subset, all_points and translate skip the checks; their sets
    # must pass them anyway.
    E = random_subset(f5, 3, 60, seed=2)
    shift = Point(f5.from_code(c) for c in (1, 4, 2))
    for S in (E, E.translate(shift), all_points(f5, 2)):
        assert S.codes.dtype == np.int32 and not S.codes.flags.writeable
        assert np.array_equal(PointSet(S.spec, S.d, S.codes.copy()).codes, S.codes)
    with pytest.raises(DimensionTooSmall):
        all_points(f5, 1)


def test_random_subset_contract(f3):
    full = random_subset(f3, 2, 9, seed=4)
    grid = all_points(f3, 2)
    assert np.array_equal(
        np.unique(full.codes, axis=0), np.unique(grid.codes, axis=0)
    )
    assert len(random_subset(f3, 2, 0, seed=1)) == 0
    a = random_subset(f3, 2, 5, seed=99)
    b = random_subset(f3, 2, 5, seed=99)
    assert np.array_equal(a.codes, b.codes)
    with pytest.raises(SizeTooLarge):
        random_subset(f3, 2, 10, seed=0)


def test_random_subset_golden_samples(f5):
    # Pinned, so a sample never moves with the installed numpy's stream.
    assert random_subset(f5, 2, 6, seed=3).codes.tolist() == [[4, 0], [0, 3], [1, 1], [1, 3], [1, 2], [4, 1]]
    assert random_subset(make_field(7, 2), 6, 4, seed=3).codes.tolist() == [
        [4, 9, 31, 26, 19, 39], [11, 29, 28, 25, 21, 40], [39, 12, 42, 6, 41, 4], [28, 25, 37, 38, 14, 5],
    ]


@pytest.mark.parametrize(
    "seed, error",
    [(None, TypeError), (-1, ValueError), (True, TypeError), (False, TypeError), (1.0, TypeError), ("3", TypeError)],
)
def test_random_subset_rejects_bad_seeds(f3, seed, error):
    # None used to draw OS entropy, which is not reproducible.
    with pytest.raises(error, match="seed") as info:
        random_subset(f3, 2, 3, seed=seed)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("size", [True, 2.5, 3.0, lambda: 3.0])
def test_random_subset_rejects_sizes_that_are_not_integers(monkeypatch, f5, size):
    # True drew a one-point set and 3.0 passed through as a float size.
    def draw(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(_pcg64, "partial_fisher_yates", draw)
    with pytest.raises(TypeError, match="size") as info:
        random_subset(f5, 2, size, seed=1)
    assert "\n" not in str(info.value)
    assert point_count(5, 2, np.int64(3)) == 3


def test_random_subset_reads_numpy_integer_and_seedsequence_seeds(f5):
    expected = random_subset(f5, 3, 40, seed=7).codes
    assert np.array_equal(random_subset(f5, 3, 40, seed=np.int64(7)).codes, expected)
    assert np.array_equal(random_subset(f5, 3, 40, seed=np.random.SeedSequence(7)).codes, expected)


# Ranges on each side of the 32-bit path's edge, where Lemire's draws are
# rejected most often (2^31 + 1, 2^62 + 1), and the whole of a range.
_STREAM_CASES = [
    (2**32 - 1, 40), (2**32, 40), (2**32 + 1, 40), (2**32 + 2, 3),
    (2**31 + 1, 60), (2**62 + 1, 60), (3**39, 30), (1, 1), (2, 2), (97, 97), (0, 0),
]


def _check_stream(n, size, seed):
    expected = partial_fisher_yates_oracle(n, size, np.random.default_rng(seed))
    assert _pcg64.partial_fisher_yates(_pcg64.seed_state(seed), n, size) == expected


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_STREAM_CASES), st.integers(0, 2**130 - 1))
def test_sampling_stream_matches_numpy(case, seed):
    _check_stream(*case, seed)


@pytest.mark.parametrize("n, size", _STREAM_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2**63 + 17])
def test_sampling_stream_matches_numpy_on_seeded_cases(n, size, seed):
    _check_stream(n, size, seed)


def test_random_subset_rejects_spaces_past_int64(f3):
    # Point indices are int64: 3^39 < 2^63 samples, 3^40 > 2^63 does not.
    assert len(random_subset(f3, 39, 5, seed=1)) == 5
    for d in (40, 41):
        with pytest.raises(TooLarge):
            random_subset(f3, d, 5, seed=1)


@pytest.mark.parametrize(
    "pk, d, size, seed",
    [
        ((3, 1), 2, 0, 5),
        ((3, 1), 2, 1, 5),
        ((3, 1), 2, 9, 5),
        ((5, 1), 3, 125, instance_seed(7, 3)),
        ((3, 2), 2, 1, instance_seed(1, 0)),
        ((3, 2), 2, 81, np.random.SeedSequence(entropy=11, spawn_key=(2,))),
        ((13, 1), 3, 200, 2**63 + 17),
        # q^d = 49^6 > 2^32, where numpy draws bounded integers another way.
        ((7, 2), 6, 50, 3),
        ((7, 2), 6, 50, instance_seed(2, 9)),
    ],
)
def test_random_subset_matches_scalar_sampler(pk, d, size, seed):
    _check_against_scalar_sampler(make_field(*pk), d, size, seed)


def _check_against_scalar_sampler(spec, d, size, seed):
    picks = partial_fisher_yates_oracle(spec.q**d, size, np.random.default_rng(seed))
    expected = np.array(np.unravel_index(np.array(picks, dtype=np.int64), (spec.q,) * d)).T
    assert np.array_equal(random_subset(spec, d, size, seed).codes, expected.reshape(-1, d))


# Whole spaces, where the last step draws nothing, and spaces past 2^32
# (3^21, 49^6, 3^39), where the first draws are 64-bit.
@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([((3, 1), 2, 9), ((5, 1), 3, 125), ((3, 2), 2, 81), ((3, 1), 21, 40), ((7, 2), 6, 40), ((3, 1), 39, 40)]),
    st.integers(0, 2**64 - 1),
)
def test_random_subset_matches_scalar_sampler_on_random_seeds(space, seed):
    pk, d, size = space
    _check_against_scalar_sampler(make_field(*pk), d, size, seed)


def _fourier_min(q: int, d: int) -> int:
    """The least |E| with |E|^2 >= 4 q^d, where the Fourier path starts."""
    m = isqrt(4 * q**d)
    return m if m * m == 4 * q**d else m + 1


# (7, 2) at d = 4 is left out: q^d = 49^4 is too large to cross-check
# against the pairwise matrix at the Fourier threshold.
_SPACES = [
    (p, k, d)
    for p, k in [(3, 1), (5, 1), (3, 2), (3, 3), (7, 2)]
    for d in (2, 3, 4)
    if (p**k) ** d <= 3**12
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_SPACES),
    st.sampled_from(["empty", "one", "below", "at", "above", "full"]),
    st.integers(0, 2**32),
)
def test_histogram_matches_pairwise_norms(space, kind, seed):
    p, k, d = space
    spec = make_field(p, k)
    total = spec.q**d
    first = _fourier_min(spec.q, d)
    size = {
        "empty": 0,
        "one": 1,
        "below": first - 1,
        "at": first,
        "above": min(total, first + seed % first),
        "full": total if total <= 2401 else first,
    }[kind]
    E = random_subset(spec, d, size, seed)
    counts = distance_histogram(E).counts
    assert np.array_equal(counts, np.bincount(pairwise_norms(E).ravel(), minlength=spec.q))
    if size <= 40:
        assert {t: c for t, c in enumerate(counts) if c} == histogram_oracle(E)
    if size >= first:
        rng = np.random.default_rng(seed)
        shift = Point(spec.from_code(int(c)) for c in rng.integers(spec.q, size=d))
        assert np.array_equal(counts, distance_histogram(E.translate(shift)).counts)


# Fields of extension degree 1, 2 and 3 under the default cap, and sparse
# samples of F_49^6, where q^d > 2^32 and no transform could hold the space.
_NORM_SPACES = [
    (p, k, d) for p, k in [(3, 1), (7, 1), (13, 1), (3, 2), (7, 2), (3, 3)] for d in (2, 3, 4)
] + [(7, 2, 6)]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_NORM_SPACES),
    st.integers(0, 30),
    st.integers(1, 7),
    st.integers(0, 2**32),
)
def test_pairwise_norms_match_scalar_oracle(space, size, rows_per_block, seed):
    p, k, d = space
    spec = make_field(p, k)
    E = random_subset(spec, d, min(size, spec.q**d), seed)
    expected = pairwise_norms_oracle(E)
    with pytest.MonkeyPatch.context() as mp:
        # blocks of `rows_per_block` rows, so several blocks run
        mp.setattr(ffgeom, "_CHUNK", rows_per_block * max(len(E), 1) * d)
        assert np.array_equal(pairwise_norms(E), expected)
        counts = distance_histogram(E).counts
    assert np.array_equal(counts, np.bincount(expected.ravel(), minlength=spec.q))


def test_histogram_path_rule(monkeypatch, f5):
    # F_5^2 has q^d = 25: |E| = 9 is below 4 q^d = 100 in square, |E| = 10 is not.
    calls = []
    real = ffgeom._autocorrelation
    monkeypatch.setattr(ffgeom, "_autocorrelation", lambda E: calls.append(len(E)) or real(E))
    for size, fourier in [(9, False), (10, True), (25, True)]:
        calls.clear()
        E = random_subset(f5, 2, size, seed=size)
        hist = distance_histogram(E)
        assert calls == ([size] if fourier else [])
        assert {t: c for t, c in enumerate(hist.counts) if c} == histogram_oracle(E)


def test_fourier_rounding_guard(monkeypatch, f5):
    E = all_points(f5, 2)
    real = np.fft.irfftn

    def perturbed(index, delta):
        def irfftn(*args, **kwargs):
            out = real(*args, **kwargs)
            out.flat[index] += delta
            return out

        return irfftn

    for index, delta, message in [(3, 0.3, "residual"), (0, 1.0, r"r\(0\)"), (1, 1.0, "mass")]:
        monkeypatch.setattr(np.fft, "irfftn", perturbed(index, delta))
        with pytest.raises(InexactTransform, match=message):
            distance_histogram(E)


def test_import_does_not_load_numpy_fft():
    # The child imports the same package as this process, installed or not.
    root = str(Path(distgraphs.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))}
    code = "import sys, distgraphs; sys.exit('numpy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_out_of_range_t_is_rejected(f5):
    E = random_subset(f5, 2, 12, seed=4)
    hist = distance_histogram(E)
    for bad in (-1, 5, 7, 4.7, 4.0, True, "1", None):
        with pytest.raises(ValueError):
            hist.nu(bad)
        with pytest.raises(ValueError):
            distance_graph(E, bad)
    with pytest.raises(SpecMismatch):
        hist.nu(make_field(3, 1).one)
    assert hist.nu(np.int64(4)) == hist.nu(f5.from_code(4)) == hist.nu(4) == hist.counts[4]


def test_histogram_matches_scalar_oracle(f3):
    E = all_points(f3, 2)
    hist = distance_histogram(E)
    oracle = histogram_oracle(E)
    for t in range(3):
        assert hist.nu(t) == oracle.get(t, 0)
    assert hist.nu(1) == 36 and hist.nu(0) == 9


def test_histogram_oracle_on_random_subset(f5):
    E = random_subset(f5, 2, 11, seed=13)
    hist = distance_histogram(E)
    oracle = histogram_oracle(E)
    assert {t: c for t, c in enumerate(hist.counts) if c} == oracle


def test_histogram_singleton(f5):
    E = PointSet(f5, 2, np.array([[1, 2]], dtype=np.int32))
    hist = distance_histogram(E)
    assert hist.nu(0) == 1 and hist.total() == 1


def test_histogram_conservation_and_parity(f5):
    E = random_subset(f5, 3, 40, seed=21)
    hist = distance_histogram(E)
    assert hist.total() == 40 * 40
    assert hist.nu(0) >= 40 and (hist.nu(0) - 40) % 2 == 0
    for t in range(1, 5):
        assert hist.nu(t) % 2 == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_histogram_translation_and_permutation_invariance(seed):
    f9 = make_field(3, 2)
    rng = np.random.default_rng(seed)
    E = random_subset(f9, 2, int(rng.integers(2, 30)), seed=seed)
    z = Point([f9.from_code(int(rng.integers(9))), f9.from_code(int(rng.integers(9)))])
    base = distance_histogram(E).counts
    assert np.array_equal(base, distance_histogram(E.translate(z)).counts)
    assert np.array_equal(base, distance_histogram(E.permute_coordinates([1, 0])).counts)


def test_distance_graph_examples(f3):
    E = all_points(f3, 2)
    g = distance_graph(E, 1)
    assert g.n == 9 and g.edge_count == 18 and set(g.degrees()) == {4}
    hist = distance_histogram(E)
    for t in range(1, 3):
        assert distance_graph(E, t).edge_count == hist.nu(t) // 2


def test_distance_graph_unit_square(f3):
    E = PointSet(f3, 2, np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=np.int32))
    from distgraphs.graphs import contains_subgraph

    assert contains_subgraph(distance_graph(E, 1), cycle_graph(4)) is not None


def test_distance_graph_empty_t(f5):
    E = random_subset(f5, 2, 4, seed=3)
    hist = distance_histogram(E)
    empty_ts = [t for t in range(5) if hist.nu(t) == 0]
    for t in empty_ts:
        assert distance_graph(E, t).edge_count == 0


@pytest.mark.parametrize(
    "pk, d, size",
    [
        ((5, 1), 2, None),  # all of F_5^2
        ((3, 2), 2, None),  # all of F_9^2
        ((3, 1), 3, None),  # all of F_3^3
        ((7, 1), 3, 40),
        ((3, 2), 3, 45),
        ((5, 2), 2, 60),
        ((11, 1), 2, 3),
    ],
)
def test_distance_graph_matches_norm_matrix(monkeypatch, pk, d, size):
    spec = make_field(*pk)
    E = all_points(spec, d) if size is None else random_subset(spec, d, size, seed=size)
    n = len(E)
    monkeypatch.setattr(ffgeom, "_CHUNK", max(1, n // 3) * n * d)  # at least three norm blocks
    assert len(list(ffgeom._norm_blocks(E, ffgeom._norm_kernel(E)))) >= 3
    norms = pairwise_norms_oracle(E)
    for t in range(spec.q):
        assert distance_graph(E, t) == Graph.from_bool_blocks([norms == t])


def test_distance_graph_memory_is_one_norm_block(monkeypatch):
    # 1031 points of F_25^3 in blocks of 8 rows: the norm matrix and its
    # bool mask alone would take 5 n^2 bytes (5.3 MB).
    spec = make_field(5, 2)
    E = random_subset(spec, 3, 1031, seed=4)
    n = len(E)
    spec.add_table, spec.sub_table, spec.square_table  # built before tracing

    def refuse(*args, **kwargs):
        raise AssertionError("distance_graph built the n x n norm matrix")

    monkeypatch.setattr(ffgeom, "pairwise_norms", refuse)
    monkeypatch.setattr(ffgeom, "_CHUNK", 8 * n * 3)
    graphs = []
    peak = _traced_peak(lambda: graphs.append(distance_graph(E, 3)))
    assert graphs[0].n == n
    assert peak < n * n


def test_ir_check_full_plane(f3):
    rep = ir_check(all_points(f3, 2))
    assert rep.passed
    rec = rep.records[0]
    assert rec.nu == 36 and rec.main == Fraction(27) and rec.remainder == Fraction(9)
    # Exact squared comparison: R^2 = 81 <= 4 q^{d-1} |E|^2 = 972.
    assert rec.remainder**2 == 81
    assert Fraction(81) <= 4 * 3 ** (2 - 1) * Fraction(81)


def test_ir_check_trivia(f5):
    single = PointSet(f5, 2, np.array([[0, 0]], dtype=np.int32))
    assert ir_check(single).passed
    empty = PointSet(f5, 2, np.empty((0, 2), dtype=np.int32))
    assert ir_check(empty).passed


def test_ir_check_extension_field():
    f9 = make_field(3, 2)
    assert ir_check(all_points(f9, 2)).passed


def test_large_set_edge_count_chain(f5):
    # Sets above 4 q^{(d+1)/2} = 100 points in F_5^3 must have
    # nu(t) > |E|^2 / (4q) at every nonzero t.
    for size in (101, 110, 125):
        E = random_subset(f5, 3, size, seed=size)
        hist = distance_histogram(E)
        for t in range(1, 5):
            assert hist.nu(t) * 4 * 5 > size * size


def test_graph_distance_set_examples(f3):
    E = all_points(f3, 2)
    ds = graph_distance_set(E, complete_graph(2))
    assert {1, 2} <= ds.contained and ds.covers_all_nonzero
    big = complete_graph(10)
    assert graph_distance_set(E, big).contained == frozenset()


def test_graph_distance_set_budget(f3):
    E = all_points(f3, 2)
    ds = graph_distance_set(E, cycle_graph(4), budget=1)
    assert ds.indeterminate  # budget too small to decide anything nontrivial
    assert not ds.indeterminate & ds.contained


def test_graph_distance_set_monotone(f5):
    E_small = random_subset(f5, 2, 10, seed=8)
    E_big = PointSet(
        f5,
        2,
        np.concatenate(
            [
                E_small.codes,
                np.array(
                    [
                        r
                        for r in all_points(f5, 2).codes
                        if not any(np.array_equal(r, s) for s in E_small.codes)
                    ][:8]
                ),
            ]
        ),
    )
    c4 = cycle_graph(4)
    small = graph_distance_set(E_small, c4).contained
    assert small <= graph_distance_set(E_big, c4).contained
    # Pattern monotonicity: P_3 is a subgraph of C_4.
    assert small <= graph_distance_set(E_small, path_graph(3)).contained


def test_pairwise_norms_symmetry(f5):
    E = random_subset(f5, 3, 17, seed=77)
    norms = pairwise_norms(E)
    assert np.array_equal(norms, norms.T)
    assert np.all(norms.diagonal() == 0)


def test_points_file_round_trip(tmp_path, f5):
    for spec, d, size in [
        (f5, 2, 6), (make_field(3, 2), 3, 6), (make_field(3, 3), 2, 40),
        (FieldSpec(3, 3, (2, 2, 0, 1)), 3, 25), (make_field(7, 2), 2, 0), (make_field(3, 3), 3, 0),
    ]:
        E = random_subset(spec, d, size, seed=10)
        path = tmp_path / f"pts_{spec.q}_{d}_{size}.txt"
        write_points_file(E, path)
        back = read_points_file(path)
        assert back.spec == E.spec and back.d == E.d
        assert np.array_equal(back.codes, E.codes)


def test_points_file_format_is_coefficient_major(tmp_path):
    f9 = make_field(3, 2)
    E = PointSet(f9, 2, np.array([[5, 7]], dtype=np.int32))  # 5 = 2+X, 7 = 1+2X
    path = tmp_path / "pts.txt"
    write_points_file(E, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "3 2 2 1"
    assert lines[1] == "1 0 1"
    # Constant terms of both coordinates first, then the X coefficients.
    assert lines[2] == "2 1 1 2"

    f27 = make_field(3, 3)
    E = PointSet(f27, 3, np.array([[5, 19, 26], [0, 9, 1]], dtype=np.int32))
    write_points_file(E, path)  # 5 = 2+X, 19 = 1+2X^2, 26 = 2+2X+2X^2, 9 = X^2
    assert path.read_text().splitlines() == [
        "3 3 3 2",
        " ".join(map(str, f27.modulus)),
        "2 1 2 1 0 2 0 2 2",
        "0 0 1 0 0 0 0 1 0",
    ]

    write_points_file(PointSet(f9, 2, np.zeros((0, 2), dtype=np.int32)), path)
    assert path.read_text() == "3 2 2 0\n1 0 1\n"


def test_points_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    for text in [
        "3 1 2\n0 1\n",  # a short header
        "3 1 2 2\n0 1\n5 9\n0 1\n1 2\n",  # digits 5 and 9, and a third point line
        "3 1 2 2\n0 1\n0 1\n1 5\n",  # a digit outside [0, p)
        "3 1 2 2\n0 1\n0 1\n1 2\n2 2\n",  # more point lines than the header's n
        "3 1 2 2\n0 1\n0 1\n",  # fewer point lines than the header's n
        "3 1 2 2\n0 1\n0 1\n1 x\n",  # a non-integer token
        "3 1 2 2\n0 1\n0 1\n1 2.0\n",
        "3 2 2 1\n1 0\n2 1 1 2\n",  # a modulus line one coefficient short
        "3 1 2 -1\n0 1\n",  # a negative point count
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError):
            read_points_file(bad)


def test_wide_point_sets_are_cheap(tmp_path, f3):
    # An empty subset of F_3^(10^6) and two points of F_3^(10^5): the
    # distinctness check allocates O(n d), not a record type of d fields.
    path = tmp_path / "wide.txt"
    path.write_text("3 1 1000000 0\n0 1\n")
    codes = np.zeros((2, 10**5), dtype=np.int32)
    tracemalloc.start()
    try:
        E = read_points_file(path)
        with pytest.raises(ValueError, match="distinct"):
            PointSet(f3, 10**5, codes)
        codes[1, -1] = 1
        assert len(PointSet(f3, 10**5, codes)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(E), E.d) == (0, 10**6)
    assert peak < 8 * codes.nbytes


def test_points_file_trailing_blank_lines(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("3 1 2 2\n0 1\n0 1\n1 2\n\n\n")
    assert read_points_file(path).codes.tolist() == [[0, 1], [1, 2]]


def test_graph_distance_set_isotropic_line(f5):
    # The points (x, 2x) of F_5^2: every difference has norm 5 x^2 = 0.
    E = PointSet(f5, 2, np.array([[x, 2 * x % 5] for x in range(5)]))
    assert np.all(pairwise_norms(E) == 0)
    ds = graph_distance_set(E, complete_graph(2))
    assert ds.contained == {0} and not ds.indeterminate
    # An unrealized t is absent even at the smallest budget: the search
    # finds no candidate and so spends nothing.
    tight = graph_distance_set(E, complete_graph(2), budget=1)
    for t in range(1, 5):
        assert t not in tight.contained and t not in tight.indeterminate


# -- the G-distance set against whole graphs ---------------------------------


def _distance_set_key(ds):
    return ds.contained, ds.indeterminate, {t: w.mapping for t, w in ds.witnesses.items()}


_DS_PATTERNS = {
    "K2": complete_graph(2),
    "P3": path_graph(3),
    "K3": complete_graph(3),
    "C4": cycle_graph(4),
    "Q3": hypercube_graph(3),
    "empty": Graph(3),
}


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]),
    st.sampled_from([2, 3]),
    st.one_of(st.just("full"), st.integers(0, 300)),
    st.sampled_from(sorted(_DS_PATTERNS)),
    st.sampled_from([None, 1, 5, 50]),
    st.integers(0, 2**32),
)
def test_graph_distance_set_matches_whole_graph_oracle(pk, d, size, name, budget, seed):
    spec = make_field(*pk)
    total = spec.q**d
    # the full space up to 729 points; F_25^3 and F_27^3 are sampled.  All
    # of F_27^2 reads its degrees from its rows, and there only v = 0 has
    # norm 0, so t = 0 is searched only for the edgeless pattern.
    size = min(total, 729) if size == "full" else min(size, total)
    E = random_subset(spec, d, size, seed)
    pattern = _DS_PATTERNS[name]
    expected = graph_distance_set_oracle(E, pattern, budget=budget)
    assert _distance_set_key(graph_distance_set(E, pattern, budget=budget)) == _distance_set_key(expected)


def _degree_table_of(E: PointSet) -> np.ndarray:
    return ffgeom._degree_table(ffgeom._NormRows(E))


def _row_degree_table(E: PointSet) -> np.ndarray:
    """deg[i, t] as a dense set reads it: the popcount of row i of the
    t-distance host, packed from x_i's norm row when first read."""
    rows = ffgeom._NormRows(E)
    columns = []
    for t in range(E.spec.q):
        degrees = ffgeom._DistanceHost(rows, t, None).degrees()
        columns.append([degrees[i] for i in range(len(E))])
    return np.array(columns, dtype=np.int64).reshape(E.spec.q, len(E)).T


@pytest.mark.parametrize(
    "pk, d, size, rows_per_block",
    [
        ((3, 1), 2, 9, 1),
        ((5, 1), 3, 60, 7),
        ((3, 2), 2, 40, 3),
        ((7, 2), 2, 300, 64),
        ((13, 1), 3, 200, 1000),
        # all of F_7^3 and F_5^4, dense sets that graph_distance_set reads
        # from its rows (_row_degree_table) and that _degree_table still counts
        ((7, 1), 3, 343, 5),
        ((5, 1), 4, 625, 100),
    ],
)
def test_degree_table_matches_whole_graphs(monkeypatch, pk, d, size, rows_per_block):
    spec = make_field(*pk)
    E = random_subset(spec, d, size, seed=size)
    # blocks of `rows_per_block` rows, so most cases run several blocks; the
    # same _CHUNK keeps as many norm rows, so rows past those are recomputed
    monkeypatch.setattr(ffgeom, "_CHUNK", rows_per_block * size * d)
    degrees = [distance_graph(E, t).degrees() for t in range(spec.q)]
    for path in (degree_table_oracle, _row_degree_table, _degree_table_of):
        deg = path(E)
        assert deg.shape == (size, spec.q)
        assert deg.T.tolist() == degrees


def test_graph_distance_set_builds_no_whole_graph(monkeypatch):
    E = random_subset(make_field(5, 1), 3, 60, seed=5)
    expected = {name: graph_distance_set_oracle(E, g, budget=50) for name, g in _DS_PATTERNS.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("graph_distance_set built an n x n array")

    monkeypatch.setattr(ffgeom, "pairwise_norms", refuse)
    monkeypatch.setattr(ffgeom, "distance_graph", refuse)
    monkeypatch.setattr(Graph, "from_bool_blocks", refuse)
    for name, g in _DS_PATTERNS.items():
        assert _distance_set_key(graph_distance_set(E, g, budget=50)) == _distance_set_key(expected[name])


@pytest.mark.parametrize("size", [0, 1, 2])
@pytest.mark.parametrize(
    "pattern", [Graph(0), Graph(1), Graph(2), complete_graph(2)], ids=["empty-0", "empty-1", "empty-2", "K2"]
)
def test_graph_distance_set_tiny_sets(f5, size, pattern):
    E = random_subset(f5, 2, size, seed=size)
    assert _distance_set_key(graph_distance_set(E, pattern)) == _distance_set_key(
        graph_distance_set_oracle(E, pattern)
    )


def _refuse(*args, **kwargs):
    raise AssertionError("graph_distance_set took the other degree path")


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_graph_distance_set_memory_is_blocks_and_degrees(monkeypatch):
    # 1031 points of F_25^3, below the dense rule: the norm matrix alone
    # would take 4 n^2 bytes (4.3 MiB).
    spec = make_field(5, 2)
    E = random_subset(spec, 3, 1031, seed=4)
    n = len(E)
    spec.add_table, spec.sub_table, spec.square_table  # built before tracing
    monkeypatch.setattr(ffgeom, "_RowDegrees", _refuse)
    monkeypatch.setattr(ffgeom, "_CHUNK", 8 * n * 3)  # blocks of 8 rows
    peak = _traced_peak(lambda: graph_distance_set(E, cycle_graph(4)))
    assert peak < n * n


def test_graph_distance_set_memory_is_rows_read(monkeypatch):
    # All of F_49^2 is dense: it builds no degree table and keeps only the
    # norm rows its searches read (about 0.25 n^2 bytes with the kernel's
    # tables), where the norm matrix alone would take 4 n^2 bytes.
    spec = make_field(7, 2)
    E = all_points(spec, 2)
    n = len(E)
    spec.add_table, spec.sub_table, spec.square_table  # built before tracing
    monkeypatch.setattr(ffgeom, "_degree_table", _refuse)
    monkeypatch.setattr(ffgeom, "_norm_blocks", _refuse)
    result = []
    peak = _traced_peak(lambda: result.append(graph_distance_set(E, cycle_graph(4))))
    assert result[0].covers_all_nonzero
    assert peak < n * n // 2


# -- norm rows: one store per point set, kept up to a _CHUNK ----------------


def _count_norm_rows(monkeypatch, E: PointSet) -> tuple[list[int], list[int], list[int], list[int]]:
    """(one entry per norm kernel built, the vertex of every norm row
    computed in a block, of every one computed alone, and of every (t, i)
    row packed), each filled in by later graph_distance_set calls on E."""
    vertex = {tuple(c): i for i, c in enumerate(E.codes.tolist())}
    builds, in_blocks, alone, packed = [], [], [], []
    real_kernel = ffgeom._norm_kernel
    real_missing = ffgeom._DistanceHost.__missing__

    def kernel(E):
        builds.append(1)
        norms = real_kernel(E)

        def counted(xs):
            points = np.asarray(xs).T.tolist()
            if np.ndim(xs[0]) == 0:  # one point, not a block
                alone.append(vertex[tuple(points)])
            else:
                in_blocks.extend(vertex[tuple(c)] for c in points)
            return norms(xs)

        return counted

    def missing(host, i):
        packed.append(i)
        return real_missing(host, i)

    monkeypatch.setattr(ffgeom, "_norm_kernel", kernel)
    monkeypatch.setattr(ffgeom._DistanceHost, "__missing__", missing)
    return builds, in_blocks, alone, packed


_K23 = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


@pytest.mark.parametrize(
    "pk, d, size, pattern, on_demand",
    [
        ((7, 1), 2, 49, cycle_graph(4), False),
        ((13, 1), 3, 160, hypercube_graph(3), False),
        ((5, 2), 2, 300, cycle_graph(6), False),
        ((3, 2), 3, 200, _K23, False),
        ((13, 1), 3, 500, cycle_graph(4), True),
        ((3, 2), 3, 700, _K23, True),
    ],
    ids=["C4-F7^2", "Q3-F13^3", "C6-F25^2", "K23-F9^3", "C4-F13^3-demand", "K23-F9^3-demand"],
)
def test_graph_distance_set_computes_each_norm_row_once(monkeypatch, pk, d, size, pattern, on_demand):
    # n * n <= _CHUNK, so the store has room for every row.
    E = random_subset(make_field(*pk), d, size, seed=size)
    assert size * size <= ffgeom._CHUNK
    expected = graph_distance_set_oracle(E, pattern)
    builds, in_blocks, alone, packed = _count_norm_rows(monkeypatch, E)
    assert _distance_set_key(graph_distance_set(E, pattern)) == _distance_set_key(expected)
    assert len(builds) == 1
    if on_demand:  # each row alone, the first time a search reads it
        assert not in_blocks and sorted(alone) == sorted(set(packed))
    else:  # the degree table's blocks compute every row; the searches none
        assert sorted(in_blocks) == list(range(size)) and not alone
    assert len(set(packed)) < len(packed)


@pytest.mark.parametrize(
    "pk, d, size, pattern",
    [
        ((13, 1), 3, 120, hypercube_graph(3)),
        ((13, 1), 3, 200, _K23),
        ((7, 2), 2, 150, hypercube_graph(3)),
        ((5, 1), 4, 90, _K23),
    ],
    ids=["Q3-F13^3", "K23-F13^3", "Q3-F49^2", "K23-F5^4"],
)
def test_graph_distance_set_with_a_full_row_cache(monkeypatch, pk, d, size, pattern):
    # Absence-heavy sparse sets, with room for 5 norm rows: the blocks keep
    # rows 0 to 4, and every row past those is computed again for each t
    # that reads it.
    E = random_subset(make_field(*pk), d, size, seed=size)
    expected = graph_distance_set_oracle(E, pattern, budget=20000)
    builds, in_blocks, alone, packed = _count_norm_rows(monkeypatch, E)
    monkeypatch.setattr(ffgeom, "_CHUNK", 5 * size)
    assert _distance_set_key(graph_distance_set(E, pattern, budget=20000)) == _distance_set_key(expected)
    assert len(builds) == 1
    assert sorted(in_blocks) == list(range(size))
    assert alone == [i for i in packed if i >= 5]
    assert len(set(alone)) < len(alone)


def test_graph_distance_set_rows_past_uint8(monkeypatch):
    # Norm codes of F_257 run to 256, past uint8: the kept rows are uint16.
    monkeypatch.setenv("DISTGRAPHS_MAX_Q", "300")
    spec = make_field(257, 1)
    E = random_subset(spec, 2, 300, seed=257)
    for pattern in (path_graph(3), cycle_graph(4)):
        expected = graph_distance_set_oracle(E, pattern, budget=5000)
        assert _distance_set_key(graph_distance_set(E, pattern, budget=5000)) == _distance_set_key(expected)
        if pattern.n == 3:  # found at t = 256, the code a uint8 row would wrap to 0
            assert 256 in expected.contained


# -- dense sets: degrees read from the rows their searches pack -------------


def _dense(n: int, q: int, d: int) -> bool:
    """graph_distance_set's rule for reading degrees from rows."""
    return n * n > 4 * q ** (d + 1) and n * n * d >= ffgeom._DEMAND_CELLS


def _dense_min(q: int, d: int) -> int:
    """The least n that graph_distance_set finds dense."""
    n = isqrt(4 * q ** (d + 1)) + 1
    return max(n, isqrt(-(-ffgeom._DEMAND_CELLS // d) - 1) + 1)


# Extension degrees 1, 2 and 3 and dimensions 2, 3 and 4, up to 27^3 points.
_DEGREE_SPACES = [
    (p, k, d)
    for p, k in [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2), (3, 3)]
    for d in (2, 3, 4)
    if (p**k) ** d <= 27**3
]


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(_DEGREE_SPACES),
    st.sampled_from(["one", "below", "at", "full", "any"]),
    st.integers(0, 2**32),
)
def test_sphere_degree_table_matches_norm_blocks(space, kind, seed):
    # deg[i, t] is the number of points of E on the sphere of norm t around
    # x_i, less the diagonal at t = 0; read from the packed rows, as a
    # dense set reads it, it must match the norm blocks' table at every
    # point, on either side of the rule.
    p, k, d = space
    spec = make_field(p, k)
    total = spec.q**d
    first = _dense_min(spec.q, d)
    size = {
        "one": 1,
        "below": first - 1,
        "at": first,
        "full": total if total <= 729 else first,
        "any": 1 + seed % 700,
    }[kind]
    E = random_subset(spec, d, min(size, total), seed)
    assert np.array_equal(_row_degree_table(E), degree_table_oracle(E))


@pytest.mark.parametrize(
    "pk, d, size, seed",
    [
        ((7, 2), 2, 2401, 1),  # the threshold sweeps' full spaces
        ((13, 1), 3, 2197, 2),
        ((7, 2), 2, 709, 3),  # dense sets near the rule
        ((7, 2), 2, 710, 3),
        ((13, 1), 3, 313, instance_seed(5, 1)),  # below it
        ((13, 1), 3, 314, instance_seed(5, 1)),
        ((3, 3), 3, 1200, 6),
        ((3, 2), 4, 1500, 7),
        ((3, 1), 4, 81, 8),
        ((7, 2), 2, 1099, 3),
        ((7, 2), 2, 1100, 3),
        ((13, 1), 3, 405, instance_seed(5, 1)),
        ((13, 1), 3, 406, instance_seed(5, 1)),
    ],
)
def test_sphere_degree_table_matches_norm_blocks_on_seeded_sets(pk, d, size, seed):
    # The degrees of the previous test, each read from a packed row, on
    # the seeded sets that the former sphere-convolution table was checked on.
    spec = make_field(*pk)
    E = random_subset(spec, d, size, seed)
    expected = degree_table_oracle(E)
    assert np.array_equal(_row_degree_table(E), expected)
    assert np.array_equal(expected.sum(axis=1), np.full(size, size - 1))


def test_degree_table_path_rule(monkeypatch):
    calls = []
    real = ffgeom._degree_table
    monkeypatch.setattr(ffgeom, "_degree_table", lambda rows: calls.append(len(rows.E)) or real(rows))
    for pk, d, size, dense in [
        ((7, 2), 2, 120, False),
        ((7, 2), 2, 400, False),
        ((7, 2), 2, 686, False),  # n^2 = 4 q^(d+1): the bound promises no pair
        ((7, 2), 2, 687, True),
        ((13, 1), 3, 338, False),  # n^2 = 4 q^(d+1) again
        ((13, 1), 3, 339, True),
        ((13, 1), 3, 340, True),
        ((7, 1), 3, 343, True),
        ((23, 1), 2, 362, False),  # 2 n^2 < _DEMAND_CELLS = 2^18 <= 2 * 363^2
        ((23, 1), 2, 363, True),
        ((5, 2), 2, 499, True),
        ((3, 3), 3, 1200, False),
        # the acceptance threshold sweep's C6 over F_9^2, up to all 81 points
        ((3, 2), 2, 15, False),
        ((3, 2), 2, 81, False),
        # a sparse sample of F_49^6
        ((7, 2), 6, 300, False),
    ]:
        spec = make_field(*pk)
        assert _dense(size, spec.q, d) == dense
        E = random_subset(spec, d, size, seed=size)
        pattern = cycle_graph(6) if d == 2 and spec.q == 9 else cycle_graph(4)
        expected = graph_distance_set_oracle(E, pattern, budget=2000)
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            if dense:
                mp.setattr(ffgeom, "_norm_blocks", _refuse)
            else:
                mp.setattr(ffgeom, "_RowDegrees", _refuse)
            got = graph_distance_set(E, pattern, budget=2000)
        assert _distance_set_key(got) == _distance_set_key(expected)
        assert calls == ([] if dense else [size])


@pytest.mark.parametrize(
    "pk, d, size, pattern",
    [
        ((7, 2), 2, 2401, cycle_graph(4)),  # the threshold sweeps' full spaces
        ((13, 1), 3, 2197, hypercube_graph(3)),
        ((7, 1), 3, 343, cycle_graph(6)),
        ((3, 3), 2, 729, cycle_graph(4)),  # q = 3 mod 4: t = 0 is skipped
        ((47, 1), 2, 2209, cycle_graph(4)),
        ((7, 2), 2, 686, cycle_graph(4)),  # each side of the rule
        ((7, 2), 2, 687, cycle_graph(4)),
    ],
    ids=["C4-F49^2", "Q3-F13^3", "C6-F7^3", "C4-F27^2", "C4-F47^2", "C4-F49^2-686", "C4-F49^2-687"],
)
def test_graph_distance_set_matches_oracle_on_dense_sets(monkeypatch, pk, d, size, pattern):
    spec = make_field(*pk)
    E = random_subset(spec, d, size, seed=size) if size < spec.q**d else all_points(spec, d)
    budgets = [None, 1, 5, 50]
    expected = [graph_distance_set_oracle(E, pattern, budget=b) for b in budgets]
    if _dense(size, spec.q, d):
        monkeypatch.setattr(ffgeom, "_degree_table", _refuse)
        monkeypatch.setattr(ffgeom, "_norm_blocks", _refuse)
    for budget, want in zip(budgets, expected):
        got = graph_distance_set(E, pattern, budget=budget)
        assert _distance_set_key(got) == _distance_set_key(want)  # witnesses included
        if ffgeom._anisotropic(spec.q, d):
            assert 0 not in got.contained | got.indeterminate
    assert expected[0].covers_all_nonzero and not expected[0].indeterminate
    assert expected[1].indeterminate  # budget 1 leaves every search with an edge to place


def test_anisotropic_plane_searches_no_t0_graph(monkeypatch):
    # All of F_27^2: only v = 0 has norm 0, so no search packs a t = 0 row,
    # except for an edgeless pattern, which every t contains.
    E = all_points(make_field(3, 3), 2)
    packed = []
    real = ffgeom._DistanceHost.__missing__
    monkeypatch.setattr(ffgeom._DistanceHost, "__missing__", lambda host, i: packed.append(host.t) or real(host, i))
    ds = graph_distance_set(E, cycle_graph(4))
    assert ds.covers_all_nonzero and 0 not in ds.contained and packed and 0 not in packed
    packed.clear()
    assert graph_distance_set(E, Graph(3)).contained == set(range(27))
    assert packed.count(0) == 3


def test_only_zero_has_norm_zero_exactly_in_anisotropic_planes():
    checked = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        for k in range(1, 4):
            if p**k > 49:
                continue
            spec = make_field(p, k)
            for d in (2, 3, 4):
                if spec.q**d > ffgeom.max_point_count():
                    continue
                zeros = int(np.bincount(ffgeom._all_norms(spec, d), minlength=spec.q)[0])
                assert (zeros == 1) == ffgeom._anisotropic(spec.q, d), (spec.q, d)
                checked.append((spec.q, d))
    assert len({q for q, _ in checked}) == 18 and (49, 2) in checked and (17, 3) in checked


def test_large_spaces_build_no_transform(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a transform over the whole space was built")

    monkeypatch.setattr(np.fft, "rfftn", refuse)
    monkeypatch.setattr(np.fft, "irfftn", refuse)
    # A sparse sample of F_49^6, where q^d > 2^32.
    E = random_subset(make_field(7, 2), 6, 300, seed=3)
    assert _distance_set_key(graph_distance_set(E, cycle_graph(4))) == _distance_set_key(
        graph_distance_set_oracle(E, cycle_graph(4))
    )
