import subprocess
import sys
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import histogram_oracle, partial_fisher_yates_oracle
from distgraphs import ffgeom
from distgraphs.errors import (
    DimensionTooSmall,
    InexactTransform,
    SizeTooLarge,
    SpecMismatch,
    TooLarge,
)
from distgraphs.experiments import instance_seed
from distgraphs.field import Point, make_field
from distgraphs.ffgeom import (
    PointSet,
    all_points,
    distance_graph,
    distance_histogram,
    graph_distance_set,
    ir_check,
    pairwise_norms,
    random_subset,
    read_points_file,
    write_points_file,
)
from distgraphs.graphs import complete_graph, cycle_graph, path_graph


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
    spec = make_field(*pk)
    picks = partial_fisher_yates_oracle(spec.q**d, size, np.random.default_rng(seed))
    expected = np.array(np.unravel_index(np.array(picks, dtype=np.int64), (spec.q,) * d)).T
    assert np.array_equal(random_subset(spec, d, size, seed).codes, expected.reshape(-1, d))


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
    code = "import sys, distgraphs; sys.exit('numpy.fft' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


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
    for spec, d in [(f5, 2), (make_field(3, 2), 3)]:
        E = random_subset(spec, d, 6, seed=10)
        path = tmp_path / f"pts_{spec.q}_{d}.txt"
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
