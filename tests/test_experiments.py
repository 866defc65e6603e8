"""Sweeps, tables, and the two fitting routines."""

import json
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import curve_fit

from oscent import experiments
from oscent.cli import main
from oscent.covariance import (
    Bipartition,
    RingCovariance,
    _ring_symmetry,
    classical_covariance,
)
from oscent.errors import (
    DegenerateDesignError,
    InvalidModelError,
    NoConvergenceError,
    NotPositiveDefiniteError,
    OverlappingGroupsError,
    UnstableSystemError,
)
from oscent.experiments import (
    DEFAULT_KAPPAS,
    SweepTable,
    fit_adjacent_cft,
    fit_kappa_asymptote,
    lattice_adjacent_sweep,
    lattice_disjoint_sweep,
    lattice_size_sweep,
    read_sweep_csv,
    saturation_curve,
    sweep_ghoc_y2,
    sweep_two_mode_coupling,
)
from oscent.models import CircularLattice, normal_modes
from oscent.negativity import log_negativity, stacked_log_negativities

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
SIGMA_REF = 0.5167716231557249
GHOC_SIGMA_REF = 0.5075258825641088


# --- two-mode sweep ---------------------------------------------------------

def test_two_mode_sweep_columns_and_rows():
    table = sweep_two_mode_coupling((0.0, 10.0), alphas=(2.0,))
    assert table.columns == ("C", "sigma", "purity", "linear_entropy",
                             "von_neumann", "mu_2", "tsallis_2", "renyi_2")
    assert len(table.rows) == 2
    assert table.column("C").tolist() == [0.0, 10.0]


def test_two_mode_sweep_uncoupled_row_is_pure():
    table = sweep_two_mode_coupling((0.0,), alphas=(2.0, 8.0))
    row = table.to_records()[0]
    assert row["sigma"] == 0.5
    assert_allclose(row["purity"], 1.0, atol=1e-12)
    assert_allclose(row["von_neumann"], 0.0, atol=1e-12)
    assert_allclose(row["mu_8"], 1.0, atol=1e-12)


def test_two_mode_sweep_reference_point():
    table = sweep_two_mode_coupling((10.0,))
    assert_allclose(table.column("sigma")[0], SIGMA_REF, rtol=1e-12)


def test_two_mode_sweep_sigma_grows_with_coupling():
    table = sweep_two_mode_coupling(np.linspace(0.0, 19.5, 14))
    assert np.all(np.diff(table.column("sigma")) > 0.0)
    assert np.all(np.diff(table.column("purity")) < 0.0)


def test_two_mode_sweep_rejects_unstable_grid():
    with pytest.raises(InvalidModelError):
        sweep_two_mode_coupling((0.0, 10.0, 20.0))


@pytest.mark.parametrize("command",
                         ["twomode-sweep", "lattice-d", "lattice-adjacent", "lattice-size"])
def test_sweeps_are_deterministic(command, tmp_path, capsys):
    # Repeat runs write identical bytes; the ring sweeps make stacked LAPACK
    # calls, which must keep that promise too.
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main([command, "--out", str(p1)]) == 0, capsys.readouterr().err
    assert main([command, "--out", str(p2)]) == 0, capsys.readouterr().err
    assert p1.read_bytes() == p2.read_bytes()


# --- generalized-chain sweep --------------------------------------------------

def test_ghoc_sweep_reference_point():
    # Default parameters (X1 = X2 = 2, Z = 1) at Y2 = 0.
    table = sweep_ghoc_y2((0.0,))
    assert_allclose(table.column("sigma")[0], GHOC_SIGMA_REF, rtol=1e-12)


def test_ghoc_sweep_beyond_stability_edge_raises():
    # Defaults are stable only for |Y2| < sqrt(8/3) ~ 1.633.
    with pytest.raises(UnstableSystemError):
        sweep_ghoc_y2(np.linspace(0.0, 1.7, 18))


def test_ghoc_sweep_purity_drops_toward_the_edge():
    table = sweep_ghoc_y2(np.linspace(0.0, 1.6, 9), x1=2.0, x2=2.0, z=1.0)
    purity = table.column("purity")
    assert np.all(np.diff(purity) < 0.0)
    assert table.columns[0] == "Y2"


# --- lattice sweeps -------------------------------------------------------------

def test_disjoint_sweep_symmetry_on_small_ring():
    table = lattice_disjoint_sweep((0, 5, 10, 15, 20), kappas=(4.0,),
                                   n=40, k=0.1, n1=10, n2=10)
    e = dict(zip(table.column("d"), table.column("log_negativity")))
    assert_allclose(e[5.0], e[15.0], atol=1e-8)
    assert_allclose(e[0.0], e[20.0], atol=1e-8)
    assert e[0.0] > e[10.0]


def test_disjoint_sweep_rejects_wrapping_overlap():
    with pytest.raises(OverlappingGroupsError):
        lattice_disjoint_sweep((35,), kappas=(4.0,), n=40, k=0.1, n1=10, n2=10)


def test_disjoint_sweep_column_order():
    table = lattice_disjoint_sweep((0, 5), kappas=(1.0, 8.0), n=40, k=0.1,
                                   n1=10, n2=10)
    assert table.columns == ("d", "kappa", "log_negativity", "negativity")
    # Row order: d outer, kappa inner.
    assert [r[:2] for r in table.rows] == [(0.0, 1.0), (0.0, 8.0),
                                           (5.0, 1.0), (5.0, 8.0)]


def test_adjacent_sweep_endpoints_are_exactly_zero():
    table = lattice_adjacent_sweep((0, 10, 20), kappas=(4.0,), n=40,
                                   k=1e-4, block=20)
    e = dict(zip(table.column("n1"), table.column("log_negativity")))
    assert e[0.0] == 0.0
    assert e[20.0] == 0.0
    assert e[10.0] > 0.0


def test_adjacent_sweep_rejects_out_of_block_values():
    for bad in (-1, 21):
        with pytest.raises(ValueError):
            lattice_adjacent_sweep((bad,), kappas=(4.0,), n=40, k=1e-4, block=20)


def test_size_sweep_decoupled_ring_is_zero():
    table = lattice_size_sweep((30, 40), kappas=(0.0,), k=0.1, n1=10, n2=10)
    assert np.all(table.column("log_negativity") == 0.0)


def test_size_sweep_rejects_rings_too_small_for_windows():
    with pytest.raises(ValueError):
        lattice_size_sweep((19,), kappas=(4.0,), k=0.1, n1=10, n2=10)


def test_size_sweep_settles_from_above():
    table = lattice_size_sweep((30, 40, 60, 80), kappas=(4.0,), k=0.1,
                               n1=10, n2=10)
    e = table.column("log_negativity")
    assert np.all(np.diff(e) < 0.0)
    assert np.all(np.abs(np.diff(e)[1:]) < np.abs(np.diff(e)[:-1]))


@pytest.mark.parametrize("sweep, name", [
    (lambda: lattice_disjoint_sweep([0], kappas=(), n=20, n1=5, n2=5), "kappas"),
    (lambda: lattice_adjacent_sweep([0, 5], kappas=(), n=20, block=10), "kappas"),
    (lambda: lattice_size_sweep([20], kappas=(), n1=5, n2=5), "kappas"),
    (lambda: sweep_two_mode_coupling([1.0], alphas=()), "alphas"),
    (lambda: sweep_ghoc_y2([0.5], alphas=()), "alphas"),
], ids=["lattice_disjoint_sweep", "lattice_adjacent_sweep", "lattice_size_sweep",
        "sweep_two_mode_coupling", "sweep_ghoc_y2"])
def test_sweeps_refuse_an_empty_list_by_name(sweep, name):
    # An empty list gave a header-only table or dropped every alpha column.
    with pytest.raises(ValueError, match=f"^{name} needs at least one value"):
        sweep()


@pytest.mark.parametrize("sweep", [sweep_two_mode_coupling, sweep_ghoc_y2])
def test_sweeps_refuse_a_repeated_alpha(sweep):
    # It used to write mu_2,tsallis_2,renyi_2 twice under one header.
    with pytest.raises(ValueError, match="^alphas repeat the order 2$"):
        sweep([0.5], alphas=(2, 4, 2.0))


@pytest.mark.parametrize("sweep", [sweep_two_mode_coupling, sweep_ghoc_y2])
def test_sweeps_refuse_alphas_that_name_one_column_before_any_point(sweep):
    # An empty grid never reaches alpha_family, and returned the repeated
    # header; orders that differ past six digits print alike too.
    with pytest.raises(ValueError, match="^alphas repeat the order 2$"):
        sweep([], alphas=(2, 2))
    with pytest.raises(ValueError, match=r"^alphas 2\.0 and 2\.0000001 both name the "
                                         r"columns mu_2, tsallis_2 and renyi_2$"):
        sweep([], alphas=(2, 2.0000001))


@pytest.mark.parametrize("sweep", [
    lambda kappas: lattice_disjoint_sweep([0], kappas=kappas, n=20, k=0.0, n1=5, n2=5),
    lambda kappas: lattice_adjacent_sweep([0, 5], kappas=kappas, n=20, k=0.0, block=10),
    lambda kappas: lattice_size_sweep([20], kappas=kappas, k=0.0, n1=5, n2=5),
], ids=["lattice_disjoint_sweep", "lattice_adjacent_sweep", "lattice_size_sweep"])
def test_ring_sweeps_report_the_first_bad_kappa(sweep):
    # With k = 0 every kappa > 0 is unstable and kappa < 0 is invalid; the
    # one reported is the first in list order, whichever kind it is.
    with pytest.raises(UnstableSystemError):
        sweep((1.0, -1.0))
    with pytest.raises(InvalidModelError, match="field 'kappa'"):
        sweep((-1.0, 1.0))


def test_ring_sweeps_match_the_dense_route():
    n, k, kappa = 24, 1e-3, 8.0
    dense = classical_covariance(normal_modes(CircularLattice(n, k, kappa)), np.ones(n))
    table = lattice_adjacent_sweep((0, 3, 7, 12), kappas=(kappa,), n=n, k=k, block=12)
    for n1, e in zip(table.column("n1"), table.column("log_negativity")):
        part = Bipartition(range(int(n1)), range(int(n1), 12))
        assert abs(e - log_negativity(dense, part).log_negativity) <= 1e-9
    table = lattice_disjoint_sweep((0, 4), kappas=(kappa,), n=n, k=k, n1=6, n2=6)
    for d, e in zip(table.column("d"), table.column("log_negativity")):
        part = Bipartition(range(6), [(6 + int(d) + j) % n for j in range(6)])
        assert abs(e - log_negativity(dense, part).log_negativity) <= 1e-9


def test_size_sweep_never_forms_the_ring_matrix():
    # A dense 100000 x 100000 float64 matrix alone would take 80 GB.
    table = lattice_size_sweep((100000,), kappas=(1.0,))
    e = table.column("log_negativity")
    assert e.shape == (1,) and np.isfinite(e[0]) and e[0] > 0.0


# --- ring symmetry classes ---------------------------------------------------------

# Bipartitions of a 12-site ring: the first six form one class, and each of
# the last two is a class of its own.
RING_12_CLASS = [
    Bipartition((0, 1), (3,)),
    Bipartition((5, 6), (8,)),     # rotated by 5
    Bipartition((10, 11), (1,)),   # rotated by 10: wraps around the ring
    Bipartition((0, 11), (9,)),    # reflected, i -> -i
    Bipartition((3,), (0, 1)),     # groups swapped
    Bipartition((7,), (4, 5)),     # reflected, rotated and swapped
]
RING_12_APART = [
    Bipartition((0, 1), (4,)),     # members {0, 1, 4}: other gaps
    Bipartition((0, 3), (1,)),     # members {0, 1, 3}, other split
]


def test_ring_classes_join_partitions_related_by_ring_symmetry():
    n = 12
    base, *same = RING_12_CLASS
    apart = RING_12_APART
    keys = [key for key, _ in _ring_symmetry([base] + same + apart, n)]
    assert keys[:1 + len(same)] == [keys[0]] * (1 + len(same))
    assert len({keys[0], *keys[1 + len(same):]}) == 3
    state = RingCovariance([CircularLattice(n, 0.1, 4.0)])
    e_base = stacked_log_negativities(state, [base])[0][0].log_negativity
    assert e_base > 0.0
    for part in same:
        e = stacked_log_negativities(state, [part])[0][0].log_negativity
        assert abs(e - e_base) <= 1e-12


def test_one_call_solves_one_partition_per_class(eigvalsh_shapes):
    # Passed to the public batch in one call, the eight partitions make three
    # classes and so three product solves on the certified stack: one for
    # the six related partitions and one for each of the other two. The
    # first partition and the last share the members {0, 1, 3}, and so one
    # Cholesky factor.
    state = RingCovariance([CircularLattice(12, 0.1, kappa) for kappa in (1.0, 4.0)])
    got = stacked_log_negativities(state, RING_12_CLASS + RING_12_APART)
    assert eigvalsh_shapes == [(2, 3, 3)] * 3
    for per_state in got[1:len(RING_12_CLASS)]:
        assert per_state is got[0]
        assert [r.lambda_tilde.tobytes() for r in per_state] == \
               [r.lambda_tilde.tobytes() for r in got[0]]
    assert len({id(per_state) for per_state in got}) == 3
    assert got[0][1].log_negativity > 0.0


@pytest.mark.parametrize("n", [24, 37])
def test_ring_sweeps_match_each_partition_solved_alone(n):
    k, kappas, block, w = 1e-3, (1.0, 16.0), n // 2, 5
    states = {kappa: RingCovariance([CircularLattice(n, k, kappa)]) for kappa in kappas}

    def alone(kappa, part):
        return stacked_log_negativities(states[kappa], [part])[0][0].log_negativity

    table = lattice_adjacent_sweep(range(block + 1), kappas=kappas, n=n, k=k,
                                   block=block)
    for n1, kappa, e, _ in table.rows:
        part = Bipartition(range(int(n1)), range(int(n1), block))
        assert abs(e - alone(kappa, part)) <= 1e-12
    table = lattice_disjoint_sweep(range(n - 2 * w + 1), kappas=kappas, n=n, k=k,
                                   n1=w, n2=w)
    for d, kappa, e, _ in table.rows:
        part = Bipartition(range(w), [(w + int(d) + j) % n for j in range(w)])
        assert abs(e - alone(kappa, part)) <= 1e-12


@pytest.mark.parametrize("n, k, kappas", [(24, 1e-3, (1.0, 16.0)),
                                          (37, 0.1, (4.0,)),
                                          (60, 1e-4, DEFAULT_KAPPAS)])
def test_stacked_sweep_rows_equal_each_kappa_alone_bit_for_bit(n, k, kappas):
    def alone(keys, parts, ring=n):
        # The rows as each kappa's state alone gives them, key outer: the
        # whole batch per kappa, solved one partition per symmetry class.
        per_kappa = [[per_state[0] for per_state in stacked_log_negativities(
            RingCovariance([CircularLattice(ring, k, kappa)]), parts)] for kappa in kappas]
        return [(float(key), kappa, results[i].log_negativity, results[i].negativity)
                for i, key in enumerate(keys) for kappa, results in zip(kappas, per_kappa)]

    def same_bits(table, rows):
        return np.array(table.rows).tobytes() == np.array(rows).tobytes()

    block, w = n // 2, 5
    # n1 = 0 and n1 = block leave one group empty.
    parts = [Bipartition(range(n1), range(n1, block)) for n1 in range(block + 1)]
    table = lattice_adjacent_sweep(range(block + 1), kappas=kappas, n=n, k=k, block=block)
    assert same_bits(table, alone(range(block + 1), parts))
    for n1 in (0, w):   # group 1 empty, then two windows of w sites
        d_grid = range(n - n1 - w + 1)
        parts = [Bipartition(range(n1), [(n1 + d + j) % n for j in range(w)]) for d in d_grid]
        table = lattice_disjoint_sweep(d_grid, kappas=kappas, n=n, k=k, n1=n1, n2=w)
        assert same_bits(table, alone(d_grid, parts))
    part = Bipartition(range(w), range(w, 2 * w))
    table = lattice_size_sweep((2 * w, n), kappas=kappas, k=k, n1=w, n2=w)
    assert same_bits(table, alone([2 * w], [part], 2 * w) + alone([n], [part]))


def test_ring_sweep_mirror_rows_are_exactly_equal():
    n, block, n1, n2 = 37, 16, 6, 8
    table = lattice_adjacent_sweep(range(block + 1), kappas=(4.0,), n=n, k=1e-3,
                                   block=block)
    e = table.column("log_negativity")
    assert np.array_equal(e, e[::-1]) and np.all(e[1:-1] > 0.0)
    table = lattice_disjoint_sweep(range(n - n1 - n2 + 1), kappas=(4.0,), n=n,
                                   k=0.1, n1=n1, n2=n2)
    e = table.column("log_negativity")
    assert np.array_equal(e, e[::-1]) and len(set(e.tolist())) > 1


def test_default_ring_sweeps_solve_one_partition_per_class(monkeypatch, eigvalsh_shapes):
    # (partitions, stacked states) of every call of the negativity core.
    calls = []

    def spy(cov, partitions):
        results = stacked_log_negativities(cov, partitions)
        calls.append((len(partitions), len(results[0])))
        return results

    # Every default ring stack is certified positive definite from its rows,
    # so the only eigvalsh calls are the product solves, one per class, or
    # two at half the size for a class that a reflection of the ring maps
    # onto itself with its groups swapped (a mirror class): lattice-adjacent's
    # 50 | 50 split, every lattice-d separation and the lattice-size window.
    monkeypatch.setattr(experiments, "stacked_log_negativities", spy)
    lattice_adjacent_sweep(range(101))
    assert calls == [(101, 7)]
    assert sorted(eigvalsh_shapes) == [(7, 50, 50)] * 2 + [(7, 100, 100)] * 50
    calls.clear()
    eigvalsh_shapes.clear()
    lattice_disjoint_sweep(range(0, 101, 10))
    assert calls == [(11, 3)]
    assert eigvalsh_shapes == [(3, 50, 50)] * 12
    calls.clear()
    eigvalsh_shapes.clear()
    lattice_size_sweep(range(20, 501, 20))
    assert calls == [(1, 175)]
    assert eigvalsh_shapes == [(175, 10, 10)] * 2


@pytest.mark.parametrize("n_grid, kappas, k, n1, n2", [
    (range(20, 501, 20), DEFAULT_KAPPAS, 0.1, 10, 10),
    ((9, 31, 7, 20, 31), (0.5, 3.0), 0.02, 3, 4),
])
def test_lattice_size_stack_matches_each_size_alone(n_grid, kappas, k, n1, n2):
    part = Bipartition(range(n1), range(n1, n1 + n2))
    rows = []
    for n in n_grid:
        (per_state,) = stacked_log_negativities(
            RingCovariance([CircularLattice(n, k, kappa) for kappa in kappas]), [part])
        rows += [(float(n), kappa, res.log_negativity, res.negativity)
                 for kappa, res in zip(kappas, per_state)]
    table = lattice_size_sweep(n_grid, kappas=kappas, k=k, n1=n1, n2=n2)
    assert np.array(table.rows).tobytes() == np.array(rows).tobytes()
    assert lattice_size_sweep([], kappas=kappas).rows == ()


def test_lattice_size_near_the_positive_definite_floor(eigvalsh_shapes):
    # At k = 1e-20 the kappa = 64 rings have qq eigenvalue ratio 6.25e-12,
    # above the certificate's margin POSDEF_RTOL + 16 N eps: certified, one
    # eigvalsh call per half of the mirror window 0..9 | 10..19. At
    # k = 1e-22 the ratio is 6.25e-13: the 40-site ring is not certified,
    # so the eigenvalue test runs on each half, and every half passes it.
    # The 20-site ring's window is the whole ring, whose even half fails it.
    # The stacked rows are those that one call per ring size gives, bit for
    # bit.
    def each_size_alone(n_grid, k):
        return [row for n in n_grid
                for row in lattice_size_sweep([n], kappas=(1, 64), k=k).rows]

    calls = eigvalsh_shapes
    table = lattice_size_sweep([20, 200], kappas=(1, 64), k=1e-20)
    assert calls == [(4, 10, 10)] * 2
    assert np.array(table.rows).tobytes() == np.array(each_size_alone([20, 200], 1e-20)).tobytes()
    # E_N of the 20-site ring at kappa = 1 is 34.2192809488736 from mpmath at
    # 60 digits; the kernel stays no farther from it than the direct full
    # product L^T P pp P L did (34.21928060602842).
    assert abs(table.rows[0][2] - 34.2192809488736) <= abs(34.21928060602842 - 34.2192809488736)
    calls.clear()
    table = lattice_size_sweep([40, 200], kappas=(1, 64), k=1e-22)
    assert calls == [(4, 10, 10)] * 4
    assert np.array(table.rows).tobytes() == np.array(each_size_alone([40, 200], 1e-22)).tobytes()
    with pytest.raises(NotPositiveDefiniteError,
                       match="^reduced qq block is not positive definite: eigenvalue"):
        lattice_size_sweep([20, 200], kappas=(1, 64), k=1e-22)


def mpmath_ring_log_negativity(n, k, kappa, group1, group2):
    # E_N of a window of the ring (n, k, kappa) at unit actions, from the
    # cosine sums of its rows and the eigenvalues of L^T P pp P L
    # (qq = L L^T), all at 60 digits.
    with mpmath.workdps(60):
        k, kappa = mpmath.mpf(k), mpmath.mpf(kappa)
        angle = [2 * mpmath.pi * j / n for j in range(n)]
        omega = [mpmath.sqrt(k + 2 * kappa * (1 - mpmath.cos(a))) for a in angle]
        cq = [mpmath.fsum(mpmath.cos(a * d) / w for a, w in zip(angle, omega)) / n
              for d in range(n)]
        cp = [mpmath.fsum(mpmath.cos(a * d) * w for a, w in zip(angle, omega)) / n
              for d in range(n)]
        members = sorted(group1 + group2)
        sign = [-1 if i in group2 else 1 for i in members]
        m = len(members)
        qq = mpmath.matrix(m, m)
        pp = mpmath.matrix(m, m)
        for a, i in enumerate(members):
            for b, j in enumerate(members):
                qq[a, b] = cq[(i - j) % n]
                pp[a, b] = sign[a] * sign[b] * cp[(i - j) % n]
        low = mpmath.cholesky(qq)
        lambdas = mpmath.eigsy(low.T * pp * low, eigvals_only=True)
        return float(-mpmath.fsum(mpmath.log(x, 2) for x in lambdas if x < 1))


@pytest.mark.parametrize("n1, n2, before", [
    (10, 10, 34.21928060602842),    # mirror: two half-size products
    (3, 4, 1.7545840136868118),     # no reflection: the whole window
])
def test_zero_mode_kept_apart_near_the_floor_matches_mpmath(n1, n2, before):
    # At k = 1e-20 the zero mode puts c0 = 1 / (N sqrt k) = 5e8 into every qq
    # entry of the 20-site ring. With c0 kept apart from the other modes'
    # rows, the mirror window's odd half holds no c0 and the 3 | 4 window
    # adds it once to rows that carry their own roundoff only. Neither error
    # may exceed that of the route that kept c0 inside the rows, whose
    # values are ``before``.
    group1, group2 = list(range(n1)), list(range(n1, n1 + n2))
    exact = mpmath_ring_log_negativity(20, "1e-20", 1, group1, group2)
    (row,) = lattice_size_sweep([20], kappas=(1,), k=1e-20, n1=n1, n2=n2).rows
    assert abs(row[2] - exact) <= abs(before - exact)


@pytest.mark.parametrize("n1, before", [
    (1, 1.4063449647706843), (3, 2.0577745866939092),
    (7, 2.5235930098634243), (9, 2.5962450988161683),
])
def test_adjacent_splits_at_the_positive_definite_floor_match_mpmath(n1, before):
    # Adjacent splits of a 20-site block of the 40-site ring at k = 1e-20,
    # where qq carries c0 = 1 / (N sqrt k) = 2.5e8 in every entry. The four
    # splits share one kernel call, so each takes the column update over
    # X0 = L^T pp L; ``before`` is the full product L^T P pp P L of the
    # kernel before the update (1e-7 off: the zero mode's rank-one term,
    # ROADMAP item 2). The update may be no farther from mpmath at 60
    # digits. The rejected update L^T pp L - 2 (X + X^T) read ten times the
    # error of the full product at this floor (README).
    rows = lattice_adjacent_sweep([1, 3, 7, 9], kappas=(1,), n=40, k=1e-20, block=20).rows
    (e_n,) = [row[2] for row in rows if row[0] == n1]
    exact = mpmath_ring_log_negativity(40, "1e-20", 1, list(range(n1)), list(range(n1, 20)))
    assert abs(e_n - exact) <= abs(before - exact)


@pytest.mark.parametrize("command", ["lattice-adjacent", "lattice-d", "lattice-size"])
def test_default_ring_tables_match_the_dense_reference(command, tmp_path, capsys):
    # The reference tables were written by the dense normal-mode route; 1e-9
    # is the benchmark's own gate on them.
    path = tmp_path / "table.csv"
    assert main([command, "--out", str(path)]) == 0, capsys.readouterr().err
    table = read_sweep_csv(path)
    ref = read_sweep_csv(REFERENCE_DIR / f"{command.replace('-', '_')}.csv")
    assert table.columns == ref.columns
    got, want = np.array(table.rows), np.array(ref.rows)
    assert np.array_equal(got[:, :2], want[:, :2])
    assert_allclose(table.column("log_negativity"), ref.column("log_negativity"),
                    rtol=0.0, atol=1e-9)


# --- tables -----------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    table = sweep_two_mode_coupling((0.0, 7.5, 13.0), alphas=(2.0, 64.0))
    path = tmp_path / "sweep.csv"
    table.write_csv(path)
    back = read_sweep_csv(path)
    assert back.columns == table.columns
    assert_allclose(np.array(back.rows), np.array(table.rows), rtol=0.0, atol=0.0)
    assert b"\r" not in path.read_bytes()


def test_json_round_trip(tmp_path):
    table = lattice_disjoint_sweep((0, 5), kappas=(1.0,), n=40, k=0.1,
                                   n1=10, n2=10)
    path = tmp_path / "sweep.json"
    table.write_json(path)
    with open(path, "r", encoding="utf-8") as fh:
        records = json.load(fh)
    assert records == table.to_records()


def test_column_lookup_rejects_unknown_name():
    table = SweepTable(("a", "b"), ((1.0, 2.0),))
    with pytest.raises(ValueError, match="no column 'missing' in the table; its columns are a, b"):
        table.column("missing")


def test_table_refuses_a_repeated_column_name(tmp_path):
    # Its records would keep only the last cell of the name.
    with pytest.raises(ValueError, match="^column 'mu' appears twice in the table$"):
        SweepTable(("alpha_2", "mu", "alpha_64", "mu"), ((2.0, 0.5, 64.0, 0.1),))
    path = tmp_path / "old.csv"
    path.write_text("subsystem,alpha,mu,alpha,mu\n1,2,0.5,64,0.1\n")
    with pytest.raises(ValueError, match="^column 'alpha' appears twice in the table$"):
        read_sweep_csv(path)


def test_reading_empty_csv_raises(tmp_path):
    path = tmp_path / "empty.csv"
    for text in ("", "\n \n\r\n"):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match="empty.csv is empty$"):
            read_sweep_csv(path)


@pytest.mark.parametrize("text, rows", [
    ("a,b\n", ()),
    ("a,b\n1,2\n\n \n3,4e-3\n", ((1.0, 2.0), (3.0, 4e-3))),
    ("a,b\r\n1,2\r\n3,-0.5\r\n", ((1.0, 2.0), (3.0, -0.5))),
    ("a\n7\n-inf", ((7.0,), (-float("inf"),))),
], ids=["header-only", "blank-lines", "crlf", "one-column-no-final-newline"])
def test_read_sweep_csv_layouts(text, rows, tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(text.encode())
    table = read_sweep_csv(path)
    assert table.columns == tuple(text.split("\n")[0].strip().split(","))
    assert table.rows == rows
    assert all(type(v) is float for row in table.rows for v in row)


def test_read_sweep_csv_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b,c\n\n1,2,3\n  \n4,5\n6,7,8,9\n")
    with pytest.raises(ValueError, match="table.csv line 5: 2 cells under a header of 3$"):
        read_sweep_csv(path)


def test_read_sweep_csv_refuses_a_non_numeric_cell(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("a,b\n1,2\n3,x4\n")
    with pytest.raises(ValueError, match="^could not convert string to float: 'x4'$"):
        read_sweep_csv(path)


# --- CFT straight-line fit ---------------------------------------------------------

def synthetic_cft(n1_values, b1, b2, block=100):
    x = np.log((block / np.pi) * np.sin(np.pi * np.asarray(n1_values) / block))
    return (b1 / 4.0) * x + b2


def test_cft_fit_round_trip():
    n1 = np.arange(5, 100, 5)
    fit = fit_adjacent_cft(n1, synthetic_cft(n1, 2.5, 1.0))
    assert_allclose(fit.params["b1"], 2.5, rtol=1e-10)
    assert_allclose(fit.params["b2"], 1.0, rtol=1e-10)
    assert fit.rms_residual < 1e-12


def test_cft_fit_drops_endpoints():
    n1 = np.arange(5, 100, 5)
    e = synthetic_cft(n1, 2.5, 1.0)
    with_ends = fit_adjacent_cft(np.concatenate([[0], n1, [100]]),
                                 np.concatenate([[0.0], e, [0.0]]))
    without = fit_adjacent_cft(n1, e)
    assert with_ends.params == without.params
    assert with_ends.grid == without.grid


@pytest.mark.parametrize("bad", [-1.0, 51.0, np.nan])
def test_cft_fit_refuses_rows_outside_the_block(bad):
    # Rows of a 100-site block fitted as a 50-site block used to drop every
    # n1 > 50 without a word and fit the rest against the wrong abscissa.
    n1 = np.concatenate([np.arange(0, 51), [bad], np.arange(52, 101)])
    e = synthetic_cft(np.clip(n1, 1, 99), 2.5, 1.0)
    with pytest.raises(ValueError, match=f"n1 = {bad:g} outside \\[0, 50\\]"):
        fit_adjacent_cft(n1, e, block=50)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cft_fit_refuses_a_non_finite_log_negativity(bad):
    # A NaN cell used to come out as a NaN fit with no word.
    n1 = np.arange(0, 101)
    e = synthetic_cft(np.clip(n1, 1, 99), 2.5, 1.0)
    e[37] = bad
    with pytest.raises(ValueError, match=f"E_N = {bad:g} at n1 = 37 is not finite"):
        fit_adjacent_cft(n1, e)


def test_cft_fit_refuses_columns_of_different_lengths():
    # This used to end in numpy's bare "boolean index did not match".
    with pytest.raises(ValueError, match="20 n1 values and 19 E_N values"):
        fit_adjacent_cft(np.arange(1, 21), np.ones(19))


def test_cft_fit_needs_ten_interior_points():
    n1 = np.concatenate([[0, 100], np.arange(10, 90, 10)])
    e = np.zeros_like(n1, dtype=float)
    with pytest.raises(ValueError):
        fit_adjacent_cft(n1, e)


def test_cft_fit_rejects_constant_abscissa():
    with pytest.raises(DegenerateDesignError):
        fit_adjacent_cft([50] * 12, [1.0] * 12)


# --- saturation fit ------------------------------------------------------------------

REFERENCE = {"a": 2.458, "b": 2.149, "c": 0.641, "d": 0.875}


def test_kappa_fit_round_trip():
    kappa = np.geomspace(1.0, 64.0, 24)
    e = saturation_curve(kappa, **REFERENCE)
    fit = fit_kappa_asymptote(kappa, e)
    for name, ref in REFERENCE.items():
        assert_allclose(fit.params[name], ref, rtol=1e-6)
    assert fit.rms_residual < 1e-9


def test_kappa_fit_agrees_with_scipy():
    rng = np.random.default_rng(151)
    kappa = np.geomspace(1.0, 64.0, 30)
    e = saturation_curve(kappa, **REFERENCE) + rng.normal(0.0, 1e-4, kappa.size)
    mine = fit_kappa_asymptote(kappa, e)
    p0 = (float(np.max(e)), float(np.max(e) - np.min(e)), 0.5, 1.0)
    popt, _ = curve_fit(saturation_curve, kappa, e, p0=p0, maxfev=20000)
    assert_allclose([mine.params[k] for k in "abcd"], popt, rtol=1e-4)


def test_kappa_fit_constant_data_is_flagged_unidentifiable():
    fit = fit_kappa_asymptote(np.linspace(1.0, 64.0, 8), np.full(8, 3.0))
    assert fit.params["b"] == 0.0
    assert fit.rms_residual == 0.0


def test_kappa_fit_validation():
    with pytest.raises(ValueError):
        fit_kappa_asymptote([1.0, 2.0, 4.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_kappa_asymptote([1.0, 2.0, 4.0, 8.0], [0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_kappa_asymptote([0.0, 2.0, 4.0, 8.0], [0.1, 0.2, 0.3, 0.4])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kappa_fit_refuses_a_non_finite_log_negativity(bad):
    # A NaN cell used to run out the iteration cap and report no convergence.
    kappa = np.geomspace(1.0, 64.0, 12)
    e = saturation_curve(kappa, **REFERENCE)
    e[5] = bad
    named = f"E_N = {bad:g} at kappa = {kappa[5]:g} is not finite"
    with pytest.raises(ValueError, match=named):
        fit_kappa_asymptote(kappa, e)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_kappa_fit_refuses_a_kappa_that_is_not_positive_and_finite(bad):
    kappa = np.geomspace(1.0, 64.0, 12)
    e = saturation_curve(kappa, **REFERENCE)
    kappa[3] = bad
    with pytest.raises(ValueError, match=f"kappa = {bad:g} at point 3"):
        fit_kappa_asymptote(kappa, e)


def test_kappa_fit_iteration_cap_raises(monkeypatch):
    kappa = np.geomspace(1.0, 64.0, 12)
    e = saturation_curve(kappa, **REFERENCE)
    monkeypatch.setattr(experiments, "_MAX_ITER", 0)
    with pytest.raises(NoConvergenceError, match="did not converge in 0 iterations"):
        fit_kappa_asymptote(kappa, e)


def test_default_kappa_grid():
    assert DEFAULT_KAPPAS == (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
