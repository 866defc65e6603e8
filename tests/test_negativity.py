"""Logarithmic negativity: both evaluation routes, oracles, and guards."""

import copy
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from oscent.covariance import (
    Bipartition,
    CovarianceMatrix,
    RingCovariance,
    _mirror_windows,
    _ring_symmetry,
    classical_covariance,
    quantum_ground_covariance,
    reduce_modes,
    ring_windows,
)
from oscent.errors import (
    AsymmetricInputError,
    ComplexEigenvalueError,
    CrossBlockNotZeroError,
    EmptySubsystemError,
    IndexOutOfRangeError,
    InvalidModelError,
    NotPositiveDefiniteError,
    UnstableSystemError,
)
from oscent.linalg import require_symmetric, symplectic_spectrum
from oscent.measures import measure_report, purity_from_determinant, sigma_tilde
from oscent.models import (
    _ring_frequency_rows,
    CircularLattice,
    GeneralizedChain,
    TwoMode,
    TwoModeGeneralized,
    normal_modes,
)
from oscent.negativity import (
    _bits_from_lambdas,
    _stacked_results,
    log_negativity,
    log_negativity_via_symplectic,
    stacked_log_negativities,
)

from chains import random_chain


def random_partition(rng, n):
    cut = int(rng.integers(1, n))
    modes = rng.permutation(n)
    return Bipartition(modes[:cut].tolist(), modes[cut:].tolist())


def brute_force_lambdas(cov, partition):
    # Direct eigenvalues of qq P pp P on the reduced unit blocks, computed
    # with a plain nonsymmetric solver as an independent oracle.
    members = partition.members
    idx = np.concatenate([members, [m + cov.n_modes for m in members]])
    red = cov.matrix[np.ix_(idx, idx)] / cov.action
    m = len(members)
    signs = partition.momentum_signs()
    p = np.diag(signs)
    lam = np.linalg.eigvals(red[:m, :m] @ p @ red[m:, m:] @ p)
    assert np.max(np.abs(lam.imag)) < 1e-10
    return np.sort(lam.real)


def one_state(ring, partitions):
    # The batch over a one-state ring: results[i] for partition i.
    return [per_state[0] for per_state in stacked_log_negativities(ring, partitions)]


def one_partition_lambdas(cov, partition):
    # The kernel's arithmetic for one partition of one dense state.
    red = reduce_modes(cov, partition.members)
    a, m = require_symmetric(red.matrix), red.n_modes
    (lambdas,) = kernel_lambdas(a[:m, :m] / red.action, a[m:, m:] / red.action, [partition])
    return lambdas


def kernel_lambdas(qq_u, pp_u, partitions):
    # The kernel's arithmetic for the partitions of one call on one pair of
    # unit-action blocks, step for step, so the entries can be held to it
    # bit for bit: every pattern takes X0 = L^T B with the first c columns
    # of its own L^T Z written over a copy of it.
    low = np.linalg.cholesky(qq_u)
    b = pp_u @ low                              # shared by every pattern
    x0 = low.T @ b
    out = []
    for partition in partitions:
        flip = partition.momentum_signs()
        flip = flip * flip[-1]                  # the same rows for P and -P
        group = np.flatnonzero(flip < 0.0)
        if not group.size:
            x = x0
        else:
            c = max(group[-1] + 1, 2)           # L[group, c:] is zero
            z = np.ascontiguousarray(pp_u[:, group]) @ np.ascontiguousarray(low[group, :c])
            z *= -2.0
            z += b[:, :c]
            z *= flip[:, np.newaxis]            # z = (T pp_u T L)[:, :c]
            x = x0.copy()
            np.matmul(low.T, z, out=x[:, :c])
        lambdas = np.linalg.eigvalsh(x)         # reads the lower triangle
        out.append(np.maximum(lambdas, np.finfo(float).tiny))
    return out


def ring_kernel_lambdas(ring, partitions):
    # The batch's arithmetic in every state of a ring stack, step for step:
    # result[i][s] for partition i in state s. Only the first partition of
    # each class is solved: a mirror partition on its window's even and odd
    # halves, each a product of one sign, merged in order; the others with
    # the same members in one kernel call on their window, in order.
    analysis = _ring_symmetry(partitions, ring.n_modes)
    first = {}
    for i, (key, _) in enumerate(analysis):
        first.setdefault(key, i)
    solved, calls = {}, {}
    for i in first.values():
        partition, t = partitions[i], analysis[i][1]
        if t is None:
            calls.setdefault(partition.members, []).append(i)
            continue
        qq_even, qq_odd, pp_even, pp_odd = _mirror_windows(ring, partition.group1, t)
        one_sign = [Bipartition(partition.group1)]
        solved[i] = [np.sort(np.concatenate(kernel_lambdas(q_e, p_o, one_sign)
                                            + kernel_lambdas(q_o, p_e, one_sign)))
                     for q_e, q_o, p_e, p_o in zip(qq_even, qq_odd, pp_even, pp_odd)]
    for members, positions in calls.items():
        qq, pp = ring_windows(ring, members)
        per_state = [kernel_lambdas(q, p, [partitions[i] for i in positions])
                     for q, p in zip(qq, pp)]
        for j, i in enumerate(positions):
            solved[i] = [lambdas[j] for lambdas in per_state]
    return [solved[first[key]] for key, _ in analysis]


def test_decoupled_lattice_is_exactly_zero():
    cov = classical_covariance(normal_modes(CircularLattice(N=8, k=0.5, kappa=0.0)),
                               np.ones(8))
    part = Bipartition([0, 1, 2], [4, 5])
    assert log_negativity(cov, part).log_negativity == 0.0
    assert log_negativity_via_symplectic(cov, part).log_negativity == 0.0
    for n in (8, 9, 200):
        model = CircularLattice(N=n, k=0.5, kappa=0.0)
        ring = RingCovariance([model])
        dense = classical_covariance(normal_modes(model), np.ones(n))
        for part in (Bipartition([0, 1, 2], [4, 5]), Bipartition([0, 1], [2, 3]),
                     Bipartition([n - 1], [0, 1])):
            assert stacked_log_negativities(ring, [part])[0][0].log_negativity == 0.0
            assert log_negativity_via_symplectic(dense, part).log_negativity == 0.0


def test_single_group_partition_is_zero():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    result = log_negativity(cov, Bipartition([0, 1], []))
    assert result.log_negativity == 0.0
    assert result.negativity == 0.0


def test_two_mode_pair_against_brute_force():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.ones(2))
    part = Bipartition([0], [1])
    result = log_negativity(cov, part)
    assert result.log_negativity > 0.0
    oracle = brute_force_lambdas(cov, part)
    assert_allclose(result.lambda_tilde, oracle, rtol=1e-10)
    expected = -np.sum(np.log2(oracle[oracle < 1.0 - 1e-12]))
    assert_allclose(result.log_negativity, expected, rtol=1e-10)


def test_routes_agree_on_random_chains():
    rng = np.random.default_rng(131)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        cov = classical_covariance(normal_modes(random_chain(rng, n, y_scale=None)), np.ones(n))
        part = random_partition(rng, n)
        r1 = log_negativity(cov, part)
        r2 = log_negativity_via_symplectic(cov, part)
        assert_allclose(r1.log_negativity, r2.log_negativity,
                        rtol=1e-9, atol=1e-9)
        assert_allclose(r1.lambda_tilde, r2.lambda_tilde, rtol=1e-8, atol=1e-10)


def test_batch_equals_one_partition_at_a_time_bit_for_bit():
    rng = np.random.default_rng(163)
    for _ in range(5):
        n = int(rng.integers(3, 9))
        cov = classical_covariance(normal_modes(random_chain(rng, n, y_scale=None)), np.ones(n))
        # Several sign patterns over the same members, plus other member sets.
        parts = [random_partition(rng, n) for _ in range(4)]
        parts += [Bipartition([0], [n - 1]), Bipartition([1, 2], []),
                  Bipartition([0], [n - 1])]
        for part in parts:
            one = log_negativity(cov, part)
            assert one.lambda_tilde.tobytes() == one_partition_lambdas(cov, part).tobytes()
        # A ring stack: the batch over every state, one solve per symmetry
        # class. Each partition gets the result objects of its class's first
        # partition, bit for bit the batch's own arithmetic.
        ring = RingCovariance([CircularLattice(3 * n, 0.1, kappa) for kappa in (1.0, 8.0)])
        batch = stacked_log_negativities(ring, parts)
        assert len(batch) == len(parts)
        keys = [key for key, _ in _ring_symmetry(parts, 3 * n)]
        for part, key, per_state, want_per_state in zip(parts, keys, batch,
                                                        ring_kernel_lambdas(ring, parts)):
            first = keys.index(key)
            assert per_state is batch[first]
            for got, want in zip(per_state, want_per_state):
                assert got.lambda_tilde.tobytes() == want.tobytes()
                assert got.log_negativity == _bits_from_lambdas(want)
            # A pattern's bits depend on its own operands alone, not on the
            # other patterns of its kernel call, so the class's first
            # partition solved alone gives the batch's bits.
            alone = stacked_log_negativities(ring, [parts[first]])[0]
            for got, one in zip(per_state, alone):
                assert got.lambda_tilde.tobytes() == one.lambda_tilde.tobytes()
            # The partition's own windows are those of its class's first one
            # with the sites permuted, so they differ by roundoff only: a few
            # eps times the condition number of qq, below 1e2 on these rings.
            (own_per_state,) = ring_kernel_lambdas(ring, [part])
            for got, own in zip(per_state, own_per_state):
                assert_allclose(got.lambda_tilde, own, rtol=1e-12)


def test_ring_state_matches_dense_route():
    model = CircularLattice(N=30, k=1e-4, kappa=16.0)
    dense = classical_covariance(normal_modes(model), np.ones(30))
    ring = RingCovariance([model])
    parts = [Bipartition(range(n1), range(n1, 12)) for n1 in (0, 3, 6, 12)]
    parts.append(Bipartition([28, 29, 0], [1, 2, 3, 4]))
    for part, got in zip(parts, one_state(ring, parts)):
        expect = log_negativity(dense, part).log_negativity
        assert abs(got.log_negativity - expect) <= 1e-9
        assert abs(log_negativity_via_symplectic(dense, part).log_negativity
                   - expect) <= 1e-9


@pytest.mark.parametrize("n, k, kappas", [(12, 0.1, (4.0,)),
                                          (31, 1e-3, (0.5, 8.0, 64.0)),
                                          (64, 1e-4, (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))])
def test_stack_equals_each_state_alone_bit_for_bit(n, k, kappas):
    models = [CircularLattice(n, k, kappa) for kappa in kappas]
    stack = RingCovariance(models)
    assert stack.cq.shape == stack.cp.shape == (len(kappas), n)
    parts = [Bipartition(range(n1), range(n1, 8)) for n1 in (0, 3, 8)]
    parts += [Bipartition([n - 2, n - 1, 0], [1, 2, 5]), Bipartition([], [2, 9])]
    stacked = stacked_log_negativities(stack, parts)
    for s, model in enumerate(models):
        alone = RingCovariance([model])
        assert alone.cq.tobytes() == stack.cq[s].tobytes()
        assert alone.cp.tobytes() == stack.cp[s].tobytes()
        for per_state, one in zip(stacked, one_state(alone, parts)):
            got = per_state[s]
            assert got.lambda_tilde.tobytes() == one.lambda_tilde.tobytes()
            assert got.log_negativity == one.log_negativity
            assert got.negativity == one.negativity


def random_mirror_partition(rng, n, t):
    # Up to 12 pairs {i, t - i} (mod n), drawn from the 16 whose two sites
    # lie nearest each other on the ring, none that the reflection fixes;
    # each pair sends a random one of its sites to group 1.
    pairs = sorted({tuple(sorted((i, (t - i) % n))) for i in range(n) if (2 * i - t) % n},
                   key=lambda pair: min((pair[1] - pair[0]) % n, (pair[0] - pair[1]) % n))
    pairs = pairs[:16]
    chosen = rng.choice(len(pairs), size=int(rng.integers(1, min(len(pairs), 12) + 1)),
                        replace=False)
    group1 = [pairs[c][int(rng.integers(2))] for c in chosen]
    return Bipartition(group1, [(t - i) % n for i in group1])


def test_mirror_route_matches_the_dense_symplectic_route():
    # Random rings and mirror partitions about even and odd axes t, against
    # the independent route on the dense normal-mode state, and against the
    # whole-window kernel on the same rows. Tolerance: each of at most 24
    # lambdas carries a relative error of about eps times the condition
    # number sqrt((k + 4 kappa) / k) <= 6.3e3 of qq, so |dE_N| is at most
    # about 24 * 6.3e3 * eps / ln 2 = 4.8e-11; these seeds agree to 5e-14.
    rng = np.random.default_rng(2525)
    tol, entangled = 5e-11, 0
    for case in range(40):
        n = int(rng.integers(3, 301))
        k = 10.0 ** rng.uniform(-6.0, 1.0)
        kappa = 10.0 ** rng.uniform(-1.0, 1.0)
        t = (2 * int(rng.integers(0, (n + 1) // 2)) + case % 2) % n
        part = random_mirror_partition(rng, n, t)
        model = CircularLattice(n, k, kappa)
        ring = RingCovariance([model])
        assert _ring_symmetry([part], n) == [(None, t)]
        ((got,),) = stacked_log_negativities(ring, [part])
        entangled += got.log_negativity > 0.0
        dense = classical_covariance(normal_modes(model), np.ones(n))
        want = log_negativity_via_symplectic(dense, part).log_negativity
        assert abs(got.log_negativity - want) <= tol, (n, t, k, kappa, part)
        ((whole,),) = _stacked_results(*ring_windows(ring, part.members), True, [part])
        assert abs(got.log_negativity - whole.log_negativity) <= tol
        assert_allclose(got.lambda_tilde, whole.lambda_tilde, rtol=1e-9)
    assert entangled >= 30


def dihedral_images(partition, n):
    # (group1, group2) as sets under each of the 2n rotations i -> s + i and
    # reflections i -> s - i of the ring, each also with its groups swapped.
    images = set()
    for s, sign in itertools.product(range(n), (1, -1)):
        g1, g2 = (frozenset((s + sign * i) % n for i in g)
                  for g in (partition.group1, partition.group2))
        images |= {(g1, g2), (g2, g1)}
    return images


def mirror_axes(partition, n):
    # Every t whose reflection i -> t - i maps group1 onto group2.
    return {t for t in range(n)
            if {(t - i) % n for i in partition.group1} == set(partition.group2)}


def test_ring_symmetry_agrees_with_the_whole_dihedral_group():
    # Random rings of up to 40 sites, with random partitions (a group may be
    # empty), mirror partitions about even and odd axes t, and images of
    # earlier partitions under random dihedral maps, perhaps swapped. Class
    # keys are equal exactly when some map takes one partition onto the
    # other, and the axis is one of the partition's mirror axes, or None
    # when it has none. Both are exact integer answers: no tolerance.
    rng = np.random.default_rng(2626)
    related = mirrors = 0
    for case in range(80):
        n = int(rng.integers(3, 41))
        parts = []
        for _ in range(6):
            kind = int(rng.integers(3)) if parts else 0
            if kind == 0:
                sites = rng.choice(n, size=int(rng.integers(1, min(n, 12) + 1)), replace=False)
                cut = int(rng.integers(0, sites.size + 1))
                parts.append(Bipartition(sites[:cut].tolist(), sites[cut:].tolist()))
            elif kind == 1:
                t = (2 * int(rng.integers(0, (n + 1) // 2)) + case % 2) % n
                parts.append(random_mirror_partition(rng, n, t))
            else:
                source = parts[int(rng.integers(len(parts)))]
                s, sign = int(rng.integers(n)), int(rng.choice([1, -1]))
                groups = [[(s + sign * i) % n for i in g]
                          for g in (source.group1, source.group2)]
                parts.append(Bipartition(*groups[::int(rng.choice([1, -1]))]))
        analysis = _ring_symmetry(parts, n)
        for part, (_, t) in zip(parts, analysis):
            axes = mirror_axes(part, n)
            assert (t in axes) if axes else t is None, (n, part, t)
            assert _ring_symmetry([part], n) == [(None, t)]
            mirrors += bool(axes)
        for (a, (key_a, _)), (b, (key_b, _)) in itertools.combinations(
                zip(parts, analysis), 2):
            same = (frozenset(b.group1), frozenset(b.group2)) in dihedral_images(a, n)
            assert (key_a == key_b) == same, (n, a, b)
            related += same
    assert related >= 100 and mirrors >= 100


@st.composite
def ring_bipartitions(draw):
    # A ring of 3 to 16 sites and 2 to 6 bipartitions of it, each with a
    # member: random labels, a mirror partition about a random axis t (each
    # pair {i, t - i} out, or split either way), or the image of an earlier
    # one under a rotation or reflection, its groups perhaps swapped.
    n = draw(st.integers(3, 16))
    parts = []
    for _ in range(draw(st.integers(2, 6))):
        kind = draw(st.sampled_from(["labels", "mirror", "image"] if parts else ["labels"]))
        if kind == "labels":
            labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any))
            groups = [[i for i, label in enumerate(labels) if label == g] for g in (1, 2)]
        elif kind == "mirror":
            t = draw(st.integers(0, n - 1))
            pairs = sorted({tuple(sorted((i, (t - i) % n))) for i in range(n) if (2 * i - t) % n})
            labels = draw(st.lists(st.integers(0, 2), min_size=len(pairs),
                                   max_size=len(pairs)).filter(any))
            groups = [[pair[label - 1] for pair, label in zip(pairs, labels) if label],
                      [pair[2 - label] for pair, label in zip(pairs, labels) if label]]
        else:
            source = draw(st.sampled_from(parts))
            s, sign = draw(st.integers(0, n - 1)), draw(st.sampled_from([1, -1]))
            groups = [[(s + sign * i) % n for i in g] for g in (source.group1, source.group2)]
            groups = groups[::draw(st.sampled_from([1, -1]))]
        parts.append(Bipartition(*groups))
    return n, parts


@settings(max_examples=300)
@given(case=ring_bipartitions())
def test_ring_symmetry_agrees_with_a_brute_force_dihedral_search(case):
    # On rings of up to 16 sites every map can be tried: two bipartitions
    # share a class key exactly when one of the 4n maps (rotation or
    # reflection, groups kept or swapped) takes one onto the other, and the
    # mirror axis is one that maps group1 onto group2, None when there is
    # none. Exact integer answers: no tolerance.
    n, parts = case
    analysis = _ring_symmetry(parts, n)
    for part, (_, t) in zip(parts, analysis):
        axes = mirror_axes(part, n)
        assert (t in axes) if axes else t is None
    for (a, (key_a, _)), (b, (key_b, _)) in itertools.combinations(zip(parts, analysis), 2):
        same = (frozenset(b.group1), frozenset(b.group2)) in dihedral_images(a, n)
        assert (key_a == key_b) == same


def test_classes_are_taken_per_ring_size(eigvalsh_shapes):
    # {0} | {1} and {0} | {19} share a class on 20 sites (19 = -1 mod 20), but
    # not on 200, so a call on both rings solves them apart: each as a
    # mirror partition, two (2, 1, 1) halves apiece, bit for bit as alone.
    rings = [RingCovariance([CircularLattice(n, 0.1, 4.0)]) for n in (20, 200)]
    parts = [Bipartition([0], [1]), Bipartition([0], [19])]
    (key_a, _), (key_b, _) = _ring_symmetry(parts, 20)
    assert key_a == key_b
    (key_a, _), (key_b, _) = _ring_symmetry(parts, 200)
    assert key_a != key_b
    got = stacked_log_negativities(rings, parts)
    assert eigvalsh_shapes == [(2, 1, 1)] * 4
    for part, per_state in zip(parts, got):
        (alone,) = stacked_log_negativities(rings, [part])
        assert [r.lambda_tilde.tobytes() for r in per_state] == \
               [r.lambda_tilde.tobytes() for r in alone]
    # On 20 sites the two are one window up to a permutation: equal to
    # roundoff, a few eps on a 2-site window. On 200 the sites 19 apart are
    # not entangled at all, unlike the neighbours.
    assert abs(got[0][0].log_negativity - got[1][0].log_negativity) <= 1e-14
    assert got[0][1].log_negativity > 0.0 == got[1][1].log_negativity


@pytest.mark.parametrize("group1, group2, t", [
    ([198, 199], [0, 1], 199),      # the pair reflected across the seam
    ([199, 0], [1, 2], 1),          # a group that wraps around site 0
    ([198, 199], [0, 2], None),     # no reflection: the whole window
])
def test_windows_across_the_seam_agree_whichever_route_they_take(group1, group2, t):
    model = CircularLattice(200, 1e-4, 4.0)
    ring = RingCovariance([model])
    dense = classical_covariance(normal_modes(model), np.ones(200))
    part = Bipartition(group1, group2)
    assert _ring_symmetry([part], 200) == [(None, t)]
    ((got,),) = stacked_log_negativities(ring, [part])
    want = log_negativity_via_symplectic(dense, part).log_negativity
    assert got.log_negativity > 0.0
    assert abs(got.log_negativity - want) <= 5e-11    # as in the random cases above
    ((whole,),) = _stacked_results(*ring_windows(ring, part.members), True, [part])
    assert abs(got.log_negativity - whole.log_negativity) <= 5e-11


def test_stack_checks_every_state():
    # A ring is checked when it is built; a stack built lazily meets each
    # bad ring at its turn, as one ring alone meets it.
    good = CircularLattice(10, 0.1, 1.0)
    with pytest.raises(InvalidModelError) as alone:
        CircularLattice(10, 0.1, -1.0)
    with pytest.raises(InvalidModelError, match=f"^{re.escape(str(alone.value))}$"):
        RingCovariance(CircularLattice(10, 0.1, kappa) for kappa in (1.0, -1.0, 1.0))
    bad = CircularLattice(10, 0.0, 1.0)
    with pytest.raises(UnstableSystemError) as alone:
        _ring_frequency_rows([bad])
    with pytest.raises(UnstableSystemError, match=f"^{re.escape(str(alone.value))}$"):
        RingCovariance([good, bad, good])
    stack = RingCovariance([good, good])
    dense = classical_covariance(normal_modes(good), np.ones(10))
    for indices, error in (([], EmptySubsystemError), ([10], IndexOutOfRangeError),
                           ([-1, 3], IndexOutOfRangeError)):
        with pytest.raises(error) as refused:
            reduce_modes(dense, indices)
        with pytest.raises(error, match=f"^{re.escape(str(refused.value))}$"):
            ring_windows(stack, indices)
    # The second state's window is the whole ring at k = 1e-22: its qq has
    # eigenvalue ratio below POSDEF_RTOL, so the stack is not certified and
    # the kernel's eigenvalue test refuses it. The window is a mirror one,
    # tested half by half: the even half holds the zero mode's 1 / omega_0 =
    # 1e11 and, as its smallest, 1 / omega_9 = 6.3279e-02 (omega_10 is odd),
    # read here to within the roundoff of entries of 1e10.
    near_singular = RingCovariance([CircularLattice(20, 0.1, 64.0),
                                    CircularLattice(20, 1e-22, 64.0)])
    assert not near_singular._certified
    with pytest.raises(NotPositiveDefiniteError,
                       match=r"eigenvalue 6.328067e-02 is not above 1e-12 \* largest "
                             r"eigenvalue 1.000000e\+11 = 1.000000e-01$"):
        stacked_log_negativities(near_singular, [Bipartition(range(10), range(10, 20))])
    # log_negativity takes a dense state, not a ring stack.
    with pytest.raises(TypeError, match="takes a CovarianceMatrix"):
        log_negativity(stack, Bipartition([0], [1]))


def test_rings_of_different_sizes_cannot_share_a_stack():
    with pytest.raises(ValueError, match="N = 10 and N = 12"):
        RingCovariance([CircularLattice(10, 0.1, 1.0), CircularLattice(12, 0.1, 1.0)])


def test_a_ring_stack_of_no_models_is_refused_by_name():
    # It used to end in numpy's "need at least one array to stack".
    for models in ([], iter(())):
        with pytest.raises(ValueError, match="^rings of one size need one or more "
                                             "models: the model list is empty$"):
            RingCovariance(models)


def test_dense_entries_refuse_a_ring_stack_by_type():
    # They used to end in AttributeError: 'RingCovariance' object has no
    # attribute 'matrix'.
    ring = RingCovariance([CircularLattice(10, 0.1, 1.0)])
    part = Bipartition((0,), (1,))
    for name, call in (("reduce_modes", lambda: reduce_modes(ring, [0, 1])),
                       ("sigma_tilde", lambda: measure_report(ring)),
                       ("sigma_tilde", lambda: sigma_tilde(ring)),
                       ("purity_from_determinant", lambda: purity_from_determinant(ring)),
                       ("reduce_modes", lambda: log_negativity_via_symplectic(ring, part))):
        with pytest.raises(TypeError, match=f"^{name} takes a CovarianceMatrix, got "
                                            "RingCovariance; .* with ring_windows, or take "
                                            "their negativity with stacked_log_negativities$"):
            call()


def test_log_negativity_refuses_a_stack_before_any_solve(eigvalsh_shapes):
    # It used to factor and solve every state first and only then refuse,
    # so a stack whose second window the kernel refuses raised that instead.
    # Every ring form, one state included, is now refused by type.
    good = CircularLattice(20, 0.1, 64.0)
    part = Bipartition(range(10), range(10, 20))
    for stack, name in ((RingCovariance([good]), "RingCovariance"),
                        (RingCovariance([good, good]), "RingCovariance"),
                        ([RingCovariance([good]), RingCovariance([good])], "list"),
                        (RingCovariance([good, CircularLattice(20, 1e-22, 64.0)]),
                         "RingCovariance")):
        with pytest.raises(TypeError, match=f"^reduce_modes takes a CovarianceMatrix, "
                                            f"got {name}; .* stacked_log_negativities$"):
            log_negativity(stack, part)
    assert eigvalsh_shapes == []
    stacked_log_negativities(RingCovariance([good]), [part])   # a mirror partition
    assert eigvalsh_shapes == [(1, 10, 10)] * 2


def test_stacked_entry_names_the_first_bad_partition_on_the_first_ring_it_misses(
        eigvalsh_shapes):
    # Partitions in order, and each on the rings in order: site 100 misses
    # only the 20-site ring, site 300 both, and -1 the first.
    rings = [RingCovariance([CircularLattice(n, 0.1, 1.0)]) for n in (200, 20)]
    good = Bipartition([0], [1])
    for bad, error, message in (
            ([[0], [100]], IndexOutOfRangeError, "oscillator index 100 outside [0, 20)"),
            ([[0], [300]], IndexOutOfRangeError, "oscillator index 300 outside [0, 200)"),
            ([[-1], [1]], IndexOutOfRangeError, "oscillator index -1 outside [0, 200)"),
            ([[], []], EmptySubsystemError, "subsystem selection is empty")):
        parts = [good, Bipartition(*bad), Bipartition([0], [300]), good]
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            stacked_log_negativities(rings, parts)
    assert eigvalsh_shapes == []


def test_stacked_entry_refuses_anything_but_ring_stacks_before_any_solve(eigvalsh_shapes):
    ring = RingCovariance([CircularLattice(9, 0.1, 1.0)])
    dense = classical_covariance(normal_modes(CircularLattice(9, 0.1, 1.0)), np.ones(9))
    parts = [Bipartition([0, 1], [2, 3])]
    for rings, name in ((dense, "CovarianceMatrix"), ([], "list"), ((), "tuple"),
                        ([ring, dense], "list"), ((dense,), "tuple"),
                        (iter([ring]), "list_iterator")):
        with pytest.raises(TypeError, match="^stacked_log_negativities takes a RingCovariance "
                                            "or a non-empty list or tuple of them, "
                                            f"got {name}; use log_negativity for a "
                                            "CovarianceMatrix$"):
            stacked_log_negativities(rings, parts)
    assert eigvalsh_shapes == []
    # A tuple is one stack in order, as a list is.
    for got, want in zip(stacked_log_negativities((ring, ring), parts)[0],
                         2 * stacked_log_negativities([ring], parts)[0]):
        assert got.lambda_tilde.tobytes() == want.lambda_tilde.tobytes()


def test_ring_windows_refuses_a_dense_state_by_type():
    # It used to end in AttributeError: 'CovarianceMatrix' object has no
    # attribute 'cq'.
    dense = classical_covariance(normal_modes(CircularLattice(10, 0.1, 1.0)), np.ones(10))
    with pytest.raises(TypeError, match="^ring_windows takes a RingCovariance, got "
                                        "CovarianceMatrix; reduce a CovarianceMatrix "
                                        "with reduce_modes$"):
        ring_windows(dense, [0, 1])


def uncertified(ring):
    # The same rows with the certificate off: every check runs.
    twin = copy.copy(ring)
    object.__setattr__(twin, "_certified", False)
    return twin


def test_certified_ring_stacks_skip_only_the_eigenvalue_test(eigvalsh_shapes):
    stack = RingCovariance([CircularLattice(16, 0.1, kappa) for kappa in (1.0, 8.0)])
    assert stack._certified
    # 3 | 3 is a mirror partition, solved half by half.
    parts = [Bipartition(range(n1), range(n1, 6)) for n1 in (1, 2, 3)]
    shapes = eigvalsh_shapes
    got = stacked_log_negativities(stack, parts)
    assert shapes == [(2, 3, 3)] * 2 + [(2, 6, 6)] * 2   # one product solve per half or partition
    shapes.clear()
    want = stacked_log_negativities(uncertified(stack), parts)
    assert shapes == [(2, 3, 3)] * 4 + [(2, 6, 6)] * 3   # the eigenvalue test before each factor
    for got_p, want_p in zip(got, want):
        for g, w in zip(got_p, want_p):
            assert g.lambda_tilde.tobytes() == w.lambda_tilde.tobytes()
            assert g.log_negativity == w.log_negativity
    # The dense state of the same ring is certified and skips the test too; a
    # hand-built CovarianceMatrix of the same entries, and symplectic_spectrum
    # of a bare array, keep it.
    dense = classical_covariance(normal_modes(CircularLattice(16, 0.1, 1.0)), np.ones(16))
    assert dense._certified
    shapes.clear()
    skipped = log_negativity(dense, parts[0])
    assert shapes == [(1, 6, 6)]
    hand_built = CovarianceMatrix(dense.matrix)
    assert not hand_built._certified
    shapes.clear()
    tested = log_negativity(hand_built, parts[0])
    assert shapes == [(1, 6, 6)] * 2
    assert skipped.lambda_tilde.tobytes() == tested.lambda_tilde.tobytes()
    shapes.clear()
    symplectic_spectrum(dense.matrix)
    assert shapes == [(16, 16)] * 2


def test_sequence_of_ring_stacks_is_one_stack_in_order(eigvalsh_shapes):
    small = RingCovariance([CircularLattice(9, 0.1, kappa) for kappa in (1.0, 4.0)])
    large = RingCovariance([CircularLattice(23, 0.05, kappa) for kappa in (2.0, 8.0, 32.0)])
    # The second partition is a mirror one on both rings (i -> 3 - i).
    parts = [Bipartition([0, 1], [2, 3, 4]), Bipartition([0, 2], [1, 3])]
    shapes = eigvalsh_shapes
    got = stacked_log_negativities((small, large), parts)
    assert shapes == [(5, 5, 5), (5, 2, 2), (5, 2, 2)]
    want = [a + b for a, b in zip(stacked_log_negativities(small, parts),
                                  stacked_log_negativities(large, parts))]
    for got_p, want_p in zip(got, want):
        assert len(got_p) == 5
        for g, w in zip(got_p, want_p):
            assert g.lambda_tilde.tobytes() == w.lambda_tilde.tobytes()
    # One uncertified stack (at k = 1e-22 the kappa = 32 ring falls below
    # the margin) puts the whole sequence through the test.
    low = RingCovariance([CircularLattice(23, 1e-22, kappa) for kappa in (2.0, 8.0, 32.0)])
    assert not low._certified
    shapes.clear()
    stacked_log_negativities([small, low], parts[:1])
    assert shapes == [(5, 5, 5)] * 2
    with pytest.raises(TypeError, match="non-empty list or tuple"):
        stacked_log_negativities([], parts)
    dense = classical_covariance(normal_modes(CircularLattice(9, 0.1, 1.0)), np.ones(9))
    with pytest.raises(TypeError, match="use log_negativity for a CovarianceMatrix"):
        stacked_log_negativities([small, dense], parts)


def test_nearly_singular_qq_is_refused_like_the_spectrum_route():
    # Reduced qq with eigenvalue ratio 1e-13, below the relative floor that
    # symplectic_spectrum applies to the same block.
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    qq = rot @ np.diag([1.0, 1e-13]) @ rot.T
    qq = 0.5 * (qq + qq.T)
    cov = CovarianceMatrix(np.block([[qq, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]))
    with pytest.raises(NotPositiveDefiniteError, match="qq block"):
        symplectic_spectrum(cov.matrix)
    with pytest.raises(NotPositiveDefiniteError, match="qq block"):
        log_negativity(cov, Bipartition([0], [1]))


def test_ill_conditioned_refusal_names_both_eigenvalues_and_the_bound():
    # A positive-definite block with eigenvalue ratio 1e-13: the message
    # used to name only the smallest eigenvalue, which reads as no reason.
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    qq = rot @ np.diag([1.0, 1e-13]) @ rot.T
    qq = 0.5 * (qq + qq.T)
    low, high = np.linalg.eigvalsh(qq)
    assert low > 0.0
    cov = CovarianceMatrix(np.block([[qq, np.zeros((2, 2))], [np.zeros((2, 2)), np.eye(2)]]))
    want = (f"reduced qq block is not positive definite: eigenvalue {low:.6e} is not "
            f"above 1e-12 * largest eigenvalue {high:.6e} = {1e-12 * high:.6e}")
    with pytest.raises(NotPositiveDefiniteError, match=f"^{re.escape(want)}$"):
        log_negativity(cov, Bipartition([0], [1]))


def test_lambdas_sorted_ascending_both_routes():
    rng = np.random.default_rng(137)
    cov = classical_covariance(normal_modes(random_chain(rng, 6, y_scale=None)), np.ones(6))
    part = Bipartition([0, 2, 4], [1, 5])
    for result in (log_negativity(cov, part),
                   log_negativity_via_symplectic(cov, part)):
        assert np.all(np.diff(result.lambda_tilde) >= 0.0)
        assert result.lambda_tilde.shape == (5,)


RING = CircularLattice(16, 0.1, 4.0)


def pure_state_cuts():
    # Whole-system cuts of pure states: a subsystem against its complement.
    chain = random_chain(np.random.default_rng(211), 12)
    return {
        "two-mode": (classical_covariance(normal_modes(TwoMode(5.0, 20.0, 15.0)), np.ones(2)),
                     [0], [1]),
        "generalized": (classical_covariance(normal_modes(TwoModeGeneralized(
            X1=2.0, X2=3.0, Y1=0.3, Y2=-0.5, Z=1.0)), np.ones(2)), [0], [1]),
        "qp-chain": (classical_covariance(normal_modes(chain), np.ones(12)),
                     [0, 2, 5, 7, 8], [1, 3, 4, 6, 9, 10, 11]),
        "ring": (classical_covariance(normal_modes(RING), np.ones(16)), range(6), range(6, 16)),
    }


@pytest.mark.parametrize("case", ["two-mode", "generalized", "qp-chain", "ring"])
def test_pure_state_cut_pins_the_doubled_convention(case):
    # E_N = -sum log2 lambda with lambda = (2 nu~)**2, twice the usual
    # -sum log2(2 nu~); on a pure state that is 2 sum log2(2s + sqrt(4s^2 - 1))
    # over the widths s of either side.
    cov, group1, group2 = pure_state_cuts()[case]
    sigma = sigma_tilde(reduce_modes(cov, group1))
    want = 2.0 * float(np.sum(np.log2(2.0 * sigma + np.sqrt(4.0 * sigma**2 - 1.0))))
    assert want > 0.4
    part = Bipartition(group1, group2)
    for route in (log_negativity, log_negativity_via_symplectic):
        assert_allclose(route(cov, part).log_negativity, want, rtol=1e-10)
    if case == "ring":   # and from the ring's rows
        ((ring,),) = stacked_log_negativities(RingCovariance([RING]), [part])
        assert_allclose(ring.log_negativity, want, rtol=1e-10)


def test_swapping_groups_changes_nothing():
    rng = np.random.default_rng(139)
    cov = classical_covariance(normal_modes(random_chain(rng, 5, y_scale=None)), np.ones(5))
    a = log_negativity(cov, Bipartition([0, 1], [3, 4]))
    b = log_negativity(cov, Bipartition([3, 4], [0, 1]))
    assert a.log_negativity == b.log_negativity
    assert_array_equal(a.lambda_tilde, b.lambda_tilde)


def test_quantum_ground_state_gives_same_negativity():
    model = TwoMode(A=5.0, B=20.0, C=10.0)
    part = Bipartition([0], [1])
    classical = classical_covariance(normal_modes(model), np.full(2, 0.35))
    quantum = quantum_ground_covariance(normal_modes(model), hbar=0.7)
    assert_allclose(log_negativity(classical, part).log_negativity,
                    log_negativity(quantum, part).log_negativity, rtol=1e-10)


def test_negativity_grows_with_coupling():
    values = []
    for c in (2.0, 5.0, 10.0, 15.0, 19.0):
        cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=c)),
                                   np.ones(2))
        values.append(log_negativity(cov, Bipartition([0], [1])).log_negativity)
    assert np.all(np.diff(values) > 0.0)


def test_shear_cross_block_accepted_other_cross_block_refused():
    # A model's cross block is a local shear: both routes take it and agree
    # with the chain that has the same normal modes and no q-p coupling.
    chain = GeneralizedChain(K=np.array([[2.0, 0.5], [0.5, 2.0]]),
                             Y=np.array([0.4, 0.4]))
    free = GeneralizedChain(K=np.array([[2.0 - 0.16, 0.5], [0.5, 2.0 - 0.16]]),
                            Y=np.zeros(2))
    cov = classical_covariance(normal_modes(chain), np.ones(2))
    oracle = classical_covariance(normal_modes(free), np.ones(2))
    part = Bipartition([0], [1])
    want = log_negativity(oracle, part).log_negativity
    assert want > 0.0
    assert_allclose(log_negativity(cov, part).log_negativity, want, rtol=1e-12)
    assert_allclose(log_negativity_via_symplectic(cov, part).log_negativity, want,
                    rtol=1e-10)
    # Any other cross block: the product route refuses it, and the
    # symplectic route, which undoes no shear, still evaluates it.
    rng = np.random.default_rng(181)
    a = rng.normal(size=(4, 4))
    spd = CovarianceMatrix(a @ a.T + 4.0 * np.eye(4), action=1.0)
    with pytest.raises(CrossBlockNotZeroError):
        log_negativity(spd, part)
    assert np.isfinite(log_negativity_via_symplectic(spd, part).log_negativity)


def test_off_axis_eigenvalues_raise_on_symplectic_route():
    # pp indefinite makes J^-1 C_pt acquire real eigenvalues.
    adversarial = CovarianceMatrix(np.diag([1.0, 1.0, -1.0, 1.0]), action=1.0)
    with pytest.raises(ComplexEigenvalueError):
        log_negativity_via_symplectic(adversarial, Bipartition([0], [1]))


def test_indefinite_position_block_raises_on_product_route():
    bad = CovarianceMatrix(np.diag([-1.0, 1.0, 1.0, 1.0]), action=1.0)
    with pytest.raises(NotPositiveDefiniteError):
        log_negativity(bad, Bipartition([0], [1]))


def test_product_route_refuses_asymmetric_or_non_finite_covariance():
    # The kernel reads one triangle of qq, and a NaN in pp would read as
    # E_N = 0; the reduction is checked first, so neither reaches it.
    part = Bipartition([0], [1])
    for i, j, value in ((0, 1, 0.5), (2, 3, np.nan), (3, 3, np.inf)):
        matrix = np.eye(4)
        matrix[i, j] = value
        with pytest.raises(AsymmetricInputError):
            log_negativity(CovarianceMatrix(matrix), part)


def test_nonuniform_actions_rejected():
    cov = classical_covariance(normal_modes(TwoMode(A=5.0, B=20.0, C=10.0)),
                               np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        log_negativity(cov, Bipartition([0], [1]))


def test_negativity_matches_log_negativity():
    rng = np.random.default_rng(149)
    cov = classical_covariance(normal_modes(random_chain(rng, 4, y_scale=None)), np.ones(4))
    result = log_negativity(cov, Bipartition([0, 1], [2, 3]))
    assert_allclose(result.negativity,
                    0.5 * (2.0**result.log_negativity - 1.0), rtol=1e-15)


def test_partition_on_subset_of_lattice():
    # Groups that do not cover the system: reduction happens first.
    cov = classical_covariance(normal_modes(CircularLattice(N=12, k=0.1, kappa=2.0)),
                               np.ones(12))
    part = Bipartition([0, 1], [6, 7])
    r1 = log_negativity(cov, part)
    r2 = log_negativity_via_symplectic(cov, part)
    assert_allclose(r1.log_negativity, r2.log_negativity, rtol=1e-9, atol=1e-12)
    assert r1.lambda_tilde.shape == (4,)
