"""Physics invariants that need no reference values: the k/kappa scaling of
ring negativity and its invariance under the ring's symmetries,
monotonicity of E_N under dropping a site, subadditivity, Araki-Lieb and
strong subadditivity of the von Neumann entropy, and strong subadditivity
of the Renyi-2 entropy.

Each relation holds exactly for exact states. The tolerances below bound
the roundoff of the two sides from the arithmetic that computes them; they
are worked out per example, from the blocks the kernel is handed.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oscent.covariance import (
    Bipartition,
    RingCovariance,
    classical_covariance,
    reduce_modes,
    ring_windows,
)
from oscent.measures import purity_from_determinant, sigma_tilde, von_neumann_entropy
from oscent.models import CircularLattice, GeneralizedChain, normal_modes
from oscent.negativity import (
    UNIT_GUARD,
    log_negativity,
    log_negativity_via_symplectic,
    stacked_log_negativities,
)

EPS = np.finfo(float).eps


def eigenvalue_error(qq, pp, terms):
    # The kernel factors qq = L L^T and solves L^T P pp P L. The factor, the
    # two products and the symmetric eigensolver each perturb the matrix by
    # about (length of their sums) * eps * ||qq|| ||pp|| (Higham, Accuracy
    # and Stability of Numerical Algorithms, 2002, chs. 3 and 10), and the
    # eigenvalues move by no more (Weyl). ``terms`` is the longest sum in
    # the arithmetic; the factor 4 counts the four steps.
    return 4.0 * terms * EPS * np.linalg.norm(qq, 2) * np.linalg.norm(pp, 2)


def bits_error(lam, delta):
    # E_N = -sum log2 lambda_j over the lambda_j below 1 - UNIT_GUARD. Each
    # lambda_j within delta of its exact value moves E_N by at most
    # delta / ((lambda_j - delta) ln 2), and a lambda_j within delta of the
    # guard may add or drop its -log2(1 - UNIT_GUARD) bits.
    small = lam[lam < 1.0]
    assert np.all(small > 2.0 * delta)   # the first-order bound's premise
    near_guard = np.count_nonzero(np.abs(lam - (1.0 - UNIT_GUARD)) <= delta)
    return (delta / math.log(2.0) * float(np.sum(1.0 / (small - delta)))
            - near_guard * math.log2(1.0 - UNIT_GUARD))


@st.composite
def scaled_rings(draw):
    # A ring of 6 to 60 sites, a scale s in 2^[-8, 8], and a bipartition
    # of 2 to n of its sites in random order.
    n = draw(st.integers(6, 60))
    k = 10.0 ** draw(st.floats(-4.0, 1.0))
    kappa = 10.0 ** draw(st.floats(-2.0, 2.0))
    s = 2.0 ** draw(st.floats(-8.0, 8.0))
    sites = draw(st.permutations(range(n)))
    size = draw(st.integers(2, n))
    cut = draw(st.integers(1, size - 1))
    return n, k, kappa, s, Bipartition(sites[:cut], sites[cut:size])


@settings(max_examples=100)
@given(case=scaled_rings())
def test_ring_negativity_depends_on_k_and_kappa_only_through_their_ratio(case):
    # omega_j = sqrt(s) omega~_j(k/kappa), so qq scales by 1/sqrt(s), pp by
    # sqrt(s), and qq P pp P not at all. The rows come from an inverse FFT,
    # whose error is about log2(N) eps of the rows' size, so the sums are
    # m + log2(N) long.
    n, k, kappa, s, part = case
    ring = RingCovariance([CircularLattice(n, k, kappa), CircularLattice(n, s * k, s * kappa)])
    (plain, scaled), = stacked_log_negativities(ring, [part])
    qq, pp = ring_windows(ring, part.members)
    terms = len(part.members) + math.log2(n)
    tol = sum(bits_error(result.lambda_tilde, eigenvalue_error(qq[i], pp[i], terms))
              for i, result in enumerate((plain, scaled)))
    assert abs(scaled.log_negativity - plain.log_negativity) <= tol


@st.composite
def chains(draw):
    # A 3- to 8-site GeneralizedChain built as perfbench's make_chain builds
    # one: off-diagonal K in [-1, 1], Y in [-0.5, 0.5], and a diagonal that
    # makes every row of M = K - Y^2 diagonally dominant with margin 1, so
    # M >= 1 by Gershgorin. Then the sites in random order.
    n = draw(st.integers(3, 8))
    upper = draw(st.lists(st.floats(-1.0, 1.0), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    y = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    k = np.zeros((n, n))
    k[np.triu_indices(n, 1)] = upper
    k += k.T
    k[np.diag_indices(n)] = np.sum(np.abs(k), axis=1) + 1.0 + y**2
    state = classical_covariance(normal_modes(GeneralizedChain(K=k, Y=y)), np.ones(n))
    return state, draw(st.permutations(range(n)))


@settings(max_examples=100)
@given(case=chains(), data=st.data())
def test_dropping_a_site_of_b_never_raises_the_negativity(case, data):
    # E_N is an entanglement monotone (Vidal & Werner, PRA 65, 032314,
    # 2002), and a partial trace over part of B is a local operation. The
    # state comes from an n x n eigensolve and sums of n terms, so n bounds
    # the length of every sum.
    state, sites = case
    n = len(sites)
    size_a = data.draw(st.integers(1, n - 2), label="|A|")
    size_b = data.draw(st.integers(2, n - size_a), label="|B|")
    a, b = sites[:size_a], sites[size_a:size_a + size_b]
    dropped = data.draw(st.sampled_from(b), label="dropped")
    tol = 0.0
    values = []
    for group2 in (b, [j for j in b if j != dropped]):
        part = Bipartition(a, group2)
        result = log_negativity(state, part)
        red = reduce_modes(state, part.members)
        # ||pp - Y qq Y|| <= ||pp||: the kernel's pp is the unsheared block.
        tol += bits_error(result.lambda_tilde, eigenvalue_error(red.qq, red.pp, n))
        values.append(result.log_negativity)
    whole, smaller = values
    assert smaller <= whole + tol


def entropy_error(red, n):
    # sigma^2 = nu^2 / 4 at unit action, and each nu^2 is an eigenvalue of
    # L^T pp L, off by at most delta = eigenvalue_error(qq, pp, n); since
    # sigma >= 1/2, sigma is off by at most delta / 4. The entropy of one
    # width, f(d) = (1 + d) ln(1 + d) - d ln d with d = sigma - 1/2, is
    # concave with f(0) = 0, so a width off by e moves it by at most f(e).
    e = eigenvalue_error(red.qq, red.pp, n) / 4.0
    return red.n_modes * ((1.0 + e) * math.log1p(e) - e * math.log(e))


@settings(max_examples=100)
@given(case=chains(), data=st.data())
def test_von_neumann_entropy_is_strongly_subadditive(case, data):
    # S(AB) + S(BC) >= S(B) + S(ABC) for disjoint A, B and C (Lieb &
    # Ruskai, J. Math. Phys. 14, 1938, 1973).
    state, sites = case
    n = len(sites)
    size_a = data.draw(st.integers(1, n - 2), label="|A|")
    size_b = data.draw(st.integers(1, n - size_a - 1), label="|B|")
    size_c = data.draw(st.integers(1, n - size_a - size_b), label="|C|")
    a = sites[:size_a]
    b = sites[size_a:size_a + size_b]
    c = sites[size_a + size_b:size_a + size_b + size_c]
    reductions = [reduce_modes(state, indices) for indices in (a + b, b + c, b, a + b + c)]
    ab, bc, b_only, abc = (von_neumann_entropy(sigma_tilde(red)) for red in reductions)
    tol = sum(entropy_error(red, n) for red in reductions)
    assert ab + bc >= b_only + abc - tol


@settings(max_examples=100)
@given(case=chains(), data=st.data())
def test_von_neumann_entropy_is_subadditive_and_obeys_araki_lieb(case, data):
    # |S(A) - S(B)| <= S(AB) <= S(A) + S(B) for disjoint A and B (Araki &
    # Lieb, Commun. Math. Phys. 18, 160, 1970).
    state, sites = case
    n = len(sites)
    size_a = data.draw(st.integers(1, n - 1), label="|A|")
    size_b = data.draw(st.integers(1, n - size_a), label="|B|")
    a, b = sites[:size_a], sites[size_a:size_a + size_b]
    reductions = [reduce_modes(state, indices) for indices in (a, b, a + b)]
    s_a, s_b, s_ab = (von_neumann_entropy(sigma_tilde(red)) for red in reductions)
    tol = sum(entropy_error(red, n) for red in reductions)
    assert s_ab <= s_a + s_b + tol
    assert abs(s_a - s_b) <= s_ab + tol


def renyi2_error(red, n):
    # S_2 = -ln purity = ln det(cov) / 2 at unit action. The state's entries
    # carry about n eps ||cov|| from its eigensolve and sums of n terms, and
    # slogdet's LU factor is exact for cov + E with ||E|| about d eps ||cov||
    # more (Higham, ch. 9; no growth on a positive-definite matrix), d the
    # dimension; the factor 4 covers the norms' ratios, as above. ln det
    # moves by tr(cov^-1 E) <= d ||E|| / w_min to first order, and by at most
    # twice that while ||E|| <= w_min / 2.
    w = np.linalg.eigvalsh(red.matrix)
    d = w.size
    norm_e = 4.0 * (n + d) * EPS * w[-1]
    assert norm_e <= 0.5 * w[0]
    return 0.5 * 2.0 * d * norm_e / w[0]


@settings(max_examples=100)
@given(case=chains(), data=st.data())
def test_renyi2_entropy_is_strongly_subadditive(case, data):
    # ln det is strongly subadditive over principal submatrices of a
    # positive-definite matrix, so the Renyi-2 entropy of a Gaussian state
    # is (Adesso, Girolami & Serafini, PRL 109, 190502, 2012): S2(AB) +
    # S2(BC) >= S2(B) + S2(ABC), and with B empty I2(A:C) >= 0. Taken from
    # the determinant, independently of the negativity kernel.
    state, sites = case
    n = len(sites)
    size_a = data.draw(st.integers(1, n - 2), label="|A|")
    size_b = data.draw(st.integers(1, n - size_a - 1), label="|B|")
    size_c = data.draw(st.integers(1, n - size_a - size_b), label="|C|")
    a = sites[:size_a]
    b = sites[size_a:size_a + size_b]
    c = sites[size_a + size_b:size_a + size_b + size_c]
    groups = (a + b, b + c, b, a + b + c, a, c, a + c)
    reductions = [reduce_modes(state, indices) for indices in groups]
    ab, bc, b_only, abc, a_only, c_only, ac = (
        -math.log(purity_from_determinant(red)) for red in reductions)
    errors = [renyi2_error(red, n) for red in reductions]
    assert ab + bc >= b_only + abc - sum(errors[:4])
    assert a_only + c_only >= ac - sum(errors[4:])


@st.composite
def ring_symmetries(draw):
    # A ring of 6 to 40 sites, a bipartition of 2 to n of its sites in
    # random order, and one rotation r and reflection s of the ring, which
    # sends site j to r + s j mod n.
    n = draw(st.integers(6, 40))
    k = 10.0 ** draw(st.floats(-4.0, 1.0))
    kappa = 10.0 ** draw(st.floats(-2.0, 2.0))
    sites = draw(st.permutations(range(n)))
    size = draw(st.integers(2, n))
    cut = draw(st.integers(1, size - 1))
    r = draw(st.integers(0, n - 1))
    s = draw(st.sampled_from((1, -1)))
    return CircularLattice(n, k, kappa), sites[:cut], sites[cut:size], r, s


def dense_bits_error(result, red, n):
    # The dense route sums -log2 over the 2m moduli of the eigenvalues of
    # J^-1 P cov P below 1 - UNIT_GUARD, each modulus mu_j = sqrt(lambda_j)
    # twice. With cov = L L^T that matrix is similar to the skew-symmetric
    # L^T J^-1 L, so (Bauer-Fike) a backward error E moves each modulus by
    # at most sqrt(cond(cov)) ||E||; P is orthogonal and keeps cond(cov). E
    # holds the state's n eps ||cov|| and the eigensolver's 2m eps ||cov||
    # (Golub & Van Loan, 7.5.6), times 4 as above.
    w = np.linalg.eigvalsh(red.matrix)
    delta = math.sqrt(w[-1] / w[0]) * 4.0 * (n + w.size) * EPS * w[-1]
    return 2.0 * bits_error(np.sqrt(result.lambda_tilde), delta)


@settings(max_examples=100)
@given(case=ring_symmetries())
def test_ring_negativity_is_invariant_under_the_rings_symmetries(case):
    # Rotating or reflecting a ring bipartition, or swapping its groups,
    # keeps E_N; covariance._ring_symmetry solves one partition per class on
    # that premise. Checked here on the dense route, which never uses it.
    ring, group1, group2, r, s = case
    n = ring.N
    state = classical_covariance(normal_modes(ring), np.ones(n))
    image = [[(r + s * j) % n for j in group] for group in (group1, group2)]
    values, errors = [], []
    for part in (Bipartition(group1, group2), Bipartition(*image),
                 Bipartition(group2, group1)):
        result = log_negativity_via_symplectic(state, part)
        values.append(result.log_negativity)
        errors.append(dense_bits_error(result, reduce_modes(state, part.members), n))
    plain, moved, swapped = values
    assert abs(moved - plain) <= errors[0] + errors[1]
    assert abs(swapped - plain) <= errors[0] + errors[2]
