import itertools
import math
import random
from fractions import Fraction

import pytest

import joinspectra.kernel as kernel
import joinspectra.oracle as oracle
from helpers import exact_power_traces, faddeev_leverrier, rand_rational_matrix, two_charpoly_numerator
from joinspectra.joins import UniversalParams, universal_matrix
from joinspectra.kernel import _is_prime, charpoly_bordered_int, charpoly_int, coeff_bound, prime
from joinspectra.matrices import RationalMatrix, descale
from joinspectra.oracle import oracle_charpoly, power_trace_charpoly
from joinspectra.verification import random_graph


def _random_int_matrix(rng, n, bound=5):
    return [rng.randint(-bound, bound) for _ in range(n * n)]


def _agrees_with_fl(a, n):
    """The route kernel, the oracle kernel and textbook Faddeev-LeVerrier agree."""
    fl = faddeev_leverrier(a, n)
    return charpoly_int(a, n) == fl and power_trace_charpoly(a, n) == fl


def test_identity_matrix():
    n = 4
    a = [1 if i == j else 0 for i in range(n) for j in range(n)]
    coeffs = charpoly_int(a, n)
    # (x - 1)^4 = x^4 - 4x^3 + 6x^2 - 4x + 1
    assert coeffs == [1, -4, 6, -4, 1]


def test_kernel_matches_faddeev_leverrier():
    rng = random.Random(0)
    for n in list(range(9)) + [11, 16, 32]:
        for _ in range(3 if n <= 8 else 1):
            assert _agrees_with_fl(_random_int_matrix(rng, n), n)
            ints = list(rand_rational_matrix(rng, n).nums)
            assert _agrees_with_fl(ints, n)
            # symmetric, and a graph Laplacian
            assert _agrees_with_fl(_symmetric(rng, n), n)
            assert _agrees_with_fl(_laplacian(rng, n), n)


def test_big_entries():
    rng = random.Random(2)
    for n in (1, 2, 6, 8):
        assert _agrees_with_fl(_random_int_matrix(rng, n, 10**12), n)


def _symmetric(rng, n, bound=5):
    a = [0] * (n * n)
    for i in range(n):
        for j in range(i, n):
            a[i * n + j] = a[j * n + i] = rng.randint(-bound, bound)
    return a


def _laplacian(rng, n, rate=0.3, sizes=None):
    """The Laplacian of a seeded graph, or of the disjoint union of graphs of
    the given sizes (a block-diagonal matrix)."""
    adj = [int(i != j and rng.random() < rate) for i in range(n) for j in range(n)]
    if sizes:
        block = [b for b, size in enumerate(sizes) for _ in range(size)]
        adj = [x if block[i // n] == block[i % n] else 0 for i, x in enumerate(adj)]
    a = [0] * (n * n)
    for i in range(n):
        for j in range(i + 1, n):
            if adj[i * n + j]:
                a[i * n + j] = a[j * n + i] = -1
                a[i * n + i] += 1
                a[j * n + j] += 1
    return a


def _upper_triangular(rng, n):
    return [rng.randint(-4, 4) if j >= i else 0 for i in range(n) for j in range(n)]


def _hessenberg(rng, n):
    return [rng.randint(-4, 4) if j >= i - 1 else 0 for i in range(n) for j in range(n)]


def _block_diagonal(rng, sizes):
    n = sum(sizes)
    a = [0] * (n * n)
    off = 0
    for s in sizes:
        for i in range(s):
            for j in range(s):
                a[(off + i) * n + off + j] = rng.randint(-4, 4)
        off += s
    return a, n


def test_zero_pivots():
    rng = random.Random(3)
    for n in range(1, 8):
        assert charpoly_int([0] * (n * n), n) == [0] * n + [1]
        assert _agrees_with_fl([int(i == j) for i in range(n) for j in range(n)], n)
        upper = _upper_triangular(rng, n)
        lower = [upper[j * n + i] for i in range(n) for j in range(n)]
        assert _agrees_with_fl(upper, n)
        assert _agrees_with_fl(lower, n)
        assert _agrees_with_fl(_hessenberg(rng, n), n)
    for sizes in ((1, 1), (2, 3), (3, 1, 2), (1, 4, 1, 2)):
        a, n = _block_diagonal(rng, sizes)
        assert _agrees_with_fl(a, n)
    # a zero column below the first pivot, then nonzero pivots further down
    a = [0, 1, 2, 0, 0, 3, 0, 0, 0, 4, 5, 0, 6, 7, 8, 9]
    assert _agrees_with_fl(a, 4)


def test_entries_multiple_of_first_prime():
    rng = random.Random(4)
    p = prime(0)
    for n in (2, 3, 5):
        a = [p * rng.randint(-2, 2) for _ in range(n * n)]
        assert _agrees_with_fl(a, n)
        b = [x + rng.choice((0, 0, 1)) for x in a]
        assert _agrees_with_fl(b, n)


def test_crt_with_four_or_more_primes():
    rng = random.Random(5)
    n = 6
    a = _random_int_matrix(rng, n, 10**12)
    coeffs = charpoly_int(a, n)
    assert _agrees_with_fl(a, n)
    three = prime(0) * prime(1) * prime(2)
    assert 2 * coeff_bound(a, n) > three
    # a coefficient beyond three primes' range, negative ones among them:
    # both the fourth prime and the sign recovery are exercised
    assert max(abs(c) for c in coeffs) > three // 2
    assert any(c < -(three // 2) for c in coeffs)


def _spy_moduli(monkeypatch, name="_charpoly_mod"):
    """Record every modulus the kernel hands to `name` (`_charpoly_mod` for
    `charpoly_int`, `_bordered_mod` for `charpoly_bordered_int`), and the
    ones that raised on a non-unit pivot."""
    seen, raised = [], []
    real = getattr(kernel, name)

    def spy(a, n, p):
        seen.append(p)
        try:
            return real(a, n, p)
        except ValueError:
            raised.append(p)
            raise

    monkeypatch.setattr(kernel, name, spy)
    return seen, raised


def test_one_modulus_for_every_prime(monkeypatch):
    seen, raised = _spy_moduli(monkeypatch)
    a = _random_int_matrix(random.Random(9), 6, 10**12)
    assert _agrees_with_fl(a, 6)
    assert seen == [prime(0) * prime(1) * prime(2) * prime(3)] and not raised


def test_non_unit_pivot_in_the_first_column(monkeypatch):
    seen, raised = _spy_moduli(monkeypatch)
    rng = random.Random(10)
    n = 5
    a = _random_int_matrix(rng, n)
    a[1 * n + 0] = 7 * prime(0)
    assert _agrees_with_fl(a, n)
    # the pass mod p0 p1 raised, then each prime ran alone
    assert raised == [prime(0) * prime(1)]
    assert seen == [prime(0) * prime(1), prime(0), prime(1)]


def test_non_unit_pivot_in_a_later_column(monkeypatch):
    seen, raised = _spy_moduli(monkeypatch)
    rng = random.Random(11)
    for n in (4, 5, 7):
        seen.clear()
        raised.clear()
        h = _hessenberg(rng, n)
        h[2 * n + 1] = 3 * prime(0)
        assert _agrees_with_fl(h, n)
        assert raised == [prime(0) * prime(1)]
        assert seen == [prime(0) * prime(1), prime(0), prime(1)]


def test_non_unit_pivot_splits_recursively(monkeypatch):
    seen, raised = _spy_moduli(monkeypatch)
    rng = random.Random(12)
    n = 5
    h = _hessenberg(rng, n)
    h[2 * n + 1] = 2 * prime(0) * prime(1)
    assert _agrees_with_fl(h, n)
    p0, p1, p2 = prime(0), prime(1), prime(2)
    # p0 | p1 p2 splits, and p1 p2 holds the non-unit pivot again
    assert raised == [p0 * p1 * p2, p1 * p2]
    assert seen == [p0 * p1 * p2, p0, p1 * p2, p1, p2]


def _cleared_vector(rng, n):
    """A seeded rational vector, cleared: du * u for du the lcm of its denominators."""
    u = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
    du = math.lcm(*[x.denominator for x in u])
    return [int(x * du) for x in u]


def _bordered_cases(rng, n):
    """(A, u, v) for the bordered pass: integer and cleared rational A, u != v,
    u = v, u = 0, v = 0, u_0 = 0 (the border column's pivot swaps), and, for
    n <= 12, entries that take four or more primes."""
    ints = _random_int_matrix(rng, n)
    cleared = list(rand_rational_matrix(rng, n).nums)
    u, v = _cleared_vector(rng, n), _cleared_vector(rng, n)
    zero = [0] * n
    swapped = [0] + u[1:]
    yield ints, u, v
    yield cleared, u, v
    yield ints, u, u
    yield cleared, zero, v
    yield ints, u, zero
    yield cleared, swapped, v
    if n <= 12:
        big = 10**12
        yield _random_int_matrix(rng, n, big), [rng.randint(-big, big) for _ in range(n)], v


def test_bordered_pass_equals_two_charpolys(monkeypatch):
    seen, _ = _spy_moduli(monkeypatch, "_bordered_mod")
    rng = random.Random(14)
    for n in range(31):
        for a, u, v in _bordered_cases(rng, n):
            assert charpoly_bordered_int(a, n, u, v) == two_charpoly_numerator(a, n, u, v), (n, u, v)
    assert max(seen) > prime(0) * prime(1) * prime(2)


def test_non_unit_pivot_in_the_border_column(monkeypatch):
    seen, raised = _spy_moduli(monkeypatch, "_bordered_mod")
    rng = random.Random(16)
    for i, n in ((0, 5), (2, 5), (5, 6)):
        seen.clear()
        raised.clear()
        a = _random_int_matrix(rng, n)
        u, v = _cleared_vector(rng, n), _cleared_vector(rng, n)
        u[:i] = [0] * i
        u[i] = 7 * prime(0)
        assert charpoly_bordered_int(a, n, u, v) == two_charpoly_numerator(a, n, u, v)
        # the pass mod p0 p1 raised on the pivot u_i, then each prime ran alone
        assert raised == [prime(0) * prime(1)]
        assert seen == [prime(0) * prime(1), prime(0), prime(1)]


def test_route_blocks_of_the_large_block_workload(monkeypatch):
    """Universal blocks of 22-28 vertices, Laplacian and rational parameters,
    as the route clears them: the bordered pass's phi_M and phi_M - numerator
    = phi_{M + u v^T} against the oracle."""
    seen, _ = _spy_moduli(monkeypatch, "_bordered_mod")
    seen_stack, _ = _spy_moduli(monkeypatch, "_lanczos_residues")
    rng = random.Random(13)
    laplacian = UniversalParams.laplacian()
    rational = UniversalParams(Fraction(1, 2), Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 2))
    for n, other, params in ((28, 22, laplacian), (22, 28, rational), (24, 26, rational), (26, 24, laplacian)):
        m = universal_matrix(random_graph(rng, n, 0.3), params, params.delta * other)
        ints, d = list(m.nums), m.den
        ones = [1] * n
        subset = [rng.randint(0, 1) for _ in range(n)]
        for u, v in ((ones, ones), (ones, subset)):
            phi, num = charpoly_bordered_int(ints, n, u, [d * x for x in v])
            uvt = RationalMatrix(n, n, [ui * vj for ui in u for vj in v])
            assert descale(phi, d) == oracle_charpoly(m)
            assert descale(phi, d) - descale(num, d, n) == oracle_charpoly(m + uvt)
    # (ones, d * ones) on a symmetric block takes the Lanczos pass over a
    # stack of word primes, (ones, subset) the Hessenberg one
    assert max(seen) > prime(0) and min(map(len, seen_stack)) > 1
    assert len(seen_stack) == 4


def test_primes():
    sieve = [True] * 3000
    sieve[0] = sieve[1] = False
    for i in range(2, 3000):
        if sieve[i]:
            for j in range(i * i, 3000, i):
                sieve[j] = False
    assert [i for i in range(3000) if _is_prime(i)] == [i for i in range(3000) if sieve[i]]
    # strong pseudoprimes to several small bases, and a Carmichael number
    for c in (3215031751, 2152302898747, 3474749660383, 341550071728321, 561):
        assert not _is_prime(c)
    ps = [prime(i) for i in range(6)]
    assert ps[0] == 2**62 - 57
    assert ps == sorted(ps, reverse=True) and len(set(ps)) == 6
    assert all(_is_prime(p) for p in ps)


# n where the baby-step/giant-step split of the power traces changes shape:
# every n up to 10, and s^2 - 1, s^2, s^2 + 1 for s = 2..6
STEP_BOUNDARIES = sorted(set(range(11)) | {s * s + d for s in range(2, 7) for d in (-1, 0, 1)})


def _diagonal_charpoly(diag):
    coeffs = [1]
    for d in diag:
        shifted = [0] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= d * c
        coeffs = shifted
    return coeffs


def test_power_trace_kernel_at_step_boundaries():
    rng = random.Random(6)
    for n in STEP_BOUNDARIES:
        cases = [_random_int_matrix(rng, n), list(rand_rational_matrix(rng, n).nums)]
        if n > 26:  # Faddeev-LeVerrier is O(n^4): one case per n for s = 6
            cases = cases[n % 2 : n % 2 + 1]
        for a in cases:
            assert _agrees_with_fl(a, n)
        for kernel in (charpoly_int, power_trace_charpoly):
            assert kernel([0] * (n * n), n) == [0] * n + [1]
            identity = [int(i == j) for i in range(n) for j in range(n)]
            assert kernel(identity, n) == _diagonal_charpoly([1] * n)
            # diagonal with repeated eigenvalues: prod (x - d_i)
            diag = [rng.choice((-2, 0, 3)) for _ in range(n)]
            a = [diag[i] if i == j else 0 for i in range(n) for j in range(n)]
            assert kernel(a, n) == _diagonal_charpoly(diag)
        # every power of a strictly upper triangular matrix has zero trace
        strict = [rng.randint(-4, 4) if j > i else 0 for i in range(n) for j in range(n)]
        assert oracle._power_traces(strict, n) == [n] + [0] * n
        assert power_trace_charpoly(strict, n) == charpoly_int(strict, n) == [0] * n + [1]


def test_power_trace_kernel_big_entries():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 8, 9, 10, 15, 16, 17):
        assert _agrees_with_fl(_random_int_matrix(rng, n, 10**12), n)
        near = [rng.choice((1, -1)) * 10**12 + rng.randint(-3, 3) for _ in range(n * n)]
        assert _agrees_with_fl(near, n)


def test_power_traces_equal_the_exact_integer_reference():
    rng = random.Random(9)
    for n in range(41):
        cases = [
            _random_int_matrix(rng, n),
            list(rand_rational_matrix(rng, n).nums),
            [rng.choice((1, -1)) * 10**12 + rng.randint(-3, 3) for _ in range(n * n)],
            [rng.choice((1, -1)) * (2**52 + rng.randint(0, 2**40)) for _ in range(n * n)],
        ]
        if n <= 12:  # entries past int64, reduced as Python ints
            cases.append([rng.choice((1, -1)) * rng.randint(2**64, 2**80) for _ in range(n * n)])
        for a in cases:
            assert oracle._power_traces(a, n) == exact_power_traces(a, n)


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129])
def test_power_traces_at_the_float_limit(n):
    # every residue of the all-(-1) matrix is p - 1, so its first product
    # sums n * (p - 1)**2, just below 2**53 for the largest prime
    largest = next(oracle._word_primes(n))
    assert 2**53 * (1 - 2**-10) < n * (largest - 1) ** 2 < 2**53
    a = [-1] * (n * n)
    assert oracle._power_traces(a, n) == [n] + [(-n) ** k for k in range(1, n + 1)]
    # det(xI + J) = x^(n-1) (x + n)
    assert power_trace_charpoly(a, n) == [0] * (n - 1) + [n, 1]


def test_word_primes_are_primes_below_the_float_limit():
    for n in (1, 7, 36, 128):
        primes = list(itertools.islice(oracle._word_primes(n), 40))
        assert primes == sorted(set(primes), reverse=True)
        assert all(n * (p - 1) ** 2 < 2**53 for p in primes)
        assert all(_is_prime(p) for p in primes)


def test_a_lifted_trace_outside_its_bound_raises(monkeypatch):
    rng = random.Random(10)
    n = 12
    a = _random_int_matrix(rng, n)
    r = max(sum(map(abs, a[i : i + n])) for i in range(0, n * n, n))
    largest = next(oracle._word_primes(n))
    # the bound needs two primes or more, and |tr(A)| <= n * r is below half
    # of each: tr(A) wrong mod one prime and right mod another cannot lift
    # into [-n * r, n * r]
    assert 2 * n * r**n > largest and 2 * n * r < largest // 2
    exact = oracle._trace_residues

    def one_off(stack, p):
        residues = exact(stack, p)
        residues[0, 0] = (residues[0, 0] + 1) % p[0, 0, 0]
        return residues

    monkeypatch.setattr(oracle, "_trace_residues", one_off)
    with pytest.raises(ArithmeticError, match="outside its bound"):
        oracle._power_traces(a, n)


@pytest.mark.parametrize("wrong", [2, 3, 5])
def test_power_trace_kernel_rejects_a_wrong_trace(monkeypatch, wrong):
    rng = random.Random(8)
    n = 6
    a = _random_int_matrix(rng, n)
    exact = oracle._power_traces

    def off_by_one(a, n):
        traces = exact(a, n)
        traces[wrong] += 1
        return traces

    monkeypatch.setattr(oracle, "_power_traces", off_by_one)
    with pytest.raises(ArithmeticError):
        power_trace_charpoly(a, n)
    with pytest.raises(ArithmeticError):
        oracle.oracle_charpoly(oracle.RationalMatrix(n, n, a))


# -- the Lanczos pass for symmetric blocks ---------------------------------------


def _bordered(a, n, u, v):
    """B = [[0, v^T], [u, A]], row-major (n+1) x (n+1)."""
    b = [0, *v]
    for i, ui in enumerate(u):
        b += [ui, *a[i * n : (i + 1) * n]]
    return b


def _oracle_numerator(a, n, u, v):
    """(det(xI - A), v^T adj(xI - A) u) from the oracle's power-trace kernel,
    which shares no code with the route kernel."""
    phi = power_trace_charpoly(a, n)
    updated = power_trace_charpoly([a[i * n + j] + ui * vj for i, ui in enumerate(u) for j, vj in enumerate(v)], n)
    return phi, [p - q for p, q in zip(phi, updated)][:n]


def _symmetric_cases(rng, n):
    """(A, u): symmetric integer A, a graph Laplacian, a disconnected graph's
    Laplacian and the zero matrix (restarts), with u random, zero, the
    all-ones eigenvector of a Laplacian, and a multiple of e_0."""
    u = [rng.randint(-4, 4) for _ in range(n)]
    ones = [1] * n
    lap = _laplacian(rng, n)
    yield _symmetric(rng, n), u
    yield lap, u
    yield lap, ones
    if n >= 4:
        yield _laplacian(rng, n, 0.5, [n // 2, n - n // 2]), u
    yield [0] * (n * n), u
    yield _symmetric(rng, n), [0] * n
    yield _symmetric(rng, n), [3] + [0] * (n - 1)


def _unit(n, c=1):
    """c e_0 in dimension n."""
    return [c] + [0] * (n - 1)


def _stack(n, count):
    """The first `count` word primes of the Lanczos stack for dimension n."""
    return [prime(i, kernel._stack_bound(n)) for i in range(count)]


def _per_prime(b, size, primes):
    """Each prime's column of the stacked pass, as a list."""
    return kernel._lanczos_residues(b, size, primes).T.tolist()


def _cycle_adjacency(n):
    return [int((i - j) % n in (1, n - 1)) for i in range(n) for j in range(n)]


def _stack_cases(rng, n):
    """`_symmetric_cases`, then a cycle (repeated eigenvalues: restarts from
    e_0 and from all-ones) and entries of 10^20, past int64, with u random."""
    yield from _symmetric_cases(rng, n)
    if n >= 3:
        yield _cycle_adjacency(n), _unit(n)
        yield _cycle_adjacency(n), [1] * n
    big = 10**20
    yield _symmetric(rng, n, big), [rng.randint(-big, big) for _ in range(n)]


@pytest.mark.parametrize("primes", [1, 3])
def test_symmetric_pass_equals_the_hessenberg_pass_per_modulus(primes):
    # per word prime of the stack, the residues of det(xI - B) and
    # det(xI - A) equal the Hessenberg pass's, whatever the other primes do
    rng = random.Random(21)
    for n in range(14):
        stack = _stack(n, primes)
        for a, u in _stack_cases(rng, n):
            for c in (1, -3, 0):
                b = _bordered(a, n, u, [c * x for x in u])
                expected = [kernel._bordered_mod(b, n + 1, p) for p in stack]
                assert _per_prime(b, n + 1, stack) == expected, (n, a, u, c)


def _restarts(monkeypatch):
    """The widths of the norm inversions a restart asks for: each restart
    inverts the norms found since the one before, so the running sums are
    the steps where the Krylov space closed.  The inversion of Q_0's leading
    coefficient at the end (width 1 after the loop) is recorded too."""
    widths = []
    real = kernel._inverses

    def spy(x, primes):
        widths.append(x.shape[1])
        return real(x, primes)

    monkeypatch.setattr(kernel, "_inverses", spy)
    return widths


def test_symmetric_pass_restarts_where_the_krylov_space_closes(monkeypatch):
    # a disconnected graph from e_0, u = 1 on a Laplacian (an eigenvector, so
    # the space closes at the first step), the zero matrix and a cycle: T
    # splits, and both polynomials still agree per prime
    widths = _restarts(monkeypatch)
    rng = random.Random(22)
    n = 16
    stack = _stack(n, 3)
    cases = [
        (_laplacian(rng, n, 0.6, [7, 9]), _unit(n)),
        (_laplacian(rng, n), [1] * n),
        ([0] * (n * n), _unit(n)),
        (_cycle_adjacency(n), [1] * n),
    ]
    for a, u in cases:
        for c in (1, -2):
            b = _bordered(a, n, u, [c * x for x in u])
            widths.clear()
            residues = _per_prime(b, n + 1, stack)
            assert residues == [kernel._bordered_mod(b, n + 1, p) for p in stack]
            # one or more restarts, then the final inversion; the restarts'
            # widths sum to the last restart's step, so no norm is inverted twice
            *restarts, last = widths
            assert restarts and sum(restarts) < n and last == 1, widths
    # the zero matrix closes at every step: one restart per step, one norm each
    widths.clear()
    _per_prime(_bordered([0] * (n * n), n, _unit(n), _unit(n)), n + 1, stack)
    assert widths == [1] * (n - 1) + [1]
    # u = 1 on a Laplacian: T splits after its first entry, the eigenvalue 0,
    # so det(xI - A) = x det(xI - T[1:, 1:]) and the form is |u|^2 / x
    a = cases[1][0]
    widths.clear()
    phi, num = charpoly_bordered_int(a, n, [1] * n, [1] * n)
    assert widths[0] == 1
    assert [0, *num] == [n * c for c in phi]


def test_symmetric_blocks_take_the_lanczos_pass_from_its_dimension(monkeypatch):
    seen, _ = _spy_moduli(monkeypatch, "_lanczos_residues")
    plain, _ = _spy_moduli(monkeypatch, "_charpoly_mod")
    rng = random.Random(23)
    for n in (kernel._LANCZOS_DIM - 1, kernel._LANCZOS_DIM, 20, 28):
        for a, u in _symmetric_cases(rng, n):
            seen.clear()
            plain.clear()
            # a plain charpoly takes the Hessenberg pass at every dimension
            assert charpoly_int(a, n) == power_trace_charpoly(a, n)
            assert plain and not seen
            for c in (1, -2, 0):
                v = [c * x for x in u]
                assert charpoly_bordered_int(a, n, u, v) == _oracle_numerator(a, n, u, v), (n, u, c)
            assert bool(seen) == (n >= kernel._LANCZOS_DIM)
    # v not a multiple of u, or A not symmetric: the Hessenberg pass
    seen.clear()
    n = kernel._LANCZOS_DIM
    a = _symmetric(rng, n)
    u = [rng.randint(-4, 4) for _ in range(n)]
    v = u[:-1] + [u[-1] + 1]
    assert charpoly_bordered_int(a, n, u, v) == _oracle_numerator(a, n, u, v)
    a[1] += 1
    assert charpoly_bordered_int(a, n, u, u) == _oracle_numerator(a, n, u, u)
    assert not seen


def test_symmetric_pass_on_dimension_zero_and_one():
    # a block of dimension 0 or 1 behind the border, on stacks of one and two primes
    for count in (1, 2):
        stack = _stack(1, count)
        assert _per_prime([0], 1, stack) == [kernel._bordered_mod([0], 1, p) for p in stack] == [[0, 1, 1]] * count
        for x, u in ((0, 0), (5, 0), (-7, 2), (3, -4)):
            for c in (1, 3, 0):
                b = [0, c * u, u, x]
                assert _per_prime(b, 2, stack) == [kernel._bordered_mod(b, 2, p) for p in stack]


def test_symmetric_pass_on_a_norm_zero_mod_one_stack_prime(monkeypatch):
    # column 0 is 7 p0 e_1, so from u = e_0 the basis's r_1 = 7 p0 e_1 has
    # norm 0 mod p0 alone: its Krylov space closes there at step 1 and on no
    # other prime.  p0 leaves the stack and runs the Hessenberg pass alone;
    # the other two primes go on together
    fell, _ = _spy_moduli(monkeypatch, "_bordered_mod")
    rng = random.Random(24)
    n = kernel._LANCZOS_DIM
    a = _symmetric(rng, n)
    for i in range(1, n):
        a[i * n] = a[i] = 0
    stack = _stack(n, 3)
    a[n] = a[1] = 7 * stack[0]
    u = _unit(n)
    for v in (u, _unit(n, -3)):
        b = _bordered(a, n, u, v)
        fell.clear()
        residues = _per_prime(b, n + 1, stack)
        assert fell == stack[:1]
        assert residues == [kernel._bordered_mod(b, n + 1, p) for p in stack]
        # through the kernel: the lift over the stack's primes is exact
        fell.clear()
        assert charpoly_bordered_int(a, n, u, v) == _oracle_numerator(a, n, u, v)
        assert fell == stack[:1]


def test_isotropic_vector_falls_back_to_the_hessenberg_pass(monkeypatch):
    # (1, 2) has norm 5 = 0 mod 5: no Lanczos step, so 5 leaves the stack and
    # runs the Hessenberg reduction alone while 13 goes on, whether the
    # isotropic vector is u itself or r_1 = A e_0 - 3 e_0 = (0, 1, 2, 0) from
    # u = e_0
    fell, _ = _spy_moduli(monkeypatch, "_bordered_mod")
    n = 4
    a = [3, 1, 2, 0, 1, 1, 0, 2, 2, 0, 4, 1, 0, 2, 1, 0]  # column 0 below the diagonal: (1, 2, 0)
    for u in (_unit(n), [1, 2, 0, 0]):
        v = [2 * x for x in u]
        phi, num = _oracle_numerator(a, n, u, v)
        chi0 = [(phi[j - 1] if j else 0) - (num[j] if j < n else 0) for j in range(n + 2)]
        fell.clear()
        assert _per_prime(_bordered(a, n, u, v), n + 1, [13, 5]) == [[c % p for c in chi0 + phi] for p in (13, 5)]
        assert fell == [5]
    # u = 0 mod every prime is no fallback: the numerator is 0 mod each, and
    # the basis starts at e_0; u = 0 mod one prime alone is a vector that
    # vanishes on it, and that prime leaves the stack
    b = _bordered(a, n, [7, 14, 0, 7], [7, 14, 0, 7])
    for stack, alone in (([7], []), ([13, 7], [7])):
        fell.clear()
        assert _per_prime(b, n + 1, stack) == [kernel._bordered_mod(b, n + 1, p) for p in stack]
        assert fell == alone + stack


@pytest.mark.parametrize("n", [1, 2, 3, 15, 28, 64])
def test_stack_pass_at_the_int64_limit(n):
    # every residue of A = (p - 1) J and u = (p - 1) 1 is p - 1, kept as it
    # is below the prime: A r and |r|^2 sum n (p - 1)^2, just below 2^63 for
    # the largest prime of the stack, and the restart after the first step
    # (u is an eigenvector) projects at the same size
    (largest,) = _stack(n, 1)
    assert 2**63 * (1 - 2**-10) < max(n, 3) * (largest - 1) ** 2 < 2**63
    a, u = [largest - 1] * (n * n), [largest - 1] * n
    for c in (1, -1):
        b = _bordered(a, n, u, [c * x for x in u])
        assert _per_prime(b, n + 1, [largest]) == [kernel._bordered_mod(b, n + 1, largest)]


def test_stack_primes_are_primes_below_the_int64_limit():
    for n in (0, 1, 3, 15, 28, 128):
        primes = _stack(n, 80)
        assert primes == sorted(set(primes), reverse=True)
        assert all(max(n, 3) * (p - 1) ** 2 < 2**63 for p in primes)
        assert all(_is_prime(p) for p in primes)
        # no prime is skipped between them
        below = kernel._stack_bound(n)
        assert not any(_is_prime(c) for c in range(primes[-1] + 1, below) if c not in primes)
    # the kernel's own primes, none of them the oracle's float64 ones
    assert set(_stack(28, 40)).isdisjoint(itertools.islice(oracle._word_primes(28), 40))


def test_stack_pass_lifts_under_the_bound(monkeypatch):
    # the stack takes the first word primes whose product passes 2 B, B the
    # bound of the bordered matrix, and the lift is exact
    seen, _ = _spy_moduli(monkeypatch, "_lanczos_residues")
    rng = random.Random(27)
    for n, bound in ((16, 4), (20, 10**6), (17, 10**20)):
        a = _symmetric(rng, n, bound)
        u = [rng.randint(-bound, bound) for _ in range(n)]
        seen.clear()
        assert charpoly_bordered_int(a, n, u, u) == _oracle_numerator(a, n, u, u)
        (primes,) = seen
        b = _bordered(a, n, u, u)
        assert primes == _stack(n, len(primes))
        assert math.prod(primes) > 2 * coeff_bound(b, n + 1) >= math.prod(primes[:-1])


# -- the fraction-free pass for small symmetric blocks ---------------------------


def _hessenberg_numerator(a, n, u, v):
    """(det(xI - A), v^T adj(xI - A) u) read off the lifted Hessenberg pass
    over B = [[0, v^T], [u, A]]."""
    coeffs = kernel._lifted(kernel._bordered_mod, _bordered(a, n, u, v), n + 1)
    chi0, phi = coeffs[: n + 2], coeffs[n + 2 :]
    return phi, [(phi[j - 1] if j else 0) - chi0[j] for j in range(n)]


def _small_symmetric_cases(rng, n):
    """`_symmetric_cases`, then entries of 10^15 (a bound past two primes)
    and rows of large negative entries, u random."""
    yield from _symmetric_cases(rng, n)
    big = 10**15
    yield _symmetric(rng, n, big), [rng.randint(-big, big) for _ in range(n)]
    a = _symmetric(rng, n)
    for i in range(0, n, 2):
        for j in range(n):
            a[i * n + j] = a[j * n + i] = -rng.randint(big // 2, big)
    yield a, [rng.randint(-4, 4) for _ in range(n)]


def test_fraction_free_pass_equals_the_hessenberg_pass():
    rng = random.Random(25)
    for n in range(kernel._LANCZOS_DIM + 3):
        for a, u in _small_symmetric_cases(rng, n):
            for c in (1, -3, 0):
                v = [c * x for x in u]
                assert kernel._fraction_free_bordered(a, n, u, c) == _hessenberg_numerator(a, n, u, v), (n, a, u, c)
    # the bound of the 10^15 entries needs more than two primes' worth of digits
    a, u = _symmetric(rng, 3, 10**15), [10**15] * 3
    bordered = [*a[0:3], u[0], *a[3:6], u[1], *a[6:9], u[2], *u, 0]
    assert coeff_bound(bordered, 4).bit_length() + 1 > (prime(0) * prime(1)).bit_length()
    assert kernel._fraction_free_bordered(a, 3, u, 1) == _hessenberg_numerator(a, 3, u, u)


def test_fraction_free_pass_reads_a_coefficient_at_its_bound():
    # S = [[0, 3], [3, 0]] has det(xI - S) = x^2 - 9 and bound 9: w = 5, so
    # -9 is one digit, where a base of 2^4 would read x^2 - x + 7 off 16^2 - 9
    assert kernel._fraction_free_bordered([0], 1, [3], 1) == ([0, 1], [9])
    assert kernel._fraction_free_bordered([0], 1, [3], -3) == ([0, 1], [-27])


def test_symmetric_blocks_take_the_fraction_free_pass_below_the_lanczos_dimension(monkeypatch):
    small = []
    real = kernel._fraction_free_bordered

    def spy(a, n, u, c):
        small.append(n)
        return real(a, n, u, c)

    monkeypatch.setattr(kernel, "_fraction_free_bordered", spy)
    lanczos, _ = _spy_moduli(monkeypatch, "_lanczos_residues")
    hessenberg, _ = _spy_moduli(monkeypatch, "_bordered_mod")
    rng = random.Random(26)
    for n in (1, 2, kernel._LANCZOS_DIM - 1, kernel._LANCZOS_DIM, kernel._LANCZOS_DIM + 1):
        for a, u in _symmetric_cases(rng, n):
            for c in (1, -3, 0):
                small.clear()
                lanczos.clear()
                hessenberg.clear()
                v = [c * x for x in u]
                assert charpoly_bordered_int(a, n, u, v) == _oracle_numerator(a, n, u, v), (n, u, c)
                assert small == ([n] if n < kernel._LANCZOS_DIM else [])
                assert bool(lanczos) == (n >= kernel._LANCZOS_DIM) and not hessenberg
    # v off u's line, or A not symmetric: the Hessenberg pass at every dimension
    for n in (2, kernel._LANCZOS_DIM - 1):
        small.clear()
        hessenberg.clear()
        a = _symmetric(rng, n)
        u = [rng.randint(1, 4) for _ in range(n)]
        v = u[:-1] + [u[-1] + 1]
        assert charpoly_bordered_int(a, n, u, v) == _oracle_numerator(a, n, u, v)
        a[1] += 1
        assert charpoly_bordered_int(a, n, u, u) == _oracle_numerator(a, n, u, u)
        assert not small and len(hessenberg) == 2
