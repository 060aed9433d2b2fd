"""Digital net construction, verification and composition."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decluster.errors import NetConstructionError, ParameterError
from decluster.gf import field_for, field_for_order
from decluster.nets import (
    DigitalNet,
    GeneratorSet,
    NetParams,
    crt_anchor,
    crt_compose_counted,
    generator_anchor,
    net_from_generators,
    pascal_power_generators,
    rank_gate,
    save_net,
    verify_net,
)
from oracles import coloring_from_net, naive_net_check


def digit_net(b, points):
    """The base-b net whose point k has the digit list points[k][i] on axis i."""
    digits = np.asarray(points, dtype=np.int64)
    _, d, m = digits.shape
    return DigitalNet(NetParams(b=b, m=m, d=d), digits)


def permutation_net(perm):
    """The one-digit two-dimensional net {(i/b, perm[i]/b)}, b = len(perm)."""
    return digit_net(len(perm), [[[i], [v]] for i, v in enumerate(perm)])


def point_values(net):
    """Exact coordinates of every point, as rationals in [0, 1)."""
    scale = net.params.b**net.params.m
    return [tuple(Fraction(int(v), scale) for v in row) for row in net.coord_ints()]


# -- generator matrices ------------------------------------------------------


def test_pascal_generators_q3():
    gens = pascal_power_generators(3, 3, 2)
    assert gens.matrices == (
        ((1, 0), (0, 1)),
        ((1, 1), (0, 1)),
        ((1, 2), (0, 1)),
    )


def test_pascal_generators_reversal_at_d_eq_q_plus_1():
    gens = pascal_power_generators(2, 3, 2)
    assert gens.matrices[2] == ((0, 1), (1, 0))
    gens5 = pascal_power_generators(5, 6, 3)
    rev = gens5.matrices[5]
    for r in range(3):
        for c in range(3):
            assert rev[r][c] == (1 if r + c == 2 else 0)


def test_pascal_generators_first_is_identity():
    gens = pascal_power_generators(5, 1, 3)
    assert gens.matrices == (((1, 0, 0), (0, 1, 0), (0, 0, 1)),)


def test_pascal_generators_dimension_cap():
    with pytest.raises(ParameterError, match="q\\+1"):
        pascal_power_generators(3, 5, 2)


def test_pascal_generators_prime_power_field():
    # over GF(4), powers of alpha must use field multiplication, not mod-4 ints
    gens = pascal_power_generators(4, 4, 2)
    f = field_for(2, 2)
    for j, mat in enumerate(gens.matrices):
        alpha = j
        for r in range(2):
            for c in range(2):
                if r > c:
                    assert mat[r][c] == 0
                else:
                    want = f.mul(math.comb(c, r) % 2, f.pow(alpha, c - r))
                    assert mat[r][c] == want


# -- net construction --------------------------------------------------------


def test_net_q2_m2_d2_points():
    net = net_from_generators(pascal_power_generators(2, 2, 2))
    assert point_values(net) == [
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 4), Fraction(3, 4)),
        (Fraction(3, 4), Fraction(1, 4)),
    ]


def test_identity_matrix_gives_radical_inverse():
    net = net_from_generators(pascal_power_generators(2, 1, 3))
    first = [point[0] for point in point_values(net)]
    assert first == [
        Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(3, 4),
        Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8),
    ]


def test_m_zero_single_point():
    net = net_from_generators(pascal_power_generators(3, 2, 0))
    assert net.params.n_points == 1
    assert point_values(net) == [(Fraction(0), Fraction(0))]


def test_constructed_nets_pass_naive_check():
    # cross-check the vectorized verifier against point-by-point membership
    for q, d, m in [(2, 2, 3), (3, 3, 2), (4, 5, 2), (5, 6, 2)]:
        net = net_from_generators(pascal_power_generators(q, d, m))
        ok, violation = naive_net_check(point_values(net), q, m, d, t=0)
        assert ok, violation


def test_digit_ranges_and_shapes():
    net = net_from_generators(pascal_power_generators(3, 2, 3))
    assert net.digits.shape == (27, 2, 3)
    assert net.digits.min() >= 0 and net.digits.max() <= 2


# -- the verifier ------------------------------------------------------------


def test_verify_net_passes_and_counts():
    net = net_from_generators(pascal_power_generators(2, 2, 2))
    check = verify_net(net, 0)
    assert check.ok
    assert check.t == 0
    assert check.intervals_checked == 12
    assert check.expected_points == 1


def test_verify_identity_permutation_base4():
    net = permutation_net([0, 1, 2, 3])
    assert verify_net(net, 0).ok


def test_verify_duplicated_origin_fails():
    bad = digit_net(2, [[[0], [0]], [[0], [0]]])
    check = verify_net(bad, 0)
    assert not check.ok
    assert check.violation.levels == (0, 1)
    assert check.violation.offsets == (0, 0)
    assert check.found_points == 2
    assert check.expected_points == 1


def test_verify_general_t():
    # doubling every point of a (0,1,2)-net gives a (1,2,2)-style multiset in
    # disguise; simpler: a net is also a (t, m, d)-net for every t >= 0 shift
    net = net_from_generators(pascal_power_generators(2, 2, 3))
    assert verify_net(net, 0).ok
    assert verify_net(net, 1).ok  # s = m - t intervals hold b points
    assert verify_net(net, 2).ok  # vacuous: the unit cube holds all 4

    skew = permutation_net([1, 0, 2])
    assert verify_net(skew, 0).ok
    assert verify_net(skew, t=None).t == 0  # default: strictest


def test_verify_first_violation_is_lexicographically_first():
    # 4 points, two stacked in the left column: several intervals fail;
    # the report must name the lex-first (levels, offsets)
    bad = digit_net(
        2, [[[0, 0], [0, 0]], [[0, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 1], [1, 1]]]
    )
    check = verify_net(bad, 0)
    assert not check.ok
    # the oracle walks (levels, offsets) in lexicographic order, point by point
    ok, first = naive_net_check(point_values(bad), 2, 2, 2, t=0)
    assert not ok
    assert (check.violation.levels, check.violation.offsets) == first


# -- CRT composition ---------------------------------------------------------


def test_crt_recombination_example():
    c2 = permutation_net([1, 0])
    c3 = permutation_net([2, 0, 1])
    net = crt_compose_counted([c2, c3], 6)[0]
    assert net.params.b == 6
    # index digit 1 maps to residues (1 mod 2, 1 mod 3): components send
    # 1 -> 0 and 1 -> 0, recombining to 0; check the whole permutation instead
    k_digits = net.digits[:, 0, 0]
    assert sorted(int(v) for v in k_digits) == [0, 1, 2, 3, 4, 5]


def test_crt_weights_against_classic_example():
    # (1 mod 2, 2 mod 3) -> 5 in Z_6: the weights the composition uses
    w2 = 3 * pow(3, -1, 2)
    w3 = 2 * pow(2, -1, 3)
    assert (1 * w2 + 2 * w3) % 6 == 5


def test_crt_identity_components_give_identity():
    c2 = permutation_net([0, 1])
    c3 = permutation_net([0, 1, 2])
    net = crt_compose_counted([c2, c3], 6)[0]
    assert [point[1] for point in point_values(net)] == [Fraction(k, 6) for k in range(6)]


def test_crt_single_component_passthrough():
    net = net_from_generators(pascal_power_generators(3, 2, 2))
    same, check = crt_compose_counted([net], 3)
    assert same is net and check is None


def test_crt_composed_net_is_balanced():
    comps = [
        net_from_generators(pascal_power_generators(q, 3, 2)) for q in (2, 3)
    ]
    net = crt_compose_counted(comps, 6)[0]
    ok, violation = naive_net_check(point_values(net), 6, 2, 3, t=0)
    assert ok, violation


def test_crt_refuses_a_component_that_is_not_balanced():
    # both base-2 points share their first digit on axis 2, so the composed
    # net cannot be balanced, whatever the net's parameters claim
    c2 = digit_net(2, [[[0], [0]], [[1], [0]]])
    c3 = permutation_net([0, 1, 2])
    with pytest.raises(NetConstructionError, match="residue composition to base 6"):
        crt_compose_counted([c2, c3], 6)
    net, check = crt_compose_counted([permutation_net([1, 0]), c3], 6)
    assert check.ok and check.intervals_checked == 12 and net.params.t == 0


def test_crt_rejects_bad_inputs():
    c2 = permutation_net([0, 1])
    c3 = permutation_net([0, 1, 2])
    c4 = permutation_net([0, 1, 2, 3])
    with pytest.raises(ParameterError, match="coprime"):
        crt_compose_counted([c2, c4], 8)
    with pytest.raises(ParameterError, match="multiply"):
        crt_compose_counted([c2, c3], 12)
    mism = net_from_generators(pascal_power_generators(3, 2, 2))
    with pytest.raises(ParameterError, match="share"):
        crt_compose_counted([c2, mism], 6)
    with pytest.raises(ParameterError):
        crt_compose_counted([], 1)


# -- construction gate -------------------------------------------------------


def test_net_from_generators_rejects_bad_matrices():
    f = field_for_order(2)
    singular = GeneratorSet(
        field=f, m=2, d=2,
        matrices=(((1, 0), (0, 1)), ((1, 1), (1, 1))),
    )
    with pytest.raises(NetConstructionError) as err:
        net_from_generators(singular)
    assert err.value.interval is not None
    assert err.value.found != err.value.expected


def _points_without_gate(gens):
    """The point set net_from_generators builds, made here without its gate
    and without the field's Z_p kernel: from tables of scalar ``mul`` and of
    coefficient-wise addition."""
    fld, m, d = gens.field, gens.m, gens.d
    q = fld.q
    times = np.array([[fld.mul(a, b) for b in range(q)] for a in range(q)])
    coeffs = np.arange(q)[:, None] // fld.p ** np.arange(fld.e) % fld.p  # base-p, lowest first
    plus = (coeffs[:, None] + coeffs[None, :]) % fld.p @ fld.p ** np.arange(fld.e)
    ks = np.arange(q**m, dtype=np.int64)
    index_digits = (ks[:, None] // q ** np.arange(m, dtype=np.int64)) % q
    digits = np.zeros((len(ks), d, m), dtype=np.int64)
    for j, mat in enumerate(gens.matrices):
        for r, row in enumerate(mat):
            for c, entry in enumerate(row):
                digits[:, j, r] = plus[digits[:, j, r], times[entry, index_digits[:, c]]]
    return DigitalNet(params=NetParams(b=q, m=m, d=d), digits=digits)


def _draw_matrices(draw, q, d, m):
    """Pascal matrices (balanced), Pascal matrices with one entry changed, or
    random or sparse matrices (often singular), over GF(q)."""
    kind = draw(st.sampled_from(["pascal", "perturbed", "random", "sparse"]))
    if kind == "random" or kind == "sparse" or m == 0:
        entry = st.integers(0, q - 1)
        if kind == "sparse":
            entry = st.one_of(st.just(0), st.just(0), entry)
        mats = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(d)]
    else:
        mats = [[list(row) for row in mat] for mat in pascal_power_generators(q, d, m).matrices]
        if kind == "perturbed":
            j, r, c = draw(st.integers(0, d - 1)), draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
            mats[j][r][c] = draw(st.integers(0, q - 1))
    return GeneratorSet(
        field=field_for_order(q), m=m, d=d,
        matrices=tuple(tuple(tuple(row) for row in mat) for mat in mats),
    )


@st.composite
def generator_sets(draw):
    """Generator matrices over prime and extension fields with q <= 27, m <= 4
    (at most 20 000 points), d <= min(q+1, 4)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]))
    d = draw(st.integers(1, min(q + 1, 4)))
    m = draw(st.integers(0, max(k for k in range(5) if q**k <= 20_000)))  # q^m points
    return _draw_matrices(draw, q, d, m)


@st.composite
def anchor_generator_sets(draw):
    """(generators, M) with M = q^k and m = k(d-1), q <= 27, q^m <= 10^5 points."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]))
    d = draw(st.integers(1, max(d for d in range(1, min(q + 1, 5) + 1) if q ** (d - 1) <= 100_000)))
    k = draw(st.integers(1, max(k for k in range(1, 17) if q ** (k * (d - 1)) <= 100_000)))
    return _draw_matrices(draw, q, d, k * (d - 1)), q**k


@settings(max_examples=300, deadline=None)
@given(gens=generator_sets())
def test_rank_gate_agrees_with_point_counting(gens):
    check = verify_net(_points_without_gate(gens), 0)
    assert rank_gate(gens) == check.ok
    if check.ok:
        assert np.array_equal(net_from_generators(gens).digits, _points_without_gate(gens).digits)
    else:
        with pytest.raises(NetConstructionError) as err:
            net_from_generators(gens)
        assert err.value.interval == check.violation
        assert (err.value.found, err.value.expected) == (check.found_points, check.expected_points)


@settings(max_examples=200, deadline=None)
@given(case=anchor_generator_sets())
def test_generator_anchor_matches_the_point_set(case):
    gens, M = case
    try:
        net = net_from_generators(gens)
    except NetConstructionError as err:
        # point counting finds its first bad interval in the first composition
        # whose stacked rows are singular; the matrices name the same one
        assert not rank_gate(gens)
        with pytest.raises(NetConstructionError, match="rank criterion") as refused:
            generator_anchor(gens, M)
        assert f"= {err.interval.levels} are linearly dependent" in str(refused.value)
        return
    assert rank_gate(gens)
    anchor = generator_anchor(gens, M)
    assert anchor.dtype == np.int64
    assert np.array_equal(anchor, coloring_from_net(net, M).anchor_tensor().reshape(-1))


def _smallest_prime(q):
    return next(p for p in range(2, q + 1) if q % p == 0)


@st.composite
def composite_anchor_cases(draw):
    """(components, M): 2-3 pairwise coprime prime-power orders q_i <= 27 sharing
    d >= 2 and m = k(d-1), M = b^k for b = prod q_i, at most 10^5 points in base b."""
    qs = draw(st.lists(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27]),
                       min_size=2, max_size=3, unique_by=_smallest_prime))
    b = math.prod(qs)
    d = draw(st.integers(2, max(d for d in range(2, min(min(qs) + 1, 4) + 1)
                                if b ** (d - 1) <= 100_000)))
    k = draw(st.integers(1, max(k for k in range(1, 3) if b ** (k * (d - 1)) <= 100_000)))
    return [_draw_matrices(draw, q, d, k * (d - 1)) for q in qs], b**k


@settings(max_examples=150, deadline=None)
@given(case=composite_anchor_cases())
def test_crt_anchor_matches_the_composed_point_set(case):
    components, M = case
    singular = [gens.field.q for gens in components if not rank_gate(gens)]
    if singular:
        with pytest.raises(NetConstructionError,
                           match=rf"over GF\({singular[0]}\) fail the rank criterion"):
            crt_anchor(components, M)
        return
    b = math.prod(gens.field.q for gens in components)
    net = crt_compose_counted([net_from_generators(gens) for gens in components], b)[0]
    anchor = crt_anchor(components, M)
    assert anchor.dtype == np.int64
    assert np.array_equal(anchor, coloring_from_net(net, M).anchor_tensor().reshape(-1))


def test_crt_anchor_checks_its_components():
    two, four, three = (pascal_power_generators(q, 3, 2) for q in (2, 4, 3))
    with pytest.raises(ParameterError, match="coprime"):
        crt_anchor([two, four], 8)
    with pytest.raises(ParameterError, match="M=12 is not a positive power"):
        crt_anchor([two, three], 12)
    assert crt_anchor([three], 3).tolist() == generator_anchor(three, 3).tolist()


@pytest.mark.parametrize("q, m", [(7, 6), (343, 2)])
def test_generator_anchor_weights_do_not_wrap(q, m):
    # M = 343, d = 3 in smallbase (base 7, weight 49 on digit sums up to 6)
    # and paper mode (GF(343), weight 49 on the x^2 coefficient): digit
    # sums fit in uint8, their weighted values do not
    gens = pascal_power_generators(q, 3, m)
    anchor = generator_anchor(gens, 343)
    assert anchor.min() == 1 and anchor.max() == 343
    reference = coloring_from_net(net_from_generators(gens), 343)
    assert np.array_equal(anchor, reference.anchor_tensor().reshape(-1))


def test_generator_anchor_checks_its_shape_first():
    gens = pascal_power_generators(4, 3, 3)  # 4^3 = 8^2, but 8 is no power of 4
    with pytest.raises(ParameterError, match="M=8 is not a positive power of the point-set base b=4"):
        generator_anchor(gens, 8)
    with pytest.raises(ParameterError, match="need k\\*\\(d-1\\) = 4"):
        generator_anchor(gens, 16)


def test_rank_gate_expands_extension_field_entries():
    # Over GF(4) = GF(2)[x]/(x^2+x+1), [[1, x], [x, x+1]] has determinant
    # x+1 - x^2 = 0 (x^2 = x+1): singular, though no entry is 0 and no row
    # repeats over GF(2).
    f = field_for_order(4)
    ident = ((1, 0), (0, 1))
    singular = GeneratorSet(field=f, m=2, d=1, matrices=(((1, 2), (2, 3)),))
    assert not rank_gate(singular)
    assert rank_gate(GeneratorSet(field=f, m=2, d=1, matrices=(ident,)))
    assert not verify_net(_points_without_gate(singular), 0).ok


# -- determinism and serialization -------------------------------------------


def test_construction_deterministic():
    a = net_from_generators(pascal_power_generators(3, 3, 2))
    b = net_from_generators(pascal_power_generators(3, 3, 2))
    assert np.array_equal(a.digits, b.digits)
    assert a.provenance == b.provenance


def test_net_json_roundtrip(tmp_path):
    net = net_from_generators(pascal_power_generators(2, 3, 2))
    path = tmp_path / "net.json"
    save_net(net, path)
    data = json.loads(path.read_text())
    assert data["b"] == 2 and data["m"] == 2 and data["d"] == 3
    assert all(
        isinstance(digit, int)
        for point in data["points"] for coord in point for digit in coord
    )
    assert np.array_equal(data["points"], net.digits)
    assert (data["t"], data["provenance"]) == (0, net.provenance)


def test_net_params_validation():
    with pytest.raises(ParameterError):
        NetParams(b=1, m=2, d=2)
    with pytest.raises(ParameterError):
        NetParams(b=2, m=-1, d=2)
    with pytest.raises(ParameterError):
        NetParams(b=2, m=2, d=0)
    with pytest.raises(ParameterError):
        NetParams(b=2, m=2, d=2, t=3)
