"""Structure-constant tables and pointwise algebra.

The expected values here are either computed by independent brute-force
loops over all index tuples, or are the exact integer contraction values.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from g2flow.algebra import (
    CROSS_ENTRIES,
    DIV_PSI_ENTRIES,
    INTERIOR_ENTRIES,
    METRIC_B_ENTRIES,
    METRIC_ENTRIES_BY_V,
    METRIC_PW_ENTRIES,
    ORIENTATION,
    TORSION_ENTRIES,
    build_standard_tables,
    contract,
    cross,
    dense_from_sorted,
    diamond,
    first_slot_slices_4,
    hodge_star_3,
    hodge_star_4,
    sorted_components,
    star_sorted_3,
    validate_tables,
)
from oracles import (
    antisymmetry_defect,
    first_slot_pairs_3,
    form_inner,
    interior_psi,
    pair_slices_4,
)

finite_vec = arrays(np.float64, (7,), elements=st.floats(-3, 3))


def brute_parity(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_phi_convention_entries(tables):
    # expand phi = e012 + e034 + e056 + e135 - e146 - e236 - e245 by hand
    assert tables.phi[0, 1, 2] == 1
    assert tables.phi[0, 3, 4] == 1
    assert tables.phi[1, 4, 6] == -1
    assert tables.phi[1, 0, 2] == -1  # one transposition
    assert np.all(tables.phi[0, 0, :] == 0)


def test_phi_nonzero_structure(tables):
    values = tables.phi[tables.phi != 0]
    assert len(values) == 42
    assert set(np.unique(values)) == {-1, 1}


def test_psi_brute_force_count(tables):
    # brute-force count over all 7^4 tuples after the Hodge dual
    count = sum(
        1 for idx in itertools.product(range(7), repeat=4) if tables.psi[idx] != 0
    )
    assert count == 4 * 3 * 2 * 1 * 7  # 168
    assert set(np.unique(tables.psi[tables.psi != 0])) == {-1, 1}


def test_validate_tables_all_zero(tables):
    report = validate_tables(tables)
    assert len(report) == 18
    assert all(defect == 0 for _, defect in report)


def test_paper_contraction_values(tables):
    phi, psi = tables.phi, tables.psi
    d = np.eye(7, dtype=np.int64)
    assert np.einsum("ijk,ijk->", phi, phi) == 42
    assert np.array_equal(np.einsum("ijk,ajk->ia", phi, phi), 6 * d)
    assert np.array_equal(np.einsum("ijkl,ajkl->ia", psi, psi), 24 * d)
    assert np.einsum("ijkl,ijkl->", psi, psi) == 168
    assert np.array_equal(np.einsum("ijk,abjk->iab", phi, psi), -4 * phi)
    assert np.all(np.einsum("ijk,aijk->a", phi, psi) == 0)


def test_form_norms_under_inner_convention(tables):
    assert form_inner(tables.phi.astype(float), tables.phi.astype(float), 3) == pytest.approx(7.0)
    assert form_inner(tables.psi.astype(float), tables.psi.astype(float), 4) == pytest.approx(7.0)


def test_cross_basis_vectors():
    e = np.eye(7)
    assert np.allclose(cross(e[0], e[0]), 0.0)
    # read off the table: e0 x e1 = e2 under the convention
    assert np.allclose(cross(e[0], e[1]), e[2])
    assert np.allclose(cross(e[1], e[0]), -e[2])


def brute_cross(tables, x, y):
    out = np.zeros(7)
    for a, b, k in np.argwhere(tables.phi):
        out[k] += x[a] * y[b] * tables.phi[a, b, k]
    return out


@settings(max_examples=25, deadline=None)
@given(finite_vec, finite_vec)
def test_cross_matches_brute_force_and_is_orthogonal(x, y):
    tables = build_standard_tables()
    c = cross(x, y)
    assert np.allclose(c, brute_cross(tables, x, y), atol=1e-12)
    assert np.allclose(c, -cross(y, x), atol=1e-12)
    assert abs(np.dot(c, x)) <= 1e-10 * (1 + np.abs(x).max() ** 2 * (1 + np.abs(y).max()))
    assert abs(np.dot(c, y)) <= 1e-10 * (1 + np.abs(y).max() ** 2 * (1 + np.abs(x).max()))


@settings(max_examples=25, deadline=None)
@given(finite_vec, finite_vec)
def test_cross_norm_identity(x, y):
    # |x X y|^2 = |x|^2|y|^2 - <x,y>^2 - psi(x,y,x,y); brute-force both sides
    tables = build_standard_tables()
    c = cross(x, y)
    lhs = float(c @ c)
    psi_term = float(np.einsum("ijab,i,j,a,b->", tables.psi, x, y, x, y))
    rhs = float((x @ x) * (y @ y) - (x @ y) ** 2 - psi_term)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_diamond_metric_gives_3phi(tables):
    out = diamond(np.eye(7), tables.phi.astype(float))
    assert np.array_equal(out, 3.0 * tables.phi)


def test_diamond_zero_and_linearity(tables, rng):
    phi = tables.phi.astype(float)
    assert np.all(diamond(np.zeros((7, 7)), phi) == 0.0)
    h1 = rng.standard_normal((7, 7))
    h1 = h1 + h1.T
    h2 = rng.standard_normal((7, 7))
    h2 = h2 + h2.T
    lin = diamond(h1 + 2.0 * h2, phi)
    assert np.allclose(lin, diamond(h1, phi) + 2.0 * diamond(h2, phi))


def test_diamond_single_entry(tables):
    h = np.zeros((7, 7))
    h[0, 0] = 1.0
    out = diamond(h, tables.phi.astype(float))
    assert out[0, 1, 2] == pytest.approx(1.0)


def test_diamond_rejects_nonsymmetric(tables):
    h = np.zeros((7, 7))
    h[0, 1] = 1.0
    with pytest.raises(ValueError):
        diamond(h, tables.phi.astype(float))


def test_interior_psi_isometry(tables):
    e = np.eye(7)
    a = interior_psi(tables, e[0])
    b = interior_psi(tables, e[1])
    assert form_inner(a, a, 3) == pytest.approx(4.0)
    assert form_inner(a, b, 3) == pytest.approx(0.0)
    assert np.all(interior_psi(tables, np.zeros(7)) == 0)


@settings(max_examples=25, deadline=None)
@given(finite_vec)
def test_interior_psi_injective(x):
    tables = build_standard_tables()
    a = interior_psi(tables, x)
    assert form_inner(a, a, 3) == pytest.approx(4.0 * float(x @ x), rel=1e-12, abs=1e-12)


def test_hodge_star_of_phi_is_psi(tables):
    assert np.array_equal(np.rint(hodge_star_3(tables.phi)).astype(np.int64), tables.psi)
    assert np.array_equal(np.rint(hodge_star_4(tables.psi)).astype(np.int64), tables.phi)


def test_hodge_star_basis_form(tables):
    # *(e0^e1^e2) = +/- e3^e4^e5^e6 depending on the chosen orientation
    alpha = np.zeros((7, 7, 7))
    for perm in itertools.permutations(range(3)):
        alpha[tuple(perm)] = brute_parity(perm)
    beta = hodge_star_3(alpha)
    assert beta[3, 4, 5, 6] == pytest.approx(float(ORIENTATION))
    assert np.count_nonzero(beta) == 24


@settings(max_examples=25, deadline=None)
@given(arrays(np.float64, (35,), elements=st.floats(-5, 5)))
def test_hodge_involution_random(svals):
    alpha = dense_from_sorted(svals, 3)
    assert antisymmetry_defect(alpha, 3) == 0.0
    back = hodge_star_4(hodge_star_3(alpha))
    assert np.max(np.abs(back - alpha)) <= 1e-14 * max(1.0, np.max(np.abs(alpha)))


def test_sorted_roundtrip_and_slices(tables, rng):
    svals = rng.standard_normal((35, 4))
    dense = dense_from_sorted(svals, 3)
    assert np.allclose(sorted_components(dense, 3), svals)
    s4 = star_sorted_3(svals)
    dense4 = dense_from_sorted(s4, 4)
    assert np.allclose(dense4, hodge_star_3(dense))
    slices = first_slot_slices_4(s4)
    from g2flow.algebra import _SORTED3

    for q in range(7):
        for si, trip in enumerate(_SORTED3):
            assert np.allclose(slices[q, si], dense4[(q,) + trip])


def test_sorted_gathers_are_exact(rng):
    svals = rng.standard_normal((35, 3))
    for rank in (3, 4):
        # the permutation scatter: every ordering of each sorted tuple, signed
        scatter = np.zeros((7,) * rank + (3,))
        for ci, combo in enumerate(itertools.combinations(range(7), rank)):
            for perm in itertools.permutations(combo):
                scatter[perm] = brute_parity(perm) * svals[ci]
        assert np.array_equal(dense_from_sorted(svals, rank), scatter)
    s4 = star_sorted_3(svals)
    dense3, dense4 = dense_from_sorted(svals, 3), dense_from_sorted(s4, 4)
    pairs = list(itertools.combinations(range(7), 2))
    w, p, q = first_slot_pairs_3(svals), pair_slices_4(s4), first_slot_slices_4(s4)
    for u in range(7):
        for i, pair in enumerate(pairs):
            assert np.array_equal(w[u, i], dense3[(u,) + pair])
        for i, trip in enumerate(itertools.combinations(range(7), 3)):
            assert np.array_equal(q[u, i], dense4[(u,) + trip])
    for i, ab in enumerate(pairs):
        for j, cd in enumerate(pairs):
            assert np.array_equal(p[i, j], dense4[ab + cd])


def test_sparse_entry_lists_hold_exactly_the_nonzero_products():
    # (output rows, entries): 20 triples per q, 4 directions per triple,
    # 50 pairs per pair p over v, 15 pairs per (u, v)
    counts = [(7, 140), (35, 140), (147, 1050), (49, 735)]
    lists = (TORSION_ENTRIES, DIV_PSI_ENTRIES, METRIC_PW_ENTRIES, METRIC_B_ENTRIES)
    for (rows, n), (got_rows, terms) in zip(counts, lists):
        assert (got_rows, len(terms)) == (rows, n)
        assert all(sign in (-1, 1) for *_, sign in terms)
        rows_seen = [o for o, *_ in terms]
        assert rows_seen == sorted(rows_seen) and set(rows_seen) == set(range(rows))
    # a-side rows are the contracted index itself: ascending within each row
    for terms in (TORSION_ENTRIES[1], DIV_PSI_ENTRIES[1]):
        assert [(o, i) for o, i, *_ in terms] == sorted((o, i) for o, i, *_ in terms)


def test_metric_entries_by_v_are_the_full_lists_rows_in_their_order(rng):
    # 150 products for pw_v, 15 per (u, v) with u <= v
    assert [(pw[0], len(pw[1]), b[0], len(b[1])) for pw, b in METRIC_ENTRIES_BY_V] == [
        (21, 150, v + 1, 15 * (v + 1)) for v in range(7)
    ]
    svals = rng.standard_normal((35, 5))
    pw = contract(METRIC_PW_ENTRIES, svals, svals).reshape(7, 21, 5)
    b = contract(METRIC_B_ENTRIES, svals, pw.reshape(147, 5)).reshape(7, 7, 5)
    for v, (pw_entries, b_entries) in enumerate(METRIC_ENTRIES_BY_V):
        pw_v = contract(pw_entries, svals, svals)
        assert pw_v.tobytes() == pw[v].tobytes()
        assert contract(b_entries, svals, pw_v).tobytes() == b[: v + 1, v].tobytes()


def test_interior_entries_equal_the_dense_einsum(rng):
    # (v -| phi)_lp = v_m phi_mlp: 5 products per l != p, summed as the einsum sums
    assert INTERIOR_ENTRIES[0] == 49 and len(INTERIOR_ENTRIES[1]) == 210
    svals, v = rng.standard_normal((35, 4, 6)), rng.standard_normal((7, 4, 6))
    v[2], v[5] = 0.0, -0.0
    want = np.einsum("mlp...,m...->lp...", dense_from_sorted(svals, 3), v)
    assert contract(INTERIOR_ENTRIES, v, svals).tobytes() == want.reshape(49, 4, 6).tobytes()


def test_contract_matches_dense_slices_at_a_single_point(rng):
    svals = rng.standard_normal(35)
    ds = rng.standard_normal(35)
    slices = first_slot_slices_4(star_sorted_3(svals))
    assert np.allclose(contract(TORSION_ENTRIES, ds, svals), slices @ ds, rtol=0, atol=1e-13)
    divt = rng.standard_normal(7)
    assert np.allclose(contract(DIV_PSI_ENTRIES, divt, svals), divt @ slices, rtol=0, atol=1e-13)
    w, p = first_slot_pairs_3(svals), pair_slices_4(star_sorted_3(svals))
    pw = contract(METRIC_PW_ENTRIES, svals, svals)
    assert pw.shape == (147,)
    assert np.allclose(pw.reshape(7, 21), w @ p.T, rtol=0, atol=1e-13)
    b = contract(METRIC_B_ENTRIES, svals, pw).reshape(7, 7)
    assert np.allclose(b, w @ (w @ p.T).T, rtol=0, atol=1e-12)


def test_cross_entries_are_the_nonzero_products_of_cross(rng):
    # 42 products, one per pair a != k; summed by contract, they give the dense
    # einsum's bytes, signed zeros included
    assert CROSS_ENTRIES[0] == 7 and len(CROSS_ENTRIES[1]) == 42
    assert {(k, a) for k, a, _, _ in CROSS_ENTRIES[1]} == {
        (k, a) for k in range(7) for a in range(7) if a != k
    }
    for shape in ((), (5,), (4, 6)):
        x, y = rng.standard_normal((7,) + shape), rng.standard_normal((7,) + shape)
        x[2], x[3] = 0.0, -0.0
        got = contract(CROSS_ENTRIES, x, y)
        assert got.tobytes() == np.asarray(cross(x, y)).tobytes()


def test_contract_writes_into_a_given_out(rng):
    a, b = rng.standard_normal((35, 4, 6)), rng.standard_normal((35, 4, 6))
    out = np.full((7, 4, 6), np.nan)
    assert contract(TORSION_ENTRIES, a, b, out) is out
    assert out.tobytes() == contract(TORSION_ENTRIES, a, b).tobytes()
    with pytest.raises(ValueError, match="C-contiguous"):
        contract(TORSION_ENTRIES, a, b, np.empty((6, 4, 7)).T)
