"""Pointwise multilinear algebra of the reference G2-structure on flat R^7.

The module owns the integer structure constants phi_ijk (3-form) and
psi_ijkl = *phi (4-form), the cross product, the diamond action of a
symmetric 2-tensor on the 3-form, and the flat Hodge star on 3- and
4-forms.  Every identity these constants satisfy is checkable
exhaustively in integer arithmetic through ``validate_tables``.

Conventions:

* indices run 0..6; repeated indices are summed,
* the reference 3-form is
  phi = e012 + e034 + e056 + e135 - e146 - e236 - e245,
* forms are stored with dense, totally antisymmetric components, or by
  their 35 sorted components (the 3-form route computes on these); the
  inner product of k-forms is (1/k!) * (full component sum),
* 2-tensors use the plain full sum T_pq T_pq with no factor.

Fields over a grid carry the 7-valued tensor indices first and grid axes
last, so every function here broadcasts over trailing axes unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PHI",
    "PSI",
    "StructureTables",
    "build_standard_tables",
    "validate_tables",
    "cross",
    "diamond",
    "hodge_star_3",
    "hodge_star_4",
]

# Oriented base triples of the reference 3-form, with coefficients.
_BASE_TRIPLES = (
    ((0, 1, 2), 1),
    ((0, 3, 4), 1),
    ((0, 5, 6), 1),
    ((1, 3, 5), 1),
    ((1, 4, 6), -1),
    ((2, 3, 6), -1),
    ((2, 4, 5), -1),
)

# Sign of the orientation form vol = ORIENTATION * e0123456.  The value is
# pinned by requiring phi_ijk phi_abk = d_ia d_jb - d_ib d_ja - psi_ijab
# to hold exactly for psi = *phi; tested in validate_tables.
ORIENTATION = -1

_SORTED3 = tuple(itertools.combinations(range(7), 3))
_SORTED4 = tuple(itertools.combinations(range(7), 4))
_PAIRS = tuple(itertools.combinations(range(7), 2))
_INDEX = {3: {t: i for i, t in enumerate(_SORTED3)}, 4: {t: i for i, t in enumerate(_SORTED4)}}


def _parity(seq) -> int:
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


# Entries (k, a, b, sign) of (x × y)_k = x_a y_b phi_abk, for contract(CROSS_ENTRIES, x, y):
# the 42 nonzero products, one b per pair a != k, by k and then ascending a (np.einsum's order)
CROSS_ENTRIES = (7, tuple(sorted(
    (t[p[2]], t[p[0]], t[p[1]], val * _parity(p))
    for t, val in _BASE_TRIPLES
    for p in itertools.permutations(range(3))
)))


def _index_table(rank: int, heads, tails) -> tuple[np.ndarray, np.ndarray]:
    """Gather table (index, sign), of shape (len(heads), len(tails)), with
    alpha_{h t} = sign * s[index] for a rank-form alpha of sorted components
    s, index tuples h in heads and t in tails; sign is 0 where an index repeats."""
    index = np.zeros((len(heads), len(tails)), dtype=np.intp)
    sign = np.zeros((len(heads), len(tails)), dtype=np.int64)
    for a, head in enumerate(heads):
        for b, tail in enumerate(tails):
            seq = tuple(head) + tuple(tail)
            if len(set(seq)) == rank:
                index[a, b] = _INDEX[rank][tuple(sorted(seq))]
                sign[a, b] = _parity(seq)
    return index, sign


def _gather(s: np.ndarray, table) -> np.ndarray:
    """sign * s[index] over the leading (component) axis of s, signed in
    place so that one gathered array is live."""
    index, sign = table
    out = s[index]
    out *= sign.reshape(sign.shape + (1,) * (s.ndim - 1))
    return out


def _star_table(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of the Hodge star of a rank-form: for each sorted
    (7 - rank)-tuple J, the sorted complement I and the sign of (I, J) as a
    permutation of 0..6."""
    targets = _SORTED4 if rank == 3 else _SORTED3
    comps = [tuple(sorted(set(range(7)) - set(j))) for j in targets]
    index = np.array([_INDEX[rank][c] for c in comps])
    sign = np.array([ORIENTATION * _parity(c + j) for c, j in zip(comps, targets)])
    return index, sign


_DENSE = {r: _index_table(r, list(itertools.product(range(7), repeat=r)), [()]) for r in (3, 4)}
_AXES = {r: tuple(np.array(a) for a in zip(*combos)) for r, combos in ((3, _SORTED3), (4, _SORTED4))}
_STAR = {r: _star_table(r) for r in (3, 4)}
_SLICE4 = _index_table(4, [(q,) for q in range(7)], _SORTED3)
_PAIRS3 = _index_table(3, [(u,) for u in range(7)], _PAIRS)
_PAIRS4 = _index_table(4, _PAIRS, _PAIRS)


def sorted_components(alpha: np.ndarray, rank: int) -> np.ndarray:
    """Components of a dense antisymmetric array on sorted index tuples."""
    return alpha[_AXES[rank]]


def dense_from_sorted(svals: np.ndarray, rank: int) -> np.ndarray:
    """Dense totally antisymmetric array from 35 sorted components."""
    dense = _gather(np.asarray(svals, dtype=float), _DENSE[rank])
    return dense.reshape((7,) * rank + svals.shape[1:])


def star_sorted_3(s3: np.ndarray) -> np.ndarray:
    """Hodge star in the sorted representation: 3-form -> 4-form components."""
    return _gather(s3, _STAR[3])


def first_slot_slices_4(s4: np.ndarray) -> np.ndarray:
    """beta_{q,(ijk)} for sorted triples (ijk), from sorted 4-form components.

    Returns shape (7, 35) + batch; the q-slices of a 4-form are themselves
    antisymmetric 3-index arrays.
    """
    return _gather(s4, _SLICE4)


def _on_s3(table) -> tuple[np.ndarray, np.ndarray]:
    """A gather table on sorted components of psi = *phi, rewritten on phi's."""
    index, sign = table
    return _STAR[3][0][index], sign * _STAR[3][1][index]


def _entries(a_table, b_table) -> tuple[int, tuple]:
    """Entry list of out[o] = sum_c A[o, c] B[o, c] for signed gather tables
    A = (index, sign) into rows of a and B into rows of b, broadcast to output
    axes + (contracted axis,): the number of output rows and one (o, i, j, sign)
    per nonzero product, by o, then by ascending c (np.einsum's sum order)."""
    ia, sa, ib, sb = np.broadcast_arrays(*a_table, *b_table)
    sign = sa * sb
    rows = sign.size // sign.shape[-1]
    o, c = np.nonzero(sign.reshape(rows, -1))
    take = lambda x: x.reshape(rows, -1)[o, c].tolist()
    return rows, tuple(zip(o.tolist(), take(ia), take(ib), take(sign)))


def contract(entries, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """out[o] = sum of sign * a[i] * b[j] over the entries (o, i, j, sign),
    summed from +0 in their order with one scratch row, as np.einsum sums.
    a and b hold rows first, then one trailing shape, which out keeps.  A
    given ``out`` (C-contiguous, overlapping neither a nor b) is overwritten."""
    rows, terms = entries
    a2, b2 = a.reshape(len(a), -1), b.reshape(len(b), -1)
    if out is None:
        out = np.zeros((rows,) + a.shape[1:])
    elif not out.flags.c_contiguous:
        raise ValueError("contract writes only into a C-contiguous out")
    else:
        out.fill(0.0)
    scratch = np.empty(a2.shape[1])
    # row views and positional out: call overhead is a large share at ~4k points
    a_rows, b_rows, out_rows = list(a2), list(b2), list(out.reshape(rows, -1))
    for o, i, j, sign in terms:
        np.multiply(a_rows[i], b_rows[j], scratch)
        (np.add if sign > 0 else np.subtract)(out_rows[o], scratch, out_rows[o])
    return out


# Entries (lp, m, index, sign) of (v -| phi)_lp = v_m phi_mlp on the sorted components
# s3 of phi, for contract(INTERIOR_ENTRIES, v, s3): 5 products per l != p, none for l = p
_PHI_LP_M = _index_table(3, list(itertools.product(range(7), repeat=2)), [(m,) for m in range(7)])
INTERIOR_ENTRIES = _entries((np.arange(7), 1), _PHI_LP_M)

# The direct route's psi contractions, on the sorted components s3 of phi:
# T_pq = (1/4) (d_p phi)_s psi_qs over triples s: (d_p s3, s3) -> q;
# (Div T -| psi)_s = (Div T)_p psi_ps: (Div T, s3) -> s;
# pw_vp = psi_pq w_vq with w_vq = (e_v -| phi)_q over pairs: (s3, s3) -> (v, p);
# B_uv = -(1/6) w_up pw_vp: (s3, pw) -> (u, v).
_PSI_Q, _PSI_PQ, _W = _on_s3(_SLICE4), _on_s3(_PAIRS4), _PAIRS3
TORSION_ENTRIES = _entries((np.arange(35), 1), _PSI_Q)
DIV_PSI_ENTRIES = _entries((np.arange(7), 1), (_PSI_Q[0].T, _PSI_Q[1].T))
METRIC_PW_ENTRIES = _entries((_PSI_PQ[0][None], _PSI_PQ[1][None]), (_W[0][:, None], _W[1][:, None]))
METRIC_B_ENTRIES = _entries((_W[0][:, None], _W[1][:, None]), (np.arange(147).reshape(1, 7, 21), 1))


def _metric_entries_of(v: int) -> tuple:
    """The entry lists (pw_list, b_list) of one v, filtered from the full lists
    with each row's order kept: pw_v = contract(pw_list, s3, s3) and
    (B_0v, ..., B_vv) = -(1/6) contract(b_list, s3, pw_v).  B_uv with u <= v
    reads only pw_v, the 21 rows p of its v."""
    pw = [(o - 21 * v, i, j, s) for o, i, j, s in METRIC_PW_ENTRIES[1] if o // 21 == v]
    b = [(o // 7, i, j - 21 * v, s) for o, i, j, s in METRIC_B_ENTRIES[1] if o % 7 == v >= o // 7]
    return (21, tuple(pw)), (v + 1, tuple(b))


METRIC_ENTRIES_BY_V = tuple(_metric_entries_of(v) for v in range(7))


def hodge_star_3(alpha: np.ndarray) -> np.ndarray:
    """Flat Hodge star of a 3-form (dense components), giving a 4-form."""
    return dense_from_sorted(star_sorted_3(sorted_components(alpha, 3)), 4)


def hodge_star_4(beta: np.ndarray) -> np.ndarray:
    """Flat Hodge star of a 4-form, giving a 3-form; inverse of hodge_star_3."""
    return dense_from_sorted(_gather(sorted_components(beta, 4), _STAR[4]), 3)


# The reference 3-form phi = e012 + e034 + e056 + e135 - e146 - e236 - e245, from its
# sorted components (the base triples are sorted), and psi = *phi, dense and read-only:
# the flow keeps this one structure for its whole life
PHI = _gather(np.array([dict(_BASE_TRIPLES).get(t, 0) for t in _SORTED3]), _DENSE[3]).reshape(7, 7, 7)
PSI = np.rint(hodge_star_3(PHI)).astype(np.int64)
PHI.setflags(write=False)
PSI.setflags(write=False)


@dataclass(frozen=True)
class StructureTables:
    """Integer structure constants of the reference G2-structure.

    phi has shape (7,7,7), psi has shape (7,7,7,7); both are totally
    antisymmetric with entries in {-1, 0, 1} and psi = *phi for the flat
    metric and the chosen orientation.
    """

    phi: np.ndarray
    psi: np.ndarray


def build_standard_tables() -> StructureTables:
    """The tables of PHI and PSI."""
    return StructureTables(phi=PHI, psi=PSI)


def cross(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross product (x × y)_k = x_a y_b phi_abk; broadcasts over trailing axes."""
    return np.einsum("abk,a...,b...->k...", PHI, x, y)


def diamond(h: np.ndarray, phi3: np.ndarray) -> np.ndarray:
    """Action of a symmetric 2-tensor on a 3-form:

    (h <> phi)_ijk = h_ip phi_pjk + h_jp phi_ipk + h_kp phi_ijp
    """
    scale = max(1.0, float(np.max(np.abs(h))))
    defect = float(np.max(np.abs(h - np.swapaxes(h, 0, 1))))
    if defect > 1e-12 * scale:
        raise ValueError(f"diamond requires a symmetric 2-tensor (defect {defect:g})")
    return (
        np.einsum("ip...,pjk...->ijk...", h, phi3)
        + np.einsum("jp...,ipk...->ijk...", h, phi3)
        + np.einsum("kp...,ijp...->ijk...", h, phi3)
    )


def validate_tables(tables: StructureTables) -> list[tuple[str, int]]:
    """Exhaustively evaluate every structure-constant identity.

    Returns (identity name, max absolute integer defect) pairs; all defects
    are zero for the standard tables.  Contractions are exact int64 sums.
    """
    phi, psi = tables.phi, tables.psi
    d = np.eye(7, dtype=np.int64)
    out: list[tuple[str, int]] = []

    def defect(name, arr):
        out.append((name, int(np.max(np.abs(arr)))))

    defect("phi_antisymmetric", np.stack([phi + np.swapaxes(phi, a, a + 1) for a in range(2)]))
    defect("psi_antisymmetric", np.stack([psi + np.swapaxes(psi, a, a + 1) for a in range(3)]))
    out.append(("phi_nonzero_count_42", abs(int((phi != 0).sum()) - 42)))
    out.append(("psi_nonzero_count_168", abs(int((psi != 0).sum()) - 168)))

    lhs = np.einsum("ijk,abk->ijab", phi, phi)
    rhs = np.einsum("ia,jb->ijab", d, d) - np.einsum("ib,ja->ijab", d, d) - psi
    defect("phi_phi_one_contraction", lhs - rhs)
    defect("phi_phi_two_contractions", np.einsum("ijk,ajk->ia", phi, phi) - 6 * d)
    out.append(("phi_phi_full_contraction_42", abs(int(np.einsum("ijk,ijk->", phi, phi)) - 42)))

    lhs = np.einsum("ijk,abck->ijabc", phi, psi)
    rhs = (
        np.einsum("ia,jbc->ijabc", d, phi)
        + np.einsum("ib,ajc->ijabc", d, phi)
        + np.einsum("ic,abj->ijabc", d, phi)
        - np.einsum("ja,ibc->ijabc", d, phi)
        - np.einsum("jb,aic->ijabc", d, phi)
        - np.einsum("jc,abi->ijabc", d, phi)
    )
    defect("phi_psi_one_contraction", lhs - rhs)
    defect("phi_psi_two_contractions", np.einsum("ijk,abjk->iab", phi, psi) + 4 * phi)
    defect("phi_psi_three_contractions", np.einsum("ijk,aijk->a", phi, psi))

    lhs = np.einsum("ijkl,abkl->ijab", psi, psi)
    rhs = 4 * np.einsum("ia,jb->ijab", d, d) - 4 * np.einsum("ib,ja->ijab", d, d) - 2 * psi
    defect("psi_psi_two_contractions", lhs - rhs)
    defect("psi_psi_three_contractions", np.einsum("ijkl,ajkl->ia", psi, psi) - 24 * d)
    out.append(("psi_psi_full_contraction_168", abs(int(np.einsum("ijkl,ijkl->", psi, psi)) - 168)))

    defect("star_phi_is_psi", hodge_star_3(phi) - psi)
    defect("star_psi_is_phi", hodge_star_4(psi) - phi)

    # phi ^ psi = 7 vol: the full contraction against the oriented epsilon
    wedge = 0
    for trip in _SORTED3:
        quad = tuple(sorted(set(range(7)) - set(trip)))
        wedge += ORIENTATION * _parity(trip + quad) * int(phi[trip]) * int(psi[quad])
    out.append(("phi_wedge_psi_is_7vol", abs(wedge - 7)))

    defect("metric_diamond_phi_is_3phi", diamond(np.eye(7), phi.astype(float)) - 3.0 * phi)
    # <x -| psi, y -| psi> = 4 <x,y> reduces to the psi_psi_three identity;
    # check its 3-form-inner-product normalization explicitly on a basis.
    gram = np.einsum("aijk,bijk->ab", psi, psi) / 6.0
    defect("interior_psi_isometry_4g", np.asarray(np.rint(gram - 4 * d), dtype=np.int64))
    return out
