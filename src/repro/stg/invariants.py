"""Structural invariants of Petri nets (S- and T-invariants).

Classic linear-algebraic net theory over the incidence matrix ``C``
(places x transitions, ``C[p][t] = post(p,t) - pre(p,t)``):

* a **T-invariant** is a non-negative integer vector ``x`` with
  ``C x = 0`` -- a multiset of transition firings reproducing a marking.
  A live cyclic STG should have a T-invariant firing every transition
  (for the marked-graph benchmarks: the all-ones vector).
* an **S-invariant** is a non-negative integer vector ``y`` with
  ``yᵀ C = 0`` -- a weighting of places whose token count is conserved.
  Every place of a live-and-safe marked graph lies on such an invariant,
  and the token count of an S-invariant bounds the marking (safeness
  evidence).

The kernels are computed by fraction-free integer elimination: exact
(no float error, no rational arithmetic), and the same primitive basis
as rational Gauss–Jordan -- each vector is the reduced row echelon
form's free-column vector scaled to coprime integers.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

from repro.stg.petrinet import PetriNet


def incidence_matrix(
    net: PetriNet,
) -> Tuple[List[str], List[str], List[List[int]]]:
    """(places, transitions, C) with C[i][j] = effect of t_j on p_i."""
    places = sorted(net.places)
    transitions = sorted(net.transitions)
    matrix = [[0] * len(transitions) for _ in places]
    p_index = {p: i for i, p in enumerate(places)}
    for j, transition in enumerate(transitions):
        for place in net.preset[transition]:
            matrix[p_index[place]][j] -= 1
        for place in net.postset[transition]:
            matrix[p_index[place]][j] += 1
    return places, transitions, matrix


def _kernel_basis(matrix: List[List[int]]) -> List[List[int]]:
    """An integer basis of the right kernel of ``matrix``.

    Gauss–Jordan elimination without fractions: pivots are chosen as the
    rational elimination chooses them (column by column, the first row
    with a non-zero entry), other rows are cross-multiplied against the
    pivot row and divided by their gcd.  Every row therefore stays a
    non-zero multiple of its reduced-row-echelon counterpart, and each
    free column's vector -- scaled by the lcm of the pivot magnitudes --
    is a positive multiple of the RREF kernel vector.
    """
    rows = [list(row) for row in matrix]
    cols = len(rows[0]) if rows else 0
    pivots: Dict[int, int] = {}  # column -> row index
    row_index = 0
    for col in range(cols):
        pivot_row = None
        for r in range(row_index, len(rows)):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[row_index], rows[pivot_row] = rows[pivot_row], rows[row_index]
        pivot = rows[row_index]
        pivot_value = pivot[col]
        for r, row in enumerate(rows):
            factor = row[col]
            if r != row_index and factor != 0:
                combined = [pivot_value * a - factor * b for a, b in zip(row, pivot)]
                divisor = gcd(*combined)
                if divisor > 1:
                    combined = [v // divisor for v in combined]
                rows[r] = combined
        pivots[col] = row_index
        row_index += 1
    scale = 1
    for col, row in pivots.items():
        scale = lcm(scale, rows[row][col])
    basis: List[List[int]] = []
    for free in range(cols):
        if free in pivots:
            continue
        vector = [0] * cols
        vector[free] = scale
        for col, row in pivots.items():
            vector[col] = -rows[row][free] * (scale // rows[row][col])
        basis.append(vector)
    return basis


def _to_integer(vector: Sequence[int]) -> List[int]:
    """The primitive vector on ``vector``'s ray: divided by its gcd."""
    divisor = gcd(*vector)
    if divisor > 1:
        return [v // divisor for v in vector]
    return list(vector)


def t_invariants(net: PetriNet) -> List[Dict[str, int]]:
    """Integer basis of ``C x = 0`` as transition->weight mappings."""
    _, transitions, matrix = incidence_matrix(net)
    basis = _kernel_basis(matrix)
    result = []
    for vector in basis:
        weights = _to_integer(vector)
        if all(w <= 0 for w in weights):
            weights = [-w for w in weights]
        result.append(
            {t: w for t, w in zip(transitions, weights) if w != 0}
        )
    return result


def s_invariants(net: PetriNet) -> List[Dict[str, int]]:
    """Integer basis of ``yᵀ C = 0`` as place->weight mappings."""
    places, _, matrix = incidence_matrix(net)
    transposed = [list(col) for col in zip(*matrix)] if matrix else []
    basis = _kernel_basis(transposed)
    result = []
    for vector in basis:
        weights = _to_integer(vector)
        if all(w <= 0 for w in weights):
            weights = [-w for w in weights]
        result.append({p: w for p, w in zip(places, weights) if w != 0})
    return result


def is_consistent_net(net: PetriNet) -> bool:
    """A positive T-invariant covering every transition exists.

    Necessary for a live bounded cyclic behaviour; checked by summing
    kernel basis vectors and testing positivity (sufficient for the
    marked-graph-like nets the benchmarks use; a full test would solve
    an LP).
    """
    if not net.transitions:
        return True
    invariants = t_invariants(net)
    totals = {t: 0 for t in net.transitions}
    for invariant in invariants:
        for t, w in invariant.items():
            totals[t] += w
    return all(v > 0 for v in totals.values())


def is_covered_by_s_invariants(net: PetriNet) -> bool:
    """Every place carries positive weight in the summed S-invariants.

    For ordinary nets this is structural evidence of boundedness.
    """
    if not net.places:
        return True
    invariants = s_invariants(net)
    totals = {p: 0 for p in net.places}
    for invariant in invariants:
        for p, w in invariant.items():
            totals[p] += w
    return all(v > 0 for v in totals.values())
