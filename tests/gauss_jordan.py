"""Dense Gauss–Jordan elimination over an exact field, for the tests only.

An independent reference for `SpanBasis`: rows of field scalars, reduced
in place, each pivot scaled to 1 and cleared from every other row.  It
shares no elimination code with the package.
"""

from __future__ import annotations

from typing import Sequence


def _axpy(field, dst: list, src: Sequence, c) -> None:
    """dst += c * src, in place."""
    p = field.characteristic
    if p == 0:
        for j, s in enumerate(src):
            if s:
                dst[j] += c * s
    else:
        for j, s in enumerate(src):
            if s:
                dst[j] = (dst[j] + c * s) % p


def _scale(field, row: list, c) -> None:
    p = field.characteristic
    if p == 0:
        for j, x in enumerate(row):
            if x:
                row[j] = x * c
    else:
        for j, x in enumerate(row):
            if x:
                row[j] = x * c % p


def rref(field, rows: Sequence[Sequence], ncols: int) -> tuple[list[list], list[int]]:
    """The reduced row echelon form of the matrix with these rows (same
    number of rows, zero rows last) and its pivot columns."""
    rows = [[field.normalize(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        best = next((i for i in range(r, len(rows)) if rows[i][col]), -1)
        if best < 0:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r]
        c = piv[col]
        if c != field.one:
            _scale(field, piv, field.inv(c))
        for i, row in enumerate(rows):
            if i != r and row[col]:
                _axpy(field, row, piv, -row[col] if field.characteristic == 0
                      else field.p - row[col])
        pivots.append(col)
        r += 1
    return rows, pivots


def rank(field, rows: Sequence[Sequence], ncols: int) -> int:
    return len(rref(field, rows, ncols)[1])


def nullspace(field, rows: Sequence[Sequence], ncols: int) -> list[list]:
    """Basis of {x : row·x = 0 for every row}, one vector per free column."""
    reduced, pivots = rref(field, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [field.zero] * ncols
        vec[free] = field.one
        for i, pc in enumerate(pivots):
            x = reduced[i][free]
            if x:
                vec[pc] = field.normalize(-x)
        basis.append(vec)
    return basis
