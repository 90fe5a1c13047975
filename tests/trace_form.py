"""The trace form of the Δ-algebra as one whole matrix, for checking only.

`dalg.radical_dim` ranks the trace form block by block and never builds
it; this is the dense reference it is checked against, here and at n = 6
in CI (`PYTHONPATH=src:tests`, then `from trace_form import
unitalized_gram`).
"""

from __future__ import annotations

from snalg.dalg import _blocks, _left_traces, _pair_row, d_dim


def unitalized_gram(n: int) -> list[list[int]]:
    """Gram matrix of (x, y) ↦ trace(L_{xy}) on the unitalization; index 0
    is the adjoined unity.  Entry (Δ_{D,C}, Δ_{B,A}) is Σ_u coeffs[u]·S(D,A,u),
    with S(D,A,u) the sum of τ over `_blocks(n, D, A)[u]`."""
    dim = d_dim(n)
    traces = _left_traces(n)
    size = dim + 1
    g = [[0] * size for _ in range(size)]
    g[0][0] = size
    for i in range(dim):
        g[0][i + 1] = g[i + 1][0] = traces[i]
    # per block (dmask, amask): the sum of τ over each size u of the block
    sums: dict[tuple[int, int], list[int]] = {}
    for i in range(dim):
        for j in range(i, dim):
            row, key = _pair_row(n, i, j)
            s = sums.get(key)
            if s is None:
                s = sums[key] = [
                    sum(traces[t] for t in block) for block in _blocks(n, *key)
                ]
            g[i + 1][j + 1] = g[j + 1][i + 1] = sum(c * x for c, x in zip(row, s))
    return g

