"""The two-sided ideals I_k and J_k and the direct-sum decomposition.

For each k the algebra splits as k[S_n] = I_k (+) J_k whenever n! is
invertible.  The rank of I_k equals the number of permutations avoiding an
increasing pattern of length k + 1, so the row k = 2 reproduces the Catalan
numbers.  This demo prints the rank table for n <= 5 and then verifies the
full decomposition at one (n, k) in detail.

Run:  python3 demos/ideal_decomposition.py
"""

from math import factorial

from snalg.ideals import build_I_basis, build_J_basis, verify_row_main
from snalg.perm import enumerate_av


def main() -> None:
    print("rank I_k / rank J_k over the rationals (columns k = 0..n):")
    for n in range(1, 6):
        cells = []
        for k in range(n + 1):
            ri = build_I_basis(n, k).rank()
            rj = build_J_basis(n, k).rank()
            assert ri + rj == factorial(n)
            assert ri == len(enumerate_av(n, k + 1))
            cells.append(f"{ri}/{rj}")
        print(f"  n={n}:  " + "  ".join(cells))
    print()

    catalan = [build_I_basis(n, 2).rank() for n in range(1, 6)]
    print(f"rank I_2 for n = 1..5 (Catalan numbers): {catalan}")
    print()

    n, k = 4, 2
    rep = verify_row_main(n, k)
    print(f"full decomposition check at n = {n}, k = {k}:")
    print(rep)


if __name__ == "__main__":
    main()
