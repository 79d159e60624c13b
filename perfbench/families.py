"""Lie algebra families, their named subalgebras and trace polynomials.

Every algebra is produced as an lpl model dict (the JSON shape that
``lpl.cli.parse_model`` reads): ``{"name", "dim", "basis", "brackets"}``
with rationals written as strings.  Structure constants are exact: the
matrix families compute commutators of sparse integer matrices and read the
result back in the family's basis.

Basis orders:
- gl_n: E_rc in row-major order, index r*n + c (gl2 matches the bundled
  ``gl2.json``: a, b, c, d = E11, E12, E21, E22);
- sl_n: the off-diagonal E_rc in row-major order, then H_i = E_ii - E_(i+1)(i+1);
- so_n: A_rc = E_rc - E_cr for r < c, row-major;
- h_(2k+1): x_1..x_k, y_1..y_k, z with [x_i, y_i] = z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as cartesian

from lpl.lie_poisson import Polynomial

Sparse = dict  # {(row, col): Fraction} for matrices, {index: Fraction} for vectors


def _commutator(a: Sparse, b: Sparse) -> Sparse:
    out: Sparse = {}
    for (r, k), x in a.items():
        for (k2, c), y in b.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) + x * y
    for (r, k), x in b.items():
        for (k2, c), y in a.items():
            if k == k2:
                out[(r, c)] = out.get((r, c), 0) - x * y
    return {key: v for key, v in out.items() if v != 0}


def _model(name: str, labels: list[str], brackets: dict) -> dict:
    """Model dict from {(i, j): {k: coefficient}} given for i < j."""
    entries = []
    for (i, j) in sorted(brackets):
        terms = [
            {"k": k, "coefficient": str(Fraction(c))}
            for k, c in sorted(brackets[(i, j)].items())
            if c != 0
        ]
        if terms:
            entries.append({"i": i, "j": j, "terms": terms})
    return {"name": name, "dim": len(labels), "basis": labels, "brackets": entries}


def _matrix_model(name: str, labels: list[str], basis: list[Sparse], coords) -> dict:
    brackets = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            brackets[(i, j)] = coords(_commutator(basis[i], basis[j]))
    return _model(name, labels, brackets)


def gl(n: int) -> dict:
    basis = [{(r, c): 1} for r, c in cartesian(range(n), repeat=2)]
    labels = [f"E{r + 1}{c + 1}" for r, c in cartesian(range(n), repeat=2)]
    return _matrix_model(f"gl{n}", labels, basis, lambda m: {r * n + c: v for (r, c), v in m.items()})


def _sl_offdiag(n: int) -> list[tuple[int, int]]:
    return [(r, c) for r, c in cartesian(range(n), repeat=2) if r != c]


def sl(n: int) -> dict:
    off = _sl_offdiag(n)
    index = {rc: a for a, rc in enumerate(off)}
    basis = [{rc: 1} for rc in off] + [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    labels = [f"E{r + 1}{c + 1}" for r, c in off] + [f"H{i + 1}" for i in range(n - 1)]

    def coords(m: Sparse) -> Sparse:
        out = {index[rc]: v for rc, v in m.items() if rc[0] != rc[1]}
        # A traceless diagonal diag(d_1..d_n) is sum_i (d_1 + .. + d_i) H_i.
        running = 0
        for i in range(n - 1):
            running += m.get((i, i), 0)
            out[len(off) + i] = running
        return out

    return _matrix_model(f"sl{n}", labels, basis, coords)


def so(n: int) -> dict:
    pairs = [(r, c) for r in range(n) for c in range(r + 1, n)]
    index = {rc: a for a, rc in enumerate(pairs)}
    basis = [{(r, c): 1, (c, r): -1} for r, c in pairs]
    labels = [f"A{r + 1}{c + 1}" for r, c in pairs]
    return _matrix_model(
        f"so{n}", labels, basis, lambda m: {index[rc]: v for rc, v in m.items() if rc[0] < rc[1]}
    )


def heisenberg(k: int) -> dict:
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    return _model(f"h{2 * k + 1}", labels, {(i, k + i): {2 * k: 1} for i in range(k)})


# -- named subalgebras, as lists of integer coordinate vectors ---------------


def unit(dim: int, a: int) -> list[int]:
    v = [0] * dim
    v[a] = 1
    return v


def gl_subalgebra(n: int, kind: str, blocks: tuple[int, ...] = ()) -> list[list[int]]:
    """Borel, Cartan, nilradical, so_n or the parabolic with the given blocks."""
    dim = n * n
    if kind == "so":
        return [[1 if a == r * n + c else -1 if a == c * n + r else 0 for a in range(dim)]
                for r in range(n) for c in range(r + 1, n)]
    keep = _entry_filter(n, kind, blocks)
    return [unit(dim, r * n + c) for r, c in cartesian(range(n), repeat=2) if keep(r, c)]


def sl_subalgebra(n: int, kind: str, blocks: tuple[int, ...] = ()) -> list[list[int]]:
    """The same named subalgebras inside sl_n (the diagonal part is the H_i)."""
    off = _sl_offdiag(n)
    dim = len(off) + n - 1
    if kind == "so":
        index = {rc: a for a, rc in enumerate(off)}
        return [[1 if a == index[(r, c)] else -1 if a == index[(c, r)] else 0 for a in range(dim)]
                for r in range(n) for c in range(r + 1, n)]
    keep = _entry_filter(n, kind, blocks)
    vectors = [unit(dim, a) for a, (r, c) in enumerate(off) if keep(r, c)]
    if keep(0, 0):
        vectors += [unit(dim, len(off) + i) for i in range(n - 1)]
    return vectors


def _entry_filter(n: int, kind: str, blocks: tuple[int, ...]):
    if kind == "borel":
        return lambda r, c: r <= c
    if kind == "cartan":
        return lambda r, c: r == c
    if kind == "nilradical":
        return lambda r, c: r < c
    if kind == "parabolic":
        if sum(blocks) != n:
            raise ValueError(f"blocks {blocks} do not partition {n}")
        block_of = [b for b, size in enumerate(blocks) for _ in range(size)]
        return lambda r, c: block_of[r] <= block_of[c]
    raise ValueError(f"unknown subalgebra kind {kind!r}")


def offdiagonal(model: dict) -> list[list[int]]:
    """The off-diagonal E_rc of gl_n or sl_n: never a subalgebra for n >= 2."""
    return [unit(model["dim"], a) for a, label in enumerate(model["basis"])
            if label[0] == "E" and label[1] != label[2]]


def heisenberg_centre(k: int) -> list[list[int]]:
    return [unit(2 * k + 1, 2 * k)]


# -- trace polynomials --------------------------------------------------------


def trace_power(model: dict, n: int, k: int) -> str:
    """tr X^k on gl_n* or sl_n* in the coordinates nu_1..nu_dim, as lpl text.

    X is the matrix paired with a covector by the trace form, so tr X^k is
    coadjoint-invariant: a Casimir.  For gl_n, X_rc = nu(E_rc); for sl_n the
    diagonal of the traceless X is recovered from nu(H_i) = X_ii - X_(i+1)(i+1).
    """
    labels = model["basis"]
    dim = len(labels)
    zero = Polynomial.zero(dim)
    entries = {
        (int(x[1]) - 1, int(x[2]) - 1): Polynomial.variable(dim, a)
        for a, x in enumerate(labels)
        if x[0] == "E"
    }
    if model["name"].startswith("sl"):
        h = [Polynomial.variable(dim, labels.index(f"H{j}")) for j in range(1, n)]
        # 1-based: X_ii = (sum_{j >= i} (n - j) h_j - sum_{j < i} j h_j) / n.
        for i in range(1, n + 1):
            weights = [Fraction(n - j if j >= i else -j, n) for j in range(1, n)]
            entries[(i - 1, i - 1)] = sum((hj.scale(w) for hj, w in zip(h, weights)), zero)
    power = entries
    for _ in range(k - 1):
        power = {
            (r, c): sum((power[(r, m)] * entries[(m, c)] for m in range(n)), zero)
            for r, c in cartesian(range(n), repeat=2)
        }
    return str(sum((power[(i, i)] for i in range(n)), zero))
