"""Dense vector arithmetic and RREF matrices for the tests.

Inside `axial` a vector is a sparse row, and the package has no dense vector
arithmetic of its own.  These helpers work on the dense tuples its public API
takes and returns; `rref` reads its rows from `EchelonAccumulator`, the
package's one elimination engine.
"""

from axial.linalg import EchelonAccumulator, Matrix


def _zip(u, v):
    assert len(u) == len(v), f"vector lengths {len(u)} vs {len(v)}"
    return zip(u, v)


def vadd(u, v):
    return tuple(a + b for a, b in _zip(u, v))


def vsub(u, v):
    return tuple(a - b for a, b in _zip(u, v))


def vscale(c, u):
    return tuple(c * a for a in u)


def vzero(field, n: int):
    return (field.zero(),) * n


def is_zero_vec(u) -> bool:
    return not any(u)


def rref(m: Matrix) -> Matrix:
    """The reduced row-echelon form of m, of m's shape: the echelon rows by
    pivot, then zero rows."""
    acc = EchelonAccumulator.of(m.field, m.ncols, m.rows)
    rows = [acc.rows[p] for p in sorted(acc.rows)] + [{} for _ in range(m.nrows - acc.rank)]
    return Matrix._of(m.field, m.ncols, rows)
