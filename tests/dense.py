"""Dense change-of-basis matrices shared by the tests: a shear that is no
isometry in general, and a dense isometry of a model's space."""

from isoflag.linalg import Matrix


def dense_shear(f, nu):
    """L U with L, U unitriangular and every entry off the diagonal set:
    invertible, dense, and no isometry in general."""
    lower = Matrix(f, [[f.from_int(i + j + 1) if i > j else
                        f.one if i == j else f.zero for j in range(nu)]
                       for i in range(nu)])
    upper = Matrix(f, [[f.from_int(i * j + 2) if i < j else
                        f.one if i == j else f.zero for j in range(nu)]
                       for i in range(nu)])
    return lower * upper


def dense_isometry(space):
    """A product of up to three isometries x -> x + c (v, x) v for
    dense v.

    Without a quadratic form (an alternating G) these are the transvections,
    c = 1; with one, the reflections c = -Q(v)^-1, which preserve Q, for
    the first vectors v with Q(v) != 0 (over GF(2)^2 there is only one).
    """
    f, nu = space.field, space.dim
    h = Matrix.identity(f, nu)
    gram_t = space.gram.transpose()
    found = 0
    # bit j of a, plus 2 (a + j): dense patterns of 0 and 1 in
    # characteristic 2, dense and varying elsewhere
    for a in range(2 ** nu - 1, 0, -1):
        v = tuple(f.from_int((a >> j & 1) + 2 * (a + j)) for j in range(nu))
        if space.q_basis is None:
            c = f.one
        elif space.quad(v).is_zero:
            continue
        else:
            c = -space.quad(v).inverse()
        gv = gram_t.apply(v)  # (v, x) = (G^T v) . x
        step = Matrix(f, [[(f.one if i == j else f.zero) + c * v[i] * gv[j]
                           for j in range(nu)] for i in range(nu)])
        h = step * h
        found += 1
        if found == 3:
            break
    assert found, "no vector with Q(v) != 0"
    return h
