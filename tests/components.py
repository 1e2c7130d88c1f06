"""Identity-component oracle for intertwiners: whether T lies in the
identity component of the isometry group, by a rank."""

from isoflag.shapes import ORTHOGONAL


def component_check(model, t_mat, flag) -> bool:
    """Whether T lies in the identity component of the isometry group.

    Immediate (True) except for even-dimensional orthogonal spaces, where
    the two SO-orbits of maximal isotropic subspaces are compared via the
    parity of dim(T V_n meet V_n) - n, a rank and so exact over every
    field.
    """
    if model.mode != ORTHOGONAL or model.shape.kappa == 1:
        return True
    n = model.space.dim // 2
    m = flag.inverse * t_mat * flag.basis
    # dim(T V_n meet V_n) = n - rank(M[n:, :n]) for M = B^{-1} T B
    return m.submatrix(n, m.nrows, 0, n).rank() % 2 == 0
