"""Span oracles shared by the tests: dimensions and containments of the
spans of vector lists, each by a rank."""

from isoflag.linalg import Matrix


def span_dim(field, vectors) -> int:
    if not vectors:
        return 0
    return Matrix(field, vectors).rank()


def span_contains(field, big, small) -> bool:
    if not small:
        return True
    base = span_dim(field, big)
    return span_dim(field, list(big) + list(small)) == base


def span_perp(space, vectors) -> list:
    """Basis of the right perpendicular of span(vectors): the kernel of
    the rows G^T v, by ``Matrix.nullspace``; a zero row stands in for no
    vectors, whose perpendicular is the whole space."""
    f, gram_t = space.field, space.gram.transpose()
    rows = [gram_t.apply(v) for v in vectors] or [(f.zero,) * space.dim]
    return Matrix(f, rows).nullspace()
