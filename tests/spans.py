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
