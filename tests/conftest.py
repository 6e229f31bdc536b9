from contextlib import contextmanager

import numpy as np
import pytest

import ssvi
from ssvi import blas, dictionary


@pytest.fixture(scope="session")
def coarse_spec():
    """Small d=2 dictionary shared by fast tests."""
    return ssvi.build_dictionary(2, 2.0, 1.0)


@pytest.fixture(scope="session")
def coarse_gram(coarse_spec):
    return ssvi.gram_matrix(coarse_spec)


@pytest.fixture(scope="session")
def d4_gram():
    """Gram matrix with three leaf blocks (d=4, R=1, delta=0.5, p=136)."""
    return ssvi.gram_matrix(ssvi.build_dictionary(4, 1.0, 0.5))


@pytest.fixture(scope="session")
def gauss2_target():
    return ssvi.GaussianTarget(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))


@pytest.fixture(scope="session")
def gauss3_target():
    cov = np.array([[1.0, 0.4, 0.3], [0.4, 1.0, 0.2], [0.3, 0.2, 1.2]])
    return ssvi.GaussianTarget(np.zeros(3), cov)


def random_admissible_params(spec, rng, scale=0.2):
    """Random parameters inside the cone with a positive diagonal."""
    lam = rng.uniform(0.0, scale, spec.p)
    free = ~spec.constrained
    lam[free] = rng.normal(0.0, 0.5 * scale, free.sum())
    alpha = rng.uniform(0.8, 1.2, spec.d)
    v = rng.normal(0.0, 0.3, spec.d)
    return ssvi.StarMapParams(alpha, lam, v)


def basis_values(spec, X):
    """Centered value of every basis at every row of X, shape (p, n).

    A reference evaluator, one basis at a time, for the map code in
    ``ssvi.starmap``; each basis lives on coordinate ``spec.coord``.
    """
    X = np.asarray(X, dtype=float)
    x1 = X[:, 0]
    vals = np.empty((spec.p, len(X)))
    for idx in range(spec.p):
        bid = spec.id_of(idx)
        t = np.clip(((x1 if bid.cls in ("M0", "M5") else X[:, bid.i])
                     - bid.b) / spec.delta, 0, 1)
        if bid.cls in ("M1", "M2"):
            u = (x1 - bid.bprime) / spec.delta
            gate = (u >= 0) & (u < 1)
            t = t * (u if bid.cls == "M1" else 1 - u) * gate
        elif bid.cls == "M3":
            t = t * (x1 >= spec.R)
        elif bid.cls == "M4":
            t = t * (x1 < -spec.R)
        vals[idx] = t - spec.centering[idx]
    return vals


def dense_gram(gram):
    """The dense p×p Q of a ``GramMatrix``, assembled from its two blocks:
    the reference its block-wise operations are checked against."""
    spec = gram.spec
    Q = np.zeros((spec.p, spec.p))
    Q[:spec.N, :spec.N] = gram.Q_root
    for idx in spec.leaf_index:
        Q[np.ix_(idx, idx)] = gram.Q_leaf
    return Q


def factor_rows(spec, bid):
    """Rows (f, g) of the 1-D factor table V of ``dictionary._factor_rule``
    ([const, ramp_0.., up_0.., down_0.., hi, lo]) for the basis ``bid``,
    f(x_i)·g(x₁) before centering; M0 is its root ramp times the constant."""
    N = spec.N

    def at(b):
        return int(round((b + spec.R) / spec.delta))

    if bid.cls == "M0":
        return 1 + at(bid.b), 0
    if bid.cls == "M5":
        return 0, 1 + at(bid.b)
    if bid.cls in ("M1", "M2"):
        first = N + 1 if bid.cls == "M1" else 2 * N + 1
        return 1 + at(bid.b), first + at(bid.bprime)
    return 1 + at(bid.b), 3 * N + (1 if bid.cls == "M3" else 2)


def reference_gram_blocks(spec):
    """(Q_root, Q_leaf) by a gather per basis pair, M[f, f′]·M[g, g′] − c cᵀ
    with M the rule's symmetrised second moments and c = mean[f]·mean[g]:
    the reference the broadcast build of ``ssvi.gram_matrix`` is checked
    against, bit for bit."""
    V, w = dictionary._factor_rule(spec)
    M = (V * w) @ V.T
    M = 0.5 * (M + M.T)
    mean = (V * w).sum(axis=1)
    blocks = []
    for idx in (np.arange(spec.N), spec.leaf_index[0]):
        f, g = np.array([factor_rows(spec, spec.id_of(i)) for i in idx]).T
        c = mean[f] * mean[g]
        blocks.append(M[np.ix_(f, f)] * M[np.ix_(g, g)] - np.outer(c, c))
    return tuple(blocks)


@contextmanager
def two_threads():
    """Run the block with both OpenBLAS pools at two threads, restoring
    their counts on exit.  Launched pools may already run one thread, so a
    pin to one and its restore show only from a start at two."""
    entries = [blas._entry_points(pool) for pool in blas._POOLS]
    old = [get() for get, _ in entries]
    for _, set_ in entries:
        set_(2)
    try:
        yield
    finally:
        for (_, set_), n in zip(entries, old):
            set_(n)
