import pytest

import gradcoding as gc


@pytest.fixture(scope="session")
def fano():
    # smallest symmetric design: 7 workers, delta = gamma = 3, lambda = 1
    return gc.bibd_transpose_from_difference_set([0, 1, 3], 7)


@pytest.fixture(scope="session")
def paley13():
    return gc.srg_paley(13)


@pytest.fixture(scope="session")
def coset_small():
    return gc.coset_bipartite(gc.CosetParams(k=3, m=2, delta=2, generating_set=(0, 1)))


@pytest.fixture(scope="session")
def coset27():
    return gc.coset_bipartite(
        gc.CosetParams(k=27, m=2, delta=5, generating_set=tuple(range(5)))
    )


@pytest.fixture(scope="session")
def coset27_singular():
    # the mask 1 + x + x^2 vanishes at the cube roots of unity: C has rank
    # 25 and distinct columns, so the workers pair up with no class inverse
    return gc.coset_bipartite(gc.CosetParams(k=27, m=2, delta=3, generating_set=(0, 1, 2)))


@pytest.fixture(scope="session")
def bireg40():
    return gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=11)


@pytest.fixture(scope="session")
def biplane11():
    # the quadratic residues mod 11: 11 workers, delta = gamma = 5, lambda = 2
    return gc.bibd_transpose_from_difference_set([1, 3, 4, 5, 9], 11)


@pytest.fixture(scope="session")
def bibd13():
    # the projective plane of order 3: 13 workers, delta = gamma = 4, lambda = 1
    return gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[13], 13)


@pytest.fixture(scope="session")
def bibd91():
    # the fig3 design: 91 workers, delta = gamma = 10, lambda = 1
    return gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[91], 91)
