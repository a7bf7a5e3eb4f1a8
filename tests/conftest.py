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
def bireg40():
    return gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=11)


@pytest.fixture(scope="session")
def bibd91():
    # the fig3 design: 91 workers, delta = gamma = 10, lambda = 1
    return gc.bibd_transpose_from_difference_set(gc.builtin_difference_sets()[91], 91)
