import json

import numpy as np
import pytest

import gradcoding as gc
from gradcoding.errors import ConstructionError, ParameterError


# ---------------------------------------------------------------------------
# difference sets


def test_validate_difference_set_known_planar_sets():
    assert gc.validate_difference_set([0, 1, 3], 7) == 1
    assert gc.validate_difference_set([0, 1, 3, 9], 13) == 1


def test_validate_difference_set_rejects_repeats():
    with pytest.raises(ParameterError):
        gc.validate_difference_set([0, 1, 8], 7)  # 8 = 1 mod 7


def test_validate_difference_set_rejects_uneven_counts():
    with pytest.raises(ParameterError, match="residue"):
        gc.validate_difference_set([0, 1, 2], 7)


def test_validate_difference_set_rejects_bad_divisibility():
    with pytest.raises(ParameterError):
        gc.validate_difference_set([0, 1, 3], 8)


def test_search_planar_finds_lexicographic_minimum():
    assert gc.search_planar_difference_set(7) == [0, 1, 3]
    assert gc.search_planar_difference_set(13) == [0, 1, 3, 9]


def test_search_planar_backtracks_past_internal_collisions():
    # candidates can collide with their own fresh differences, not only with
    # already-used residues; the search must reject and move on
    found = gc.search_planar_difference_set(21)
    assert gc.validate_difference_set(found, 21) == 1


def test_search_planar_rejects_wrong_arithmetic():
    for v in (8, 2, 1, 0, -3):
        with pytest.raises(ParameterError, match=f"v={v}"):
            gc.search_planar_difference_set(v)


def test_builtin_table_entries_validate():
    table = gc.builtin_difference_sets()
    assert set(table) == {7, 13, 91}
    for v, diff_set in table.items():
        assert gc.validate_difference_set(diff_set, v) == 1


def test_load_difference_set_roundtrip(tmp_path):
    path = tmp_path / "ds.json"
    path.write_text(json.dumps({"v": 7, "set": [0, 1, 3]}))
    assert gc.load_difference_set(path) == (7, [0, 1, 3])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([0, 1, 3]))
    with pytest.raises(ParameterError):
        gc.load_difference_set(bad)


# ---------------------------------------------------------------------------
# symmetric design transpose


def test_bibd_transpose_shape_and_params(fano):
    assert fano.mat.shape == (7, 7)
    assert fano.delta == 3 and fano.gamma == 3
    assert fano.family == gc.BIBD_TRANSPOSE
    assert fano.params == gc.BibdParams(n=7, k=7, gamma=3, delta=3, lam=1)


def test_bibd_rows_are_cyclic_shifts(fano):
    for i in range(7):
        assert np.array_equal(fano.mat[i], np.roll(fano.mat[0], i))


def test_bibd_gram_identity_exact(fano):
    ints = fano.mat.astype(np.int64)
    want = 2 * np.eye(7, dtype=np.int64) + np.ones((7, 7), dtype=np.int64)
    assert np.array_equal(ints.T @ ints, want)


def test_validate_bibd_passes_construction(fano):
    report = gc.validate_bibd(fano.mat, fano.params)
    assert report.ok
    assert report.first_failure() is None
    names = [name for name, _, _ in report.checks]
    assert "gram_identity" in names


def test_validate_bibd_detects_flipped_cell(fano):
    mat = fano.mat.copy()
    mat[0, 0] = 0.0
    report = gc.validate_bibd(mat, fano.params)
    assert not report.ok


def test_validate_bibd_detects_nonbinary(fano):
    mat = fano.mat.copy()
    mat[0, 0] = 0.5
    report = gc.validate_bibd(mat, fano.params)
    assert not report.ok
    assert "(0,0)" in report.first_failure()


def test_validate_bibd_detects_wrong_lambda(fano):
    wrong = gc.BibdParams(n=7, k=7, gamma=3, delta=3, lam=2)
    assert not gc.validate_bibd(fano.mat, wrong).ok


# ---------------------------------------------------------------------------
# strongly regular graphs


def test_paley13_parameters(paley13):
    assert paley13.params == gc.SrgParams(n=13, delta=6, lam=2, mu=3)
    assert paley13.delta == 6 and paley13.gamma == 6
    assert paley13.family == gc.SRG_ADJACENCY


def test_paley13_adjacency_identity(paley13):
    ints = paley13.mat.astype(np.int64)
    n = 13
    jmat = np.ones((n, n), dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    want = 6 * eye + 2 * ints + 3 * (jmat - eye - ints)
    assert np.array_equal(ints @ ints, want)


def test_paley5_is_pentagon():
    A = gc.srg_paley(5)
    assert A.params == gc.SrgParams(n=5, delta=2, lam=0, mu=1)


def test_paley_rejects_bad_modulus():
    with pytest.raises(ParameterError):
        gc.srg_paley(7)  # 3 mod 4
    with pytest.raises(ParameterError):
        gc.srg_paley(9)  # not prime
    with pytest.raises(ParameterError):
        gc.srg_paley(4)


def test_validate_srg_detects_self_loop(paley13):
    mat = paley13.mat.copy()
    mat[0, 0] = 1.0
    assert not gc.validate_srg(mat, paley13.params).ok


def test_validate_srg_detects_asymmetry(paley13):
    mat = paley13.mat.copy()
    i, j = np.argwhere(mat == 1.0)[0]
    mat[i, j] = 0.0
    report = gc.validate_srg(mat, paley13.params)
    assert not report.ok
    assert "symmetry" in report.first_failure()


# ---------------------------------------------------------------------------
# coset bipartite graphs


def test_coset_shape_and_identical_blocks(coset_small):
    assert coset_small.mat.shape == (3, 6)
    assert coset_small.delta == 2 and coset_small.gamma == 4
    assert np.array_equal(coset_small.mat[:, :3], coset_small.mat[:, 3:])


def test_coset_single_generator_gives_identity_blocks():
    A = gc.coset_bipartite(gc.CosetParams(k=3, m=2, delta=1, generating_set=(0,)))
    assert A.mat.shape == (3, 6)
    assert np.array_equal(A.mat[:, :3], np.eye(3))
    assert np.array_equal(A.mat[:, 3:], np.eye(3))


def test_coset_base_block_is_circulant(coset27):
    base = gc.coset_base_block(coset27.params)
    for i in range(27):
        assert np.array_equal(base[i], np.roll(base[0], i))


def test_coset_params_validation():
    with pytest.raises(ParameterError):
        gc.CosetParams(k=3, m=2, delta=2, generating_set=(0, 0))
    with pytest.raises(ParameterError):
        gc.CosetParams(k=3, m=2, delta=2, generating_set=(0, 5))
    with pytest.raises(ParameterError):
        gc.CosetParams(k=3, m=2, delta=3, generating_set=(0, 1))
    with pytest.raises(ParameterError):
        gc.CosetParams(k=0, m=2, delta=1, generating_set=(0,))


def test_coset_invertibility_guaranteed_case(coset27):
    # k = 3^3 and the prime 3 does not divide delta = 5
    assert gc.coset_is_invertible_base(coset27.params)


def test_coset_invertibility_negative_control():
    p = gc.CosetParams(k=4, m=2, delta=2, generating_set=(0, 1))
    assert not gc.coset_is_invertible_base(p)


# ---------------------------------------------------------------------------
# random bi-regular graphs


def test_biregular_weights_and_family(bireg40):
    assert bireg40.mat.shape == (20, 40)
    assert np.all(bireg40.mat.sum(axis=0) == 3)
    assert np.all(bireg40.mat.sum(axis=1) == 6)
    assert bireg40.family == gc.BI_REGULAR


def test_biregular_deterministic_per_seed():
    a = gc.biregular_random(n=12, k=6, delta=2, gamma=4, seed=7)
    b = gc.biregular_random(n=12, k=6, delta=2, gamma=4, seed=7)
    c = gc.biregular_random(n=12, k=6, delta=2, gamma=4, seed=8)
    assert np.array_equal(a.mat, b.mat)
    assert not np.array_equal(a.mat, c.mat)


def test_biregular_rejects_infeasible_degrees():
    with pytest.raises(ParameterError):
        gc.biregular_random(n=10, k=4, delta=3, gamma=6, seed=0)  # 24 != 30
    with pytest.raises(ParameterError):
        gc.biregular_random(n=2, k=1, delta=2, gamma=4, seed=0)  # delta > k


def test_assignment_matrix_rejects_wrong_weights(fano):
    with pytest.raises(ParameterError):
        gc.AssignmentMatrix(fano.mat, delta=2, gamma=3, family="x", params=None)
    bad = fano.mat.copy()
    bad[0, 0] = 2.0
    with pytest.raises(ParameterError):
        gc.AssignmentMatrix(bad, delta=3, gamma=3, family="x", params=None)


@pytest.mark.parametrize(
    "family, names",
    [
        ("fano", ["binary_entries", "shape", "delta_exceeds_lambda", "row_sums", "column_sums", "gram_identity"]),
        ("paley13", ["binary_entries", "square", "symmetry", "zero_diagonal", "not_empty", "not_complete",
                     "regularity", "srg_identity"]),
        ("coset_small", ["matches_construction", "base_block_invertible"]),
        ("bireg40", ["matches_construction"]),
    ],
)
def test_validate_design_picks_the_family_checks(request, family, names):
    A = request.getfixturevalue(family)
    report = gc.validate_design(A.mat, A)
    assert report.ok and report.family == A.family
    assert [name for name, _, _ in report.checks] == names
    flipped = A.mat.copy()
    flipped[0, 0] = 1.0 - flipped[0, 0]
    assert not gc.validate_design(flipped, A).ok
