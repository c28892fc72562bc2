"""File formats, gene selection, normalization, and fold construction."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from metagx import data, evaluate
from metagx.errors import ParseError, ScaleError, SelectionError, SplitError
from metagx.models import ModelConfig
from metagx.training import MetaConfig


def make_dataset(name="d", n=6, genes=("A", "B", "C"), seed=0, labels=None):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, len(genes)))
    if labels is None:
        labels = (rng.random(n) < 0.5).astype(float)
    return data.ExpressionDataset(name, tuple(genes), matrix, np.asarray(labels, dtype=float))


def cohort(matrix, genes=None):
    """A dataset named "m" over ``matrix``, for the matrix-level normalization tests."""
    matrix = np.asarray(matrix, dtype=float)
    genes = genes or tuple(f"G{j}" for j in range(matrix.shape[1]))
    return data.ExpressionDataset("m", genes, matrix, np.zeros(matrix.shape[0]))


# ---------------------------------------------------------------------------
# expression TSV


def test_expression_round_trip(tmp_path):
    ds = make_dataset(n=5, seed=3)
    path = tmp_path / "cohort.tsv"
    data.write_expression_tsv(ds, path)
    back = data.load_expression_tsv(path)
    assert back.name == "cohort"
    assert back.gene_ids == ds.gene_ids
    np.testing.assert_array_equal(back.matrix, ds.matrix)
    np.testing.assert_array_equal(back.labels, ds.labels)


def test_expression_loader_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "sample_id\tA\tB\tlabel\n" "s1\t1.0\t2.0\t1\n" "s2\t1.0\toops\t0\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=r"bad\.tsv:3.*'B'.*'oops'"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_bad_label(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tA\tlabel\ns1\t1.0\t2\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.tsv:2.*label"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_ragged_row(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tA\tB\tlabel\ns1\t1.0\t0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"bad\.tsv:2.*columns"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tA\tlabel\ns1\t1.0\t0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="header"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_duplicate_gene(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tA\tA\tlabel\ns1\t1.0\t2.0\t0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="duplicate gene"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_empty_body(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tA\tlabel\n", encoding="utf-8")
    with pytest.raises(ParseError, match="no sample rows"):
        data.load_expression_tsv(path)


def test_expression_loader_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("sample_id\tA\tlabel\ns1\tinf\t0\n", encoding="utf-8")
    with pytest.raises(ParseError, match="non-finite"):
        data.load_expression_tsv(path)


SPECIAL_VALUES = [-0.0, 5e-324, -2.2e-308, 1e308, -1e308, 1.5e-05, 2.5e+300, 1e16]


@settings(deadline=None)
@given(
    matrix=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, max_side=4),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    )
)
@example(matrix=np.array([SPECIAL_VALUES]))
@example(matrix=np.array([SPECIAL_VALUES[::-1], SPECIAL_VALUES]))
def test_expression_round_trip_is_bitwise(tmp_path_factory, matrix):
    labels = np.arange(matrix.shape[0]) % 2
    genes = tuple(f"G{j}" for j in range(matrix.shape[1]))
    ds = data.ExpressionDataset("d", genes, matrix, labels)
    path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
    data.write_expression_tsv(ds, path)
    back = data.load_expression_tsv(path)
    assert back.gene_ids == genes
    assert back.matrix.tobytes() == ds.matrix.tobytes()
    assert back.labels.tobytes() == ds.labels.tobytes()


@pytest.mark.parametrize(
    "cells, reported",
    [
        (("1.0", "nan", "oops"), "'B' has non-finite value 'nan'"),
        (("1.0", "oops", "nan"), "'B' has non-numeric value 'oops'"),
        (("1e999", "x"), "'A' has non-finite value '1e999'"),
        (("x", "-inf"), "'A' has non-numeric value 'x'"),
    ],
)
def test_expression_loader_reports_leftmost_bad_cell(tmp_path, cells, reported):
    genes = "ABC"[: len(cells)]
    path = tmp_path / "bad.tsv"
    path.write_text(
        "sample_id\t" + "\t".join(genes) + "\tlabel\n"
        + "s1\t" + "\t".join("1" for _ in genes) + "\t0\n"
        + "s2\t" + "\t".join(cells) + "\t1\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as err:
        data.load_expression_tsv(path)
    assert str(err.value) == f"{path}:3: column {reported}"


@pytest.mark.parametrize("cell", ["inf", "oops"])
def test_expression_loader_reports_bad_cell_before_later_ragged_row(tmp_path, cell):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "sample_id\tA\tB\tlabel\n"
        f"s1\t1.0\t{cell}\t0\n"
        "s2\t1.0\t2.0\t1\n"
        "s3\t1.0\t2.0\t0\n"
        "s4\t1.0\t0\n",
        encoding="utf-8",
    )
    with pytest.raises(ParseError, match=rf"bad\.tsv:2: column 'B' has non-\w+ value '{cell}'"):
        data.load_expression_tsv(path)


def test_expression_loader_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "ok.tsv"
    path.write_text("sample_id\tA\tB\tC\tlabel\ns1\t1_000\t 2.5 \t1E3\t1\n", encoding="utf-8")
    back = data.load_expression_tsv(path)
    assert back.matrix.tolist() == [[1000.0, 2.5, 1000.0]]


@pytest.mark.parametrize(
    "load, body",
    [
        (data.load_expression_tsv, b"sample_id\tA\tlabel\ns1\t\xff\t0\n"),
        (data.load_interactions_tsv, b"A\tB\n\xffC\tD\n"),
    ],
)
def test_loaders_name_a_file_that_is_not_utf8(tmp_path, load, body):
    path = tmp_path / "latin.tsv"
    path.write_bytes(body)
    with pytest.raises(ParseError, match=re.escape(f"file {path} is not valid UTF-8")):
        load(path)


@pytest.mark.parametrize(
    "load, body, line",
    [
        (data.load_expression_tsv, "sample_id\tA\tlabel\r\ns1\t1.5\t1\r\n", 1),
        (data.load_expression_tsv, "sample_id\tA\tlabel\ns1\t1.5\r1\n", 2),
        (data.load_interactions_tsv, "# pairs\nA\tB\r\nC\tD\r\n", 2),
        (data.load_interactions_tsv, "A\tB\nC\tD\n\rE\tF\n", 3),
    ],
)
def test_loaders_reject_carriage_returns(tmp_path, load, body, line):
    path = tmp_path / "cr.tsv"
    path.write_bytes(body.encode("utf-8"))
    with pytest.raises(ParseError, match=re.escape(f"{path}:{line}: carriage return")):
        load(path)


def test_dataset_validation():
    with pytest.raises(ValueError, match="duplicates"):
        data.ExpressionDataset("d", ("A", "A"), np.ones((2, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="labels"):
        data.ExpressionDataset("d", ("A",), np.ones((2, 1)), np.array([0.0, 2.0]))
    with pytest.raises(ValueError, match="columns"):
        data.ExpressionDataset("d", ("A",), np.ones((2, 2)), np.zeros(2))
    ds = make_dataset()
    with pytest.raises(ValueError):
        ds.matrix[0, 0] = 99.0  # stored arrays are read-only


# ---------------------------------------------------------------------------
# interactions


def test_interactions_parse_comments_and_blanks(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("# header comment\nA\tB\n\nB\tC\nC\tA\n", encoding="utf-8")
    assert data.load_interactions_tsv(path) == {"A", "B", "C"}


def test_interactions_pair_order_is_canonical(tmp_path):
    p1 = tmp_path / "p1.tsv"
    p2 = tmp_path / "p2.tsv"
    p1.write_text("B\tA\n", encoding="utf-8")
    p2.write_text("A\tB\n", encoding="utf-8")
    assert data.load_interactions_tsv(p1) == data.load_interactions_tsv(p2)


def test_interactions_repeated_and_reversed_pairs_name_two_genes(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("A\tB\nB\tA\nB\tA\n", encoding="utf-8")
    assert data.load_interactions_tsv(path) == frozenset({"A", "B"})


def test_interactions_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_text("A\tB\nA\tB\tC\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"pairs\.tsv:2"):
        data.load_interactions_tsv(path)


# gene symbols never start with '#' and hold no whitespace
SYMBOLS = st.text(alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-._", min_size=1, max_size=6)
# lines the loader skips, among them a comment that holds a tab
SKIPPED = st.sampled_from(["", "   ", "# pairs", "  # indented\tcomment"])


@st.composite
def interaction_lines(draw, bad_fields=None):
    """Pair lines with skipped lines inserted anywhere: ``(pairs, lines)``.
    With ``bad_fields``, one line of that many symbols is put at a random
    place and its index is returned as well."""
    pairs = draw(st.lists(st.tuples(SYMBOLS, SYMBOLS), max_size=12))
    lines = [f"{a}\t{b}" for a, b in pairs]
    for extra in draw(st.lists(SKIPPED, max_size=5)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if bad_fields is None:
        return pairs, lines
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, "\t".join(draw(st.lists(SYMBOLS, min_size=bad_fields, max_size=bad_fields))))
    return pairs, lines, at


def write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "pairs.tsv"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


@settings(deadline=None)
@given(drawn=interaction_lines())
def test_interactions_load_back_as_the_named_genes(tmp_path_factory, drawn):
    pairs, lines = drawn
    genes = data.load_interactions_tsv(write_lines(tmp_path_factory, lines))
    assert genes == {g for p in pairs for g in p}


@settings(deadline=None)
@given(n_fields=st.sampled_from([1, 3, 4]), data_=st.data())
def test_interactions_bad_field_count_names_its_line(tmp_path_factory, n_fields, data_):
    _, lines, at = data_.draw(interaction_lines(bad_fields=n_fields))
    path = write_lines(tmp_path_factory, lines)
    with pytest.raises(ParseError, match=re.escape(f"{path}:{at + 1}: expected two")):
        data.load_interactions_tsv(path)


# ---------------------------------------------------------------------------
# selection


def test_select_common_genes_sorted_intersection():
    d1 = make_dataset(genes=("B", "A", "C"))
    d2 = make_dataset(genes=("C", "B", "Z"))
    assert data.select_common_genes([d1, d2]) == ("B", "C")


def test_select_common_genes_empty_intersection_raises():
    d1 = make_dataset(genes=("A",))
    d2 = make_dataset(genes=("B",))
    with pytest.raises(SelectionError):
        data.select_common_genes([d1, d2])
    with pytest.raises(ValueError):
        data.select_common_genes([])


def test_filter_by_interactions_keeps_members_only():
    inter = frozenset({"A", "B", "C"})
    assert data.filter_by_interactions(("A", "B", "C", "D"), inter) == ("A", "B", "C")
    with pytest.raises(SelectionError):
        data.filter_by_interactions(("X", "Y"), inter)


def test_project_reorders_columns():
    ds = make_dataset(genes=("A", "B", "C"), n=4, seed=5)
    proj = data.project(ds, ("C", "A"))
    assert proj.gene_ids == ("C", "A")
    np.testing.assert_array_equal(proj.matrix[:, 0], ds.matrix[:, 2])
    np.testing.assert_array_equal(proj.matrix[:, 1], ds.matrix[:, 0])
    np.testing.assert_array_equal(proj.labels, ds.labels)
    with pytest.raises(SelectionError, match="'Q'"):
        data.project(ds, ("A", "Q"))


# ---------------------------------------------------------------------------
# normalization


def test_normalization_zero_mean_unit_std():
    rng = np.random.default_rng(8)
    matrix = rng.standard_normal((50, 7)) * 3.0 + 5.0
    stats = data.fit_normalization(cohort(matrix))
    normed = data.apply_normalization(matrix, stats)
    np.testing.assert_allclose(normed.mean(axis=0), np.zeros(7), atol=1e-12)
    np.testing.assert_allclose(normed.std(axis=0), np.ones(7), atol=1e-12)


def test_normalization_constant_column_maps_to_zero():
    matrix = np.column_stack([np.full(3, 5.0), np.array([1.0, 2.0, 3.0])])
    stats = data.fit_normalization(cohort(matrix))
    assert stats.std[0] == 1.0
    normed = data.apply_normalization(matrix, stats)
    np.testing.assert_array_equal(normed[:, 0], np.zeros(3))


def test_normalization_near_constant_column_not_amplified():
    # identical values whose mean rounds inexactly must not blow up to +-1
    matrix = np.column_stack([np.full(3, 0.1), np.array([1.0, 2.0, 3.0])])
    stats = data.fit_normalization(cohort(matrix))
    normed = data.apply_normalization(matrix, stats)
    assert np.max(np.abs(normed[:, 0])) < 1e-9


def test_normalization_errors():
    with pytest.raises(ScaleError):
        data.fit_normalization(cohort(np.empty((0, 3))))
    stats = data.fit_normalization(cohort(np.ones((2, 3)) * np.arange(3)))
    with pytest.raises(ScaleError):
        data.apply_normalization(np.ones((2, 4)), stats)


@pytest.mark.parametrize(
    "column",
    [[1e308, 1e308, -1e308, 1.0], [1e308, -1e308, 1e308, -1e308]],
    ids=["sum", "squares"],
)
def test_normalization_overflow_names_the_column_without_a_warning(column):
    # finite values near the float64 limit overflow the column sum or the
    # sum of squared deviations; the error names the gene and the dataset
    matrix = np.column_stack([np.ones(4), column])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScaleError, match="cannot normalize gene 'B' of m: "):
            data.fit_normalization(cohort(matrix, genes=("A", "B")))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["mean", "std"])
def test_normalization_stats_reject_non_finite_entries(field, bad):
    values = {"mean": np.zeros(3), "std": np.ones(3)}
    values[field][1] = bad
    with pytest.raises(ValueError, match="finite"):
        data.NormalizationStats(**values)


def test_apply_uses_training_statistics():
    train = np.array([[0.0], [2.0]])
    stats = data.fit_normalization(cohort(train))
    out = data.apply_normalization(np.array([[4.0]]), stats)
    np.testing.assert_allclose(out, [[3.0]])  # (4 - 1) / 1


# ---------------------------------------------------------------------------
# folds


def test_stratified_kfold_rare_class_spreads_with_warning():
    labels = np.zeros(95)
    labels[:8] = 1.0
    with pytest.warns(UserWarning, match="class 1 has 8 members"):
        folds = data.stratified_kfold(labels, k=10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert set(sizes) <= {9, 10}
    positives = [int(labels[f].sum()) for f in folds]
    assert max(positives) - min(positives) <= 1
    assert sum(positives) == 8


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [2, 3, 5])
def test_stratified_kfold_partition_and_proportions(seed, k):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3 * k, 10 * k))
    labels = (rng.random(n) < 0.4).astype(float)
    if min((labels == 0).sum(), (labels == 1).sum()) < k:
        labels[: 2 * k] = np.tile([0.0, 1.0], k)
    folds = data.stratified_kfold(labels, k=k, seed=seed)
    joined = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(joined, np.arange(n))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    for cls in (0.0, 1.0):
        per_fold = [int((labels[f] == cls).sum()) for f in folds]
        exact = (labels == cls).sum() / k
        assert all(abs(c - exact) < 1.0 + 1e-12 for c in per_fold)


def test_stratified_kfold_deterministic_and_seed_sensitive():
    labels = np.tile([0.0, 0.0, 1.0], 20)
    a = data.stratified_kfold(labels, k=5, seed=7)
    b = data.stratified_kfold(labels, k=5, seed=7)
    c = data.stratified_kfold(labels, k=5, seed=8)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa, fb)
    assert any(not np.array_equal(fa, fc) for fa, fc in zip(a, c))


def test_stratified_kfold_train_test_disjoint(monkeypatch):
    # each training side cross-validation builds is the rest of the target:
    # record the rows evaluate._folds takes, and check every fold against them
    target = make_dataset("t", n=30, seed=1, labels=np.tile([0.0, 0.0, 1.0], 10))
    source = make_dataset("s", n=8, seed=2, labels=np.tile([0.0, 1.0], 4))
    config = MetaConfig(model=ModelConfig("mlp", input_dim=3), seed=1)
    taken = []
    real_take = data.ExpressionDataset.take

    def take(dataset, indices):
        taken.append(np.asarray(indices))
        return real_take(dataset, indices)

    monkeypatch.setattr(data.ExpressionDataset, "take", take)
    folds = list(evaluate._folds([source], target, config, 3, None))
    tests = data.stratified_kfold(target.labels, k=3, seed=config.seed)
    assert len(folds) == len(taken) == 3
    for fold, train_idx, test_idx in zip(folds, taken, tests):
        assert not set(train_idx.tolist()) & set(test_idx.tolist())
        assert set(train_idx.tolist()) | set(test_idx.tolist()) == set(range(30))
        assert fold.train.n_samples + len(fold.test_labels) == 30
        np.testing.assert_array_equal(fold.train.labels, target.labels[train_idx])
        np.testing.assert_array_equal(fold.test_labels, target.labels[test_idx])
        stats = data.fit_normalization(real_take(target, train_idx))
        np.testing.assert_array_equal(
            fold.test_matrix, data.apply_normalization(target.matrix[test_idx], stats)
        )


@st.composite
def fold_problems(draw):
    k = draw(st.integers(2, 8))
    labels = draw(st.lists(st.integers(0, 2), min_size=k, max_size=60))
    return np.asarray(labels, dtype=float), k, draw(st.integers(0, 2**32 - 1))


def split_and_warnings(labels, k, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        folds = data.stratified_kfold(labels, k=k, seed=seed)
    return folds, [str(w.message) for w in caught]


@settings(deadline=None)
@given(problem=fold_problems())
def test_stratified_kfold_properties(problem):
    labels, k, seed = problem
    folds, messages = split_and_warnings(labels, k, seed)
    again, _ = split_and_warnings(labels, k, seed)
    # every index lands in exactly one test fold
    hits = np.bincount(np.concatenate(folds), minlength=len(labels))
    np.testing.assert_array_equal(hits, np.ones(len(labels)))
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    classes, counts = np.unique(labels, return_counts=True)
    for cls in classes:
        per_fold = [int((labels[f] == cls).sum()) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1
    for fa, fb in zip(folds, again):
        np.testing.assert_array_equal(fa, fb)
    rare = [int(c) for c, n_c in zip(classes, counts) if n_c < k]
    assert [m.split(" has ")[0] for m in messages] == [f"class {c}" for c in rare]


def test_stratified_kfold_errors():
    labels = np.tile([0.0, 1.0], 5)
    with pytest.raises(SplitError):
        data.stratified_kfold(labels, k=1, seed=0)
    with pytest.raises(SplitError):
        data.stratified_kfold(labels, k=11, seed=0)


# ---------------------------------------------------------------------------
# batching


def test_sample_batch_without_replacement_when_possible():
    matrix = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.arange(10, dtype=float) % 2
    rng = np.random.default_rng(0)
    x, y = data.sample_batch(matrix, labels, size=10, rng=rng)
    assert x.shape == (10, 2)
    assert len(np.unique(x[:, 0])) == 10  # every row distinct
    rows = (x[:, 0] // 2).astype(int)
    np.testing.assert_array_equal(y, labels[rows])  # labels travel with their rows


def test_sample_batch_with_replacement_when_oversized():
    matrix = np.arange(6, dtype=float).reshape(3, 2)
    labels = np.zeros(3)
    rng = np.random.default_rng(1)
    x, _ = data.sample_batch(matrix, labels, size=8, rng=rng)
    assert x.shape == (8, 2)
    assert len(np.unique(x[:, 0])) <= 3


def test_sample_batch_deterministic_per_seed():
    matrix = np.arange(40, dtype=float).reshape(20, 2)
    labels = np.zeros(20)
    x1, _ = data.sample_batch(matrix, labels, 5, np.random.default_rng(42))
    x2, _ = data.sample_batch(matrix, labels, 5, np.random.default_rng(42))
    np.testing.assert_array_equal(x1, x2)
    with pytest.raises(ValueError):
        data.sample_batch(matrix, labels, 0, np.random.default_rng(0))
