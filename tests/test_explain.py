"""Shapley attribution: linear closed form, axioms, sampling convergence."""

import tracemalloc

import numpy as np
import pytest

from metagx import explain
from metagx.models import ModelConfig, init_model, predict


def linear_scorer(coef):
    coef = np.asarray(coef, dtype=np.float64)
    return lambda matrix: matrix @ coef


def test_exact_matches_linear_closed_form():
    # for a linear score the Shapley value is coef_i * (x_i - background_mean_i)
    coef = np.array([2.0, 3.0, -1.0])
    rng = np.random.default_rng(0)
    background = rng.standard_normal((25, 3))
    sample = np.array([1.0, -0.5, 2.0])
    att = explain.shapley_exact(linear_scorer(coef), None, background, sample)
    want = coef * (sample - background.mean(axis=0))
    np.testing.assert_allclose(att.values, want, atol=1e-12)
    assert att.prediction == pytest.approx(float(sample @ coef), abs=1e-12)
    assert att.base_value == pytest.approx(float(background.mean(axis=0) @ coef), abs=1e-12)


def test_sampled_matches_linear_closed_form():
    coef = np.array([2.0, 3.0])
    background = np.zeros((5, 2))
    sample = np.array([1.0, 1.0])
    att = explain.shapley_sampled(
        linear_scorer(coef), None, background, sample, n_permutations=50, seed=0
    )
    # two features, linear model: every permutation yields the same credit
    np.testing.assert_allclose(att.values, [2.0, 3.0], atol=1e-12)


def test_efficiency_axiom_on_model():
    cfg = ModelConfig("mlp", input_dim=6, hidden_dims=(5,))
    params = init_model(cfg, seed=1)
    rng = np.random.default_rng(2)
    background = rng.standard_normal((30, 6))
    sample = rng.standard_normal(6)
    att = explain.shapley_exact(params, cfg, background, sample)
    assert float(att.values.sum()) == pytest.approx(
        att.prediction - att.base_value, abs=1e-9
    )


def test_null_player_gets_exact_zero():
    cfg = ModelConfig("mlp", input_dim=4, hidden_dims=(3,))
    params = init_model(cfg, seed=3)
    blind = {n: a.copy() for n, a in params.items()}
    blind["hidden.0.weight"][:, 2] = 0.0  # feature 2 can no longer reach the output
    rng = np.random.default_rng(4)
    background = rng.standard_normal((20, 4))
    sample = rng.standard_normal(4)
    att = explain.shapley_exact(blind, cfg, background, sample)
    assert att.values[2] == 0.0
    att_s = explain.shapley_sampled(blind, cfg, background, sample, 200, seed=5)
    assert att_s.values[2] == 0.0


def test_symmetry_axiom():
    # score is x0 + x1: interchangeable features with equal inputs share credit
    def scorer(matrix):
        return matrix[:, 0] + matrix[:, 1] + 0.5 * matrix[:, 2]

    background = np.random.default_rng(6).standard_normal((40, 3))
    background[:, 1] = background[:, 0]  # identical marginals for 0 and 1
    sample = np.array([1.5, 1.5, -0.7])
    att = explain.shapley_exact(scorer, None, background, sample)
    assert att.values[0] == pytest.approx(att.values[1], abs=1e-9)


def test_sampled_converges_to_exact():
    cfg = ModelConfig("mlp", input_dim=8, hidden_dims=(6,))
    params = init_model(cfg, seed=7)
    rng = np.random.default_rng(8)
    background = rng.standard_normal((40, 8))
    sample = rng.standard_normal(8)
    exact = explain.shapley_exact(params, cfg, background, sample)
    sampled = explain.shapley_sampled(params, cfg, background, sample, 20000, seed=9)
    assert np.max(np.abs(sampled.values - exact.values)) < 0.02
    assert sampled.base_value == pytest.approx(exact.base_value, abs=1e-12)
    assert sampled.prediction == pytest.approx(exact.prediction, abs=1e-12)


def test_sampled_deterministic_per_seed():
    cfg = ModelConfig("mlp", input_dim=5, hidden_dims=(4,))
    params = init_model(cfg, seed=10)
    rng = np.random.default_rng(11)
    background = rng.standard_normal((15, 5))
    sample = rng.standard_normal(5)
    a = explain.shapley_sampled(params, cfg, background, sample, 500, seed=12)
    b = explain.shapley_sampled(params, cfg, background, sample, 500, seed=12)
    c = explain.shapley_sampled(params, cfg, background, sample, 500, seed=13)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_block_boundaries_do_not_change_the_estimate():
    # many chunks of 341 permutations and a ragged last one, tiny d: still exact
    background = np.zeros((3, 2))
    sample = np.array([1.0, -1.0])
    att = explain.shapley_sampled(
        linear_scorer([1.0, 1.0]), None, background, sample, 5000, seed=0
    )
    np.testing.assert_allclose(att.values, [1.0, -1.0], atol=1e-12)


def test_input_validation():
    background = np.zeros((3, 2))
    sample = np.zeros(2)
    fn = linear_scorer([1.0, 1.0])
    with pytest.raises(ValueError):
        explain.shapley_exact(fn, None, np.zeros((0, 2)), sample)
    with pytest.raises(ValueError):
        explain.shapley_exact(fn, None, background, np.zeros(3))
    with pytest.raises(ValueError):
        explain.shapley_sampled(fn, None, background, sample, 0, seed=0)
    with pytest.raises(ValueError):
        explain.shapley_exact(fn, None, np.zeros((3, 17)), np.zeros(17))
    with pytest.raises(TypeError):
        explain.shapley_exact("not a model", None, background, sample)
    with pytest.raises(ValueError):
        explain.shapley_exact(fn, None, background, sample, gene_ids=("only_one",))


def test_model_with_a_config_is_a_parameter_dict():
    cfg = ModelConfig("mlp", input_dim=3, hidden_dims=(2,))
    params = init_model(cfg, seed=0)
    background, sample = np.zeros((4, 3)), np.ones(3)
    want = predict(params, cfg, sample[None, :])[0]
    assert explain.shapley_exact(params, cfg, background, sample).prediction == want
    assert explain.shapley_sampled(params, cfg, background, sample, 6, seed=0).prediction == want
    arrays = list(params.values())
    with pytest.raises(TypeError, match="parameter dict"):
        explain.shapley_exact(arrays, cfg, background, sample)
    with pytest.raises(TypeError, match="parameter dict"):
        explain.shapley_sampled(arrays, cfg, background, sample, 6, seed=0)


def test_rank_features_ordering_and_ties():
    att1 = explain.Attribution(("a", "b", "c"), np.array([0.5, -1.0, 0.5]), np.zeros(3), 0.0, 0.0)
    att2 = explain.Attribution(("a", "b", "c"), np.array([-0.5, 1.0, 0.5]), np.zeros(3), 0.0, 0.0)
    ranked = explain.rank_features([att1, att2])
    assert ranked[0] == ("b", 1.0)
    assert [g for g, _ in ranked[1:]] == ["a", "c"]  # tied at 0.5, lexicographic
    top = explain.rank_features([att1, att2], top_k=1)
    assert top == [("b", 1.0)]
    with pytest.raises(ValueError):
        explain.rank_features([])
    att3 = explain.Attribution(("x", "y"), np.zeros(2), np.zeros(2), 0.0, 0.0)
    with pytest.raises(ValueError):
        explain.rank_features([att1, att3])


def test_csv_exports(tmp_path):
    att = explain.Attribution(("g1", "g2"), np.array([0.25, -0.5]), np.array([1.0, 2.0]), 0.1, 0.4)
    p1 = tmp_path / "att.csv"
    explain.attribution_to_csv(att, p1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "gene_id,shap_value,feature_value"
    assert lines[1] == "g1,0.25,1.0"
    p2 = tmp_path / "rank.csv"
    explain.ranking_to_csv([("g2", 0.5), ("g1", 0.25)], p2)
    lines = p2.read_text().splitlines()
    assert lines[0] == "gene_id,mean_abs_shap"
    assert lines[1] == "g2,0.5"


def _streamed_and_one_shot(monkeypatch, model, config, background, sample, budget):
    # a budget larger than any block reproduces the one-shot evaluation
    monkeypatch.setattr(explain, "_ROW_BUDGET", 10**12)
    one_shot = explain.shapley_sampled(model, config, background, sample, 2100, seed=14)
    monkeypatch.setattr(explain, "_ROW_BUDGET", budget)
    streamed = explain.shapley_sampled(model, config, background, sample, 2100, seed=14)
    return streamed, one_shot


def _row_scorer(matrix):
    # elementwise only, so a row's score cannot depend on the batch height
    x = matrix.T
    return np.sin(x[0] * x[1]) + x[2] ** 3 - np.exp(x[3] * x[4])


# one permutation a call; three, which divides 2100; eight, so that the last
# chunk is ragged
@pytest.mark.parametrize("budget", [1, 21, 56])
def test_streamed_estimate_equals_one_shot_for_black_box(monkeypatch, budget):
    rng = np.random.default_rng(15)
    background = rng.standard_normal((10, 6))
    streamed, one_shot = _streamed_and_one_shot(
        monkeypatch, _row_scorer, None, background, background[0], budget
    )
    np.testing.assert_array_equal(streamed.values, one_shot.values)


@pytest.mark.parametrize(
    "config",
    [
        ModelConfig("mlp", input_dim=9, hidden_dims=(8, 4)),
        ModelConfig("cnn", input_dim=9, channels=4),
        ModelConfig("transformer", input_dim=9, embed_dim=8, tokens=3),
    ],
    ids=lambda cfg: cfg.architecture,
)
def test_streamed_estimate_matches_one_shot_for_models(monkeypatch, config):
    # BLAS row results may depend on the batch height, hence the tolerance
    params = init_model(config, seed=16)
    background = np.random.default_rng(17).standard_normal((10, 9))
    for budget in (1, 30):
        streamed, one_shot = _streamed_and_one_shot(
            monkeypatch, params, config, background, background[1], budget
        )
        assert np.max(np.abs(streamed.values - one_shot.values)) <= 1e-15


@pytest.mark.parametrize("budget", [None, 1, 100])
def test_model_never_sees_more_rows_than_the_budget(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(explain, "_ROW_BUDGET", budget)
    d = 30
    calls = []

    def scorer(matrix):
        calls.append(matrix.shape[0])
        return matrix.sum(axis=1)

    background = np.random.default_rng(18).standard_normal((5, d))
    explain.shapley_sampled(scorer, None, background, background[0], 2100, seed=19)
    assert max(calls) <= max(explain._ROW_BUDGET, d + 1)
    assert sum(calls) == 2 + 2100 * (d + 1)  # base value, prediction, every coalition


@pytest.mark.parametrize(
    "scorer",
    [
        lambda matrix: float(matrix.sum()),
        lambda matrix: matrix.sum(axis=1, keepdims=True),
        lambda matrix: matrix.sum(axis=1)[:1],
    ],
    ids=["scalar", "column", "too_few"],
)
@pytest.mark.parametrize("estimator", ["exact", "sampled"])
def test_a_scorer_of_the_wrong_shape_is_a_value_error(estimator, scorer):
    background = np.random.default_rng(29).standard_normal((5, 6))
    args = (scorer, None, background, background[0])
    with pytest.raises(ValueError, match=r"model returned shape \(.*\) for \d+ rows"):
        if estimator == "exact":
            explain.shapley_exact(*args)
        else:
            explain.shapley_sampled(*args, n_permutations=10, seed=0)


def test_sampled_peak_memory_does_not_grow_with_permutations():
    config = ModelConfig("mlp", input_dim=200)
    params = init_model(config, seed=30)
    background = np.random.default_rng(31).standard_normal((20, 200))
    peaks = []
    for n_permutations in (50, 2100, 5000):
        tracemalloc.start()
        try:
            explain.shapley_sampled(params, config, background, background[0], n_permutations, 32)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks[1:]) - peaks[0] <= 0.2e6, peaks


def _one_draw_reference(coalition_values, d, n_permutations, seed, step):
    """The estimate from all permutations drawn at once, scored in chunks of
    ``step`` and accumulated in permutation order."""
    rng = np.random.default_rng(seed)
    perms = rng.permuted(np.tile(np.arange(d), (n_permutations, 1)), axis=1)
    phi = np.zeros(d)
    for start in range(0, n_permutations, step):
        chunk = perms[start : start + step]
        gains = np.diff(coalition_values(chunk), axis=1)
        np.add.at(phi, chunk.ravel(), gains.ravel())
    return phi / n_permutations


@pytest.mark.parametrize("path", ["mlp", "hybrid"])
def test_chunked_draws_equal_one_draw_of_every_permutation(path):
    # d=30: 33 permutations a chunk, so the 100th permutation is a chunk alone
    d, n_permutations = 30, 100
    rng = np.random.default_rng(33)
    background = rng.standard_normal((8, d))
    sample = rng.standard_normal(d)
    base = background.mean(axis=0)
    if path == "mlp":
        config = ModelConfig("mlp", input_dim=d, hidden_dims=(8, 4))
        model = init_model(config, seed=34)
        coalition_values = explain._mlp_values(model, config, base, sample)
    else:
        config, model = None, _row_scorer

        def coalition_values(perms):
            # row j of a permutation keeps the sample's values of its first j features
            rows = [
                np.where(np.isin(np.arange(d), perm[:j]), sample, base)
                for perm in perms
                for j in range(d + 1)
            ]
            return _row_scorer(np.array(rows)).reshape(len(perms), d + 1)

    step = explain._ROW_BUDGET // (d + 1)
    assert n_permutations % step != 0
    got = explain.shapley_sampled(model, config, background, sample, n_permutations, seed=35)
    want = _one_draw_reference(coalition_values, d, n_permutations, 35, step)
    assert got.values.tobytes() == want.tobytes()


def test_sampled_peak_memory_is_bounded_at_panel_size():
    config = ModelConfig("mlp", input_dim=695)
    params = init_model(config, seed=20)
    background = np.random.default_rng(21).standard_normal((20, 695))
    tracemalloc.start()
    try:
        explain.shapley_sampled(params, config, background, background[0], 50, seed=22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


@pytest.mark.parametrize("budget", [1, None], ids=["budget1", "default"])
@pytest.mark.parametrize("d", [7, 50, 695])
@pytest.mark.parametrize("hidden_dims", [(16,), (16, 8)], ids=["1layer", "2layers"])
def test_mlp_path_matches_generic_path(monkeypatch, hidden_dims, d, budget):
    # the same model as a black-box callable takes the hybrid-row path
    if budget is not None:
        monkeypatch.setattr(explain, "_ROW_BUDGET", budget)
    config = ModelConfig("mlp", input_dim=d, hidden_dims=hidden_dims)
    params = init_model(config, seed=23)
    rng = np.random.default_rng(24)
    background = rng.standard_normal((12, d))
    sample = rng.standard_normal(d)
    n_permutations = 40 if d == 695 else 300
    fast = explain.shapley_sampled(params, config, background, sample, n_permutations, seed=25)
    generic = explain.shapley_sampled(
        lambda m: predict(params, config, m), None, background, sample, n_permutations, seed=25
    )
    assert fast.base_value == generic.base_value
    assert fast.prediction == generic.prediction
    assert np.max(np.abs(fast.values - generic.values)) <= 1e-15
    assert abs(fast.values.sum() - (fast.prediction - fast.base_value)) <= 1e-9


def test_mlp_path_sends_only_the_base_and_sample_rows_to_predict(monkeypatch):
    config = ModelConfig("mlp", input_dim=30, hidden_dims=(8, 4))
    params = init_model(config, seed=26)
    shapes = []

    def recording_predict(p, cfg, matrix):
        shapes.append(np.shape(matrix))
        return predict(p, cfg, matrix)

    monkeypatch.setattr(explain, "predict", recording_predict)
    background = np.random.default_rng(27).standard_normal((5, 30))
    explain.shapley_sampled(params, config, background, background[0], 100, seed=28)
    assert shapes == [(1, 30), (1, 30)]
