"""Synthetic task families: determinism, balance, and relatedness behavior."""

import numpy as np
import pytest

from metagx import synth


def ridge_probe(train_x, train_y, test_x):
    """Closed-form ridge classifier; returns 0/1 calls on the test rows."""
    x = np.hstack([train_x, np.ones((train_x.shape[0], 1))])
    t = np.hstack([test_x, np.ones((test_x.shape[0], 1))])
    w = np.linalg.solve(x.T @ x + 1e-2 * np.eye(x.shape[1]), x.T @ (2 * train_y - 1))
    return (t @ w >= 0).astype(float)


def cross_task_accuracy(spec: synth.SynthSpec) -> float:
    sources, target = synth.generate_task_family(spec)
    calls = ridge_probe(sources[0].matrix, sources[0].labels, target.matrix)
    return float(np.mean(calls == target.labels))


def test_family_shapes_and_names():
    spec = synth.SynthSpec(seed=1)
    sources, target = synth.generate_task_family(spec)
    assert len(sources) == 3
    assert [s.name for s in sources] == ["synth_source_0", "synth_source_1", "synth_source_2"]
    assert target.name == "synth_target"
    assert all(s.n_samples == 200 for s in sources)
    assert target.n_samples == 60
    assert target.gene_ids == sources[0].gene_ids
    assert len(target.gene_ids) == 50


def test_family_deterministic_per_seed():
    a_sources, a_target = synth.generate_task_family(synth.SynthSpec(seed=5))
    b_sources, b_target = synth.generate_task_family(synth.SynthSpec(seed=5))
    c_sources, _ = synth.generate_task_family(synth.SynthSpec(seed=6))
    for a, b in zip([*a_sources, a_target], [*b_sources, b_target]):
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a_sources[0].matrix, c_sources[0].matrix)


def test_exact_balance_without_noise():
    spec = synth.SynthSpec(label_noise=0.0, class_balance=0.5, seed=2)
    sources, target = synth.generate_task_family(spec)
    for ds in [*sources, target]:
        assert int(ds.labels.sum()) == round(0.5 * ds.n_samples)
    spec = synth.SynthSpec(label_noise=0.0, class_balance=0.3, seed=3)
    sources, target = synth.generate_task_family(spec)
    assert int(sources[0].labels.sum()) == 60
    assert int(target.labels.sum()) == 18


@pytest.mark.parametrize("seed", range(10))
def test_noisy_balance_stays_near_half(seed):
    sources, _ = synth.generate_task_family(synth.SynthSpec(seed=seed))
    for src in sources:
        assert 80 <= int(src.labels.sum()) <= 120


def test_labels_learnable_within_a_task():
    # a linear probe cannot express the tanh bend, so ~0.85 is its ceiling;
    # anything clearly above chance confirms the signal reaches the features
    accs = []
    for seed in range(5):
        sources, _ = synth.generate_task_family(synth.SynthSpec(seed=seed, label_noise=0.0))
        src = sources[0]
        calls = ridge_probe(src.matrix[:150], src.labels[:150], src.matrix[150:])
        accs.append(float(np.mean(calls == src.labels[150:])))
    assert float(np.mean(accs)) > 0.78


def test_zero_perturbation_transfers_like_within_task():
    accs = [
        cross_task_accuracy(synth.SynthSpec(seed=s, perturbation=0.0, label_noise=0.0))
        for s in range(5)
    ]
    assert float(np.mean(accs)) > 0.78


def test_transfer_degrades_with_perturbation():
    def mean_acc(p):
        return float(
            np.mean(
                [
                    cross_task_accuracy(
                        synth.SynthSpec(seed=s, perturbation=p, label_noise=0.0)
                    )
                    for s in range(20)
                ]
            )
        )

    low, mid, high = mean_acc(0.0), mean_acc(0.8), mean_acc(1.6)
    assert low > mid > high


def test_spec_validation():
    with pytest.raises(ValueError):
        synth.SynthSpec(n_sources=0)
    with pytest.raises(ValueError):
        synth.SynthSpec(signal_dims=60)
    with pytest.raises(ValueError):
        synth.SynthSpec(label_noise=0.5)
    with pytest.raises(ValueError):
        synth.SynthSpec(class_balance=1.0)
    for perturbation in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="perturbation must be finite and >= 0"):
            synth.SynthSpec(perturbation=perturbation)
