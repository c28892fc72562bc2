"""Mutation gate: each mutant breaks the library in one known way, and the
tests named beside it must catch it.

The script copies ``src/`` to a temporary directory and first runs every
named test against the unchanged copy, which must pass. Then, for each
mutant, it checks that the text to replace occurs exactly once in its file
(so a refactor that removes the text fails here instead of passing
silently), applies the change, runs only the mutant's tests with ``-x``
against the copy, requires them to fail, and puts the file back. Adding a
mutant is one entry in ``MUTANTS``.

Run from anywhere (it is not collected by pytest)::

    python tests/mutants.py

It prints one line per mutant and exits 1 if any mutant survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file under src/, old text, new text, test ids that must fail)
MUTANTS = [
    (
        "metagx/autodiff.py",
        "np.greater(cand, out, out=took)",
        "np.greater_equal(cand, out, out=took)",
        ["tests/test_autodiff.py::test_pool_offsets_are_the_first_maximum_of_each_window"],
    ),
    (
        "metagx/autodiff.py",
        "gw.sum(axis=0)",
        "gw[0]",
        ["tests/test_autodiff.py::test_conv_block_vjp_matches_finite_differences"],
    ),
    (
        "metagx/autodiff.py",
        "            factor[:n] += ~neg[blk]\n",
        "",
        ["tests/test_autodiff.py::test_conv_block_matches_loop_oracle"],
    ),
    (
        "metagx/autodiff.py",
        "_BLOCK_BYTES // max(1, row_bytes)",
        "_BLOCK_BYTES // row_bytes",
        ["tests/test_autodiff.py::test_empty_channel_axis_gives_empty_and_zero_gradients"],
    ),
    (
        "metagx/autodiff.py",
        "lo = max(0, -((k - padding) // stride))",
        "lo = 0",
        [
            "tests/test_autodiff.py::test_conv1d_matches_loop_oracle",
            "tests/test_autodiff.py::test_conv_block_matches_loop_oracle",
        ],
    ),
    (
        "metagx/autodiff.py",
        "        gz += ~neg\n",
        "",
        ["tests/test_autodiff.py::test_dense_block_is_one_node_bitwise_equal_to_the_unfused_chain"],
    ),
    (
        "metagx/evaluate.py",
        "folds[:fold] + folds[fold + 1 :]",
        "folds[:fold] + folds[fold:]",
        ["tests/test_data.py::test_stratified_kfold_train_test_disjoint"],
    ),
    (
        "metagx/evaluate.py",
        "f1_mean=cv.mean_f1",
        "f1_mean=float(np.mean([r.f1 for r in per_fold]))",
        ["tests/test_evaluate.py::test_lambda_sweep_endpoint_mean_f1_matches_plain_at_ten_folds"],
    ),
    (
        "metagx/training.py",
        "step = m / bc1",
        "step = m / 1.0",
        ["tests/test_training.py::test_adam_matches_hand_recurrence"],
    ),
    (
        "metagx/explain.py",
        "phi /= n_permutations",
        "phi /= n_permutations + 1",
        ["tests/test_explain.py::test_sampled_matches_linear_closed_form"],
    ),
    (
        "metagx/cli.py",
        "configparser.ConfigParser(interpolation=None)",
        "configparser.ConfigParser()",
        ["tests/test_cli.py::test_percent_in_a_path_is_read_literally"],
    ),
]


def pytest_run(src: Path, tests: list[str], cwd: Path) -> int:
    """Run ``tests`` with ``src`` first on the import path; the exit code."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    # a fixed seed makes the property tests draw the same examples each run
    cmd += ["--hypothesis-seed=0", *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        probe = subprocess.run(
            [sys.executable, "-c", "import metagx; print(metagx.__file__)"],
            cwd=tmp,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        if not probe.stdout.startswith(str(src)):
            print(f"metagx does not import from the copy: {probe.stdout}{probe.stderr}")
            return 1
        named = sorted({t for *_, tests in MUTANTS for t in tests})
        if pytest_run(src, named, tmp) != 0:
            print("the named tests fail on the unchanged source")
            return 1
        survivors = 0
        for path, old, new, tests in MUTANTS:
            target = src / path
            text = target.read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                print(f"FAIL {path}: {old!r} occurs {count} times, not once")
                survivors += 1
                continue
            start = time.perf_counter()
            target.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code = pytest_run(src, tests, tmp)
            finally:
                target.write_text(text, encoding="utf-8")
            # 1 is pytest's "tests failed"; a usage or collection error is not a catch
            caught = code == 1
            survivors += not caught
            verdict = "caught" if caught else f"SURVIVED (pytest exit {code})"
            took = time.perf_counter() - start
            print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r} ({took:.1f} s)")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
