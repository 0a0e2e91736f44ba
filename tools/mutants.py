"""Mutation check: does the tier-1 suite catch a wrong program?

Each mutant below changes one line of ``src/dualclust`` into a plausible
bug. For each, the script copies the repository to a fresh directory,
applies the mutant there and runs tier-1 with the pinned-digest tests
deselected, stopping at the first failure. A digest sees any change of
bytes, so it would catch every mutant here; the point is whether a test
that states a behaviour does. It prints one line per mutant, ``caught``
with the first failing test, or ``survived``. The unmutated copy runs
first and must pass. The repository itself is never written.

    python tools/mutants.py

Each caught mutant costs seconds to a minute; each survivor, and the
unmutated run, a whole tier-1 run. A run that outlasts ``TIMEOUT_S``
counts as caught, since a hang fails the suite too. The exit code is 1
if a mutant survived or the unmutated copy failed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900

# Tests that pin the bytes of a run's artifacts or of augmented views.
DESELECTED = (
    "tests/test_cli.py::TestRun::test_artifacts_match_pinned_digest",
    "tests/test_augment.py::test_views_and_generator_states_match_pinned_digest",
)

# (name, module under src/dualclust, the text of one line, its mutated text)
MUTANTS = (
    ("ntxent-positive-index", "autodiff.py",
     "positives = (rows + n) % (2 * n)", "positives = (rows + n + 1) % (2 * n)"),
    ("ntxent-exclude-self-ignored", "autodiff.py",
     "np.fill_diagonal(band, -np.inf)", "pass"),
    ("ntxent-temperature-dropped-on-row-max-path", "autodiff.py",
     "e = v @ vt", "e = u @ u.T"),
    ("ntxent-no-view-order-swap", "autodiff.py",
     "swapped = x.value[n:].tobytes() < x.value[:n].tobytes()", "swapped = False"),
    ("transpose-halves-swapped", "autodiff.py",
     "out = np.vstack([m.value[:n].T, m.value[n:].T])",
     "out = np.vstack([m.value[n:].T, m.value[:n].T])"),
    ("entropy-sign-flipped", "losses.py",
     "sign = 1.0 if config.literal_entropy_sign else -1.0",
     "sign = -1.0 if config.literal_entropy_sign else 1.0"),
    ("adam-epsilon-inside-sqrt", "trainer.py",
     "scratch += settings.epsilon",
     "scratch **= 2; scratch += settings.epsilon; np.sqrt(scratch, out=scratch)"),
    ("last-partial-batch-kept", "trainer.py",
     "for start in range(0, dataset.n - batch + 1, batch):",
     "for start in range(0, dataset.n, batch):"),
    ("make-pair-augments-second-view-at-1", "augment.py",
     "view_b = _view(pipeline, x, share, 1) if augmented > 1 else x.copy()",
     "view_b = _view(pipeline, x, share, 1) if augmented > 0 else x.copy()"),
    ("predict-assignments-argmin", "model.py",
     "return np.argmax(y, axis=1)", "return np.argmin(y, axis=1)"),
    ("hungarian-maximises", "metrics.py",
     "reduced[1:, 1:] = cost - cost.min()", "reduced[1:, 1:] = cost.max() - cost"),
    ("evaluate-assigns-with-seed-0", "trainer.py",
     "assignments = assign(params, dataset.samples, ablation, seed)",
     "assignments = assign(params, dataset.samples, ablation, 0)"),
    ("brightness-not-clipped-above", "augment.py",
     "return np.minimum(out, 1.0, out=out)", "return out"),
    ("crop-rows-resized-by-width", "augment.py",
     "rows = _resize_matrix(crop_h, geometry.height)",
     "rows = _resize_matrix(crop_w, geometry.height)"),
    ("jitter-noise-not-scaled-by-sigma", "augment.py",
     "noise *= self.sigma", "pass"),
)

IGNORED = shutil.ignore_patterns(
    ".git", ".perfbench_work", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"
)


def mutate(source: str, original: str, mutated: str) -> str:
    """``source`` with the one line that contains ``original`` changed."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, line in enumerate(lines) if original in line]
    if len(hits) != 1:
        raise SystemExit(f"{original!r} is on {len(hits)} lines, expected 1")
    lines[hits[0]] = lines[hits[0]].replace(original, mutated)
    return "".join(lines)


def run_tier1(tree: Path) -> tuple[bool, str]:
    """(passed, the first failing test or why the run stopped)."""
    env = {
        **os.environ,
        "PYTHONPATH": str(tree / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
    command += [f"--deselect={test}" for test in DESELECTED]
    try:
        done = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return True, done.stdout.strip().splitlines()[-1]
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return False, failed[0] if failed else f"pytest exit {done.returncode}"


def main() -> int:
    survivors = 0
    with tempfile.TemporaryDirectory(prefix="dualclust-mutants-") as work:
        for name, module, original, mutated in [("unmutated", None, None, None), *MUTANTS]:
            tree = Path(work) / name
            shutil.copytree(ROOT, tree, ignore=IGNORED)
            if module is not None:
                path = tree / "src" / "dualclust" / module
                path.write_text(mutate(path.read_text(), original, mutated))
            start = time.perf_counter()
            passed, detail = run_tier1(tree)
            seconds = time.perf_counter() - start
            shutil.rmtree(tree)
            if module is None:
                verdict = "passed" if passed else "FAILED"
            else:
                verdict = "survived" if passed else "caught"
                survivors += passed
            print(f"{name}: {verdict} in {seconds:.0f} s: {detail}", flush=True)
            if module is None and not passed:
                return 1
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
