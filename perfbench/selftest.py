"""Show that every correctness check of the benchmark can fail.

    python3 perfbench/selftest.py

Runs each workload once at a small size and requires its checks to pass on
the real outputs. Then feeds every check one deliberately wrong input, made
by corrupting those outputs or from a closed-form counterexample, and
requires the check to reject it. Prints one line per case and exits
non-zero if any case does not behave as expected. Takes about half a minute.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks as C  # noqa: E402
import workloads as W  # noqa: E402

SEED = 7
results: list[tuple[str, bool]] = []


def expect_pass(name: str, fn) -> None:
    try:
        fn()
        results.append((f"passes on good input: {name}", True))
    except C.CheckFailed as err:
        results.append((f"passes on good input: {name} ({err})", False))


def expect_fail(name: str, fn, fragment: str) -> None:
    """The check must raise CheckFailed with ``fragment`` in its message."""
    try:
        fn()
        results.append((f"fails on wrong input: {name} (it passed)", False))
    except C.CheckFailed as err:
        ok = fragment in str(err)
        results.append((f"fails on wrong input: {name}" + ("" if ok else f" (wrong message: {err})"), ok))


def tiny_run(workload, out_root: Path):
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root))
    inputs = workload.inputs(SEED, 0, out_dir)
    return inputs, workload.run(inputs)


def harness_cases(workload, inputs, outcome) -> None:
    """Corruptions of a harness run's files that its check must reject."""
    out = outcome.out_dir
    results_csv = out / "results.csv"
    good = results_csv.read_text(encoding="utf-8")
    header, line = good.splitlines()
    names = header.split(",")
    cells = line.split(",", len(names) - 1)

    def with_cell(column: str, value: str):
        changed = list(cells)
        changed[names.index(column)] = value
        results_csv.write_text(f"{header}\n{','.join(changed)}\n", encoding="utf-8")
        try:
            workload.check(inputs, outcome)
        finally:
            results_csv.write_text(good, encoding="utf-8")

    expect_pass(f"{workload.name} check on its real outputs", lambda: workload.check(inputs, outcome))

    # one test pair's coverage moving by half the level range
    moved = float(cells[names.index("coverage_auc")]) + 0.5 / workload.n_test
    expect_fail(f"{workload.name}: results.csv AUC off by half a test pair",
                lambda: with_cell("coverage_auc", repr(moved)), "coverage_auc")
    expect_fail(f"{workload.name}: results.csv ELP off in the 8th digit",
                lambda: with_cell("expected_log_posterior",
                                  repr(float(cells[names.index("expected_log_posterior")]) * (1 + 1e-8))),
                "expected_log_posterior")
    expect_fail(f"{workload.name}: results.csv bias of another run",
                lambda: with_cell("bias", repr(float(cells[names.index("bias")]) * 1.01)), "bias")
    expect_fail(f"{workload.name}: results.csv variance of another run",
                lambda: with_cell("variance", repr(float(cells[names.index("variance")]) * 1.01)),
                "variance")
    expect_fail(f"{workload.name}: failed row", lambda: with_cell("status", "failed"), "run failed")

    weights = next((out / "weights").glob("*.json"))
    saved = weights.read_bytes()
    weights.write_bytes(saved.replace(b'"biases": [', b'"biases": [0.5, ', 1))
    try:
        expect_fail(f"{workload.name}: weights with an extra value",
                    lambda: workload.check(inputs, outcome), "payload does not match")
    finally:
        weights.write_bytes(saved)


def function_cases(lv_rows: np.ndarray) -> None:
    rng = np.random.default_rng(SEED)

    # tractable1d: exact posterior against the flat prior-only posterior
    theta, x = C.tractable_pairs("test", SEED, 200)
    exact = C.tractable_exact_masses(x)
    flat = np.full_like(exact, 1.0 / exact.shape[1])
    sharp = exact ** 4 / (exact ** 4).sum(axis=1, keepdims=True)
    expect_pass("TV of the exact posterior to itself", lambda: C.check_tv_to_exact(exact, exact, "exact"))
    expect_fail("TV of the flat prior-only posterior", lambda: C.check_tv_to_exact(flat, exact, "flat"),
                "mean TV")
    centers = C.cell_centers(-5.0, 5.0, 1024)
    var_of = lambda m: float(np.mean(C.moments(m, centers)[1])) / (100.0 / 12.0)  # noqa: E731
    expect_pass("variance of the flat posterior against the exact one",
                lambda: C.check_variance_at_least_exact(var_of(flat), var_of(exact), "flat"))
    expect_fail("variance of a sharpened exact posterior",
                lambda: C.check_variance_at_least_exact(var_of(sharp), var_of(exact), "sharp"),
                "scaled posterior variance")

    # coverage: the flat posterior always covers, a posterior beside the truth never does
    star = C.cell_index(theta, -5.0, 5.0, 1024)
    expect_pass("AUC of the flat posterior",
                lambda: C.check_conservative(C.coverage_auc(C.coverage_rows(flat, star)), "flat"))
    beside = np.zeros_like(exact)
    beside[np.arange(len(star)), (star + 512) % 1024] = 1.0
    expect_fail("AUC of a point mass beside the truth",
                lambda: C.check_conservative(C.coverage_auc(C.coverage_rows(beside, star)), "beside"),
                "coverage AUC")

    rows = C.coverage_rows(exact, star)
    # the AUC depends on a row's count and end values, so move a covered level to the front
    mixed = int(np.flatnonzero(~rows[:, 0] & rows[:, -1])[0])
    permuted = rows.copy()
    permuted[mixed] = np.roll(permuted[mixed], 1)
    expect_fail("AUC agreement with one coverage row permuted",
                lambda: C.check_agreement({"coverage_auc": C.coverage_auc(rows)},
                                          {"coverage_auc": C.coverage_auc(permuted)}, "permuted"),
                "coverage_auc")

    # mg1: ELP of a posterior at the truth against the flat prior-only posterior
    th2, _ = C.mg1_pairs("test", SEED, 20)
    th2 = th2[:, :2]
    flat2 = np.full((20, 128 * 128), 1.0 / (128 * 128))
    at_truth = np.zeros_like(flat2)
    idx = [C.cell_index(th2[:, d], 0.0, 10.0, 128) for d in range(2)]
    at_truth[np.arange(20), idx[0] * 128 + idx[1]] = 1.0
    elp = lambda m: C.summarize(m, th2, (0, 0), (10, 10), (128, 128))["expected_log_posterior"]  # noqa: E731
    expect_pass("ELP of a point mass at the truth",
                lambda: C.check_beats_prior(elp(at_truth), -math.log(100.0), "at truth"))
    expect_fail("ELP of the flat prior-only posterior",
                lambda: C.check_beats_prior(elp(flat2), -math.log(100.0), "flat"), "expected log posterior")

    # residuals of the tractable simulator
    t_train, x_train = C.tractable_pairs("train", SEED, 2000)
    r = x_train - t_train
    expect_pass("N(0, 1) residuals", lambda: C.check_standard_normal(r, "residuals"))
    expect_fail("residuals shifted by 0.5", lambda: C.check_standard_normal(r + 0.5, "shifted"),
                "mean z-score")
    expect_fail("residuals scaled by 1.3", lambda: C.check_standard_normal(1.3 * r, "scaled"),
                "variance z-score")

    # Lotka-Volterra invariants, one corrupted row each
    expect_pass("Lotka-Volterra rows", lambda: C.check_lv_rows(lv_rows, "lv"))

    def corrupt(col: int, value: float, fragment: str, what: str) -> None:
        bad = lv_rows.copy()
        row = int(rng.integers(len(bad)))
        bad[row, col] = value
        expect_fail(f"Lotka-Volterra {what}", lambda: C.check_lv_rows(bad, "lv"), fragment)

    corrupt(2, 1.5, "theta outside", "theta above the prior box")
    corrupt(4 + 7, -3.0, "negative population", "series with a negative population")
    corrupt(4 + 25, 12.5, "non-integer", "series with a fractional population")
    corrupt(4 + 20, 99.0, "does not start", "predator series starting at 99")
    revived = lv_rows.copy()
    revived[0, 4 + 10:4 + 20] = 0.0
    revived[0, 4 + 19] = 3.0
    expect_fail("Lotka-Volterra prey coming back from zero",
                lambda: C.check_lv_rows(revived, "lv"), "left zero")

    row0 = lv_rows[0]
    nudged = row0.copy()
    nudged[0] = np.nextafter(nudged[0], 2.0)
    expect_fail("redrawn row one ulp away", lambda: C.check_rows_equal(row0, nudged, "row"), "differ")
    blob = b"abc" * 10
    expect_fail("byte-compare with one flipped byte",
                lambda: C.check_same_bytes(blob, blob[:4] + b"X" + blob[5:], "bytes"), "differ")


def lv_cases(workload, inputs, outcome) -> np.ndarray:
    expect_pass("simulate_lv check on its real outputs", lambda: workload.check(inputs, outcome))
    _, path = inputs
    good = path.read_bytes()

    def with_bytes(data: bytes, name: str, fragment: str) -> None:
        path.write_bytes(data)
        try:
            expect_fail(name, lambda: workload.check(inputs, outcome), fragment)
        finally:
            path.write_bytes(good)

    loaded = outcome.data[1]
    loaded_x = loaded.x
    loaded.x = loaded_x.copy()
    loaded.x[0, 0] += 1.0
    try:
        expect_fail("loaded dataset one count off", lambda: workload.check(inputs, outcome),
                    "round trip")
    finally:
        loaded.x = loaded_x
    with_bytes(good + b"\0" * 8, "dataset file with an extra row's bytes", "payload of")
    with_bytes(b"XNREDATA" + good[8:], "dataset file with a bad magic", "bad magic")
    flipped = bytearray(good)
    flipped[16 + int.from_bytes(good[12:16], "little")] ^= 0x01  # lowest bit of theta[0, 0]
    with_bytes(bytes(flipped), "dataset file with one flipped payload bit", "differ")
    padded = good.replace(b'"budget"', b' "budget"', 1)
    padded = padded[:12] + (int.from_bytes(good[12:16], "little") + 1).to_bytes(4, "little") + padded[16:]
    with_bytes(padded, "dataset header with a space the layout does not have", "layout gives")
    return C.read_container(path)[1].copy()


def main() -> int:
    out_root = HERE / "out"
    out_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=out_root))
    try:
        t1 = W.Train1D("train_1d", "tractable1d", budget=2 ** 13, n_test=100, epochs=150)
        harness_cases(t1, *tiny_run(t1, scratch))
        e2 = W.Eval2D("eval_2d", "mg1", budget=2 ** 9, n_test=20, epochs=20)
        harness_cases(e2, *tiny_run(e2, scratch))
        lv = W.SimulateLV("simulate_lv", budget=16)
        rows = lv_cases(lv, *tiny_run(lv, scratch))
        function_cases(rows)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {line}")
    bad = sum(not ok for _, ok in results)
    print(f"{len(results) - bad}/{len(results)} cases behaved as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
