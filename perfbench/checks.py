"""Correctness checks computed apart from the code under measurement.

Nothing here imports ``bnre``. Each check takes plain arrays, numbers or
file paths and raises :class:`CheckFailed` with a message when its
property does not hold. The quantities it compares against are rebuilt from
first principles: random streams from the documented SHA-256 key
convention, the exact tractable posterior from normal-CDF differences, the
classifier from its weights file, grid posteriors and coverage from sorted
cell masses, and the dataset container from its byte layout.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np
from scipy.special import ndtr

# coverage levels of the harness default: 0.05, 0.10, ..., 0.95
LEVELS = np.round(np.arange(1, 20) * 0.05, 10)

# agreement between this module's re-evaluation and the program's results.csv;
# both evaluate the same float64 network on the same grid, so only summation
# order differs
AGREE_TOL = 1e-9

# BNRE's conservativeness claim, with the slack of the paper's criterion 4
MIN_BNRE_AUC = -0.01

# bound on the mean total variation between the learned and the exact
# tractable posterior; the learned one must also sit at most this share of
# the prior's distance from the exact posterior (about 0.62 at 1000 pairs).
# BNRE is meant to be wider than the exact posterior, so the bound leaves
# room for that: 0.11-0.21 was seen at budget 2^13
MAX_TV_EXACT = 0.35
MAX_TV_SHARE_OF_PRIOR = 0.6

# an ELP must beat the prior's log density by more than rounding
ELP_MARGIN = 1e-6

# z-score beyond which a sample mean or variance is called inconsistent
MAX_Z = 5.0

DATASET_MAGIC = b"BNREDATA"
LV_LOWER, LV_UPPER = -4.0, 1.0
LV_START = (50, 100)
LV_POINTS = 20
LV_HORIZON = 30.0
LV_EVENT_CAP = 100_000
LV_MAX_REDRAWS = 1000


class CheckFailed(AssertionError):
    """A correctness property of the program's output does not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- random streams and simulators -----------------------------------------

def stream(*parts) -> np.random.Generator:
    """Generator keyed by SHA-256 over the repr of the parts, joined by 0x1f."""
    digest = hashlib.sha256("\x1f".join(repr(p) for p in parts).encode("utf-8")).digest()
    return np.random.default_rng(np.random.SeedSequence(int.from_bytes(digest[:16], "little")))


def tractable_pairs(namespace: str, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, x) of tractable1d: theta ~ U(-5, 5), x = theta + N(0, 1)."""
    theta = np.empty(n)
    x = np.empty(n)
    for i in range(n):
        rng = stream("sim", namespace, "tractable1d", seed, i)
        theta[i] = rng.uniform([-5.0], [5.0], size=(1, 1))[0, 0]
        x[i] = theta[i] + rng.normal(0.0, 1.0)
    return theta, x


def mg1_pairs(namespace: str, seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, x) of the M/G/1 queue with 50 customers; x = 5 quantiles."""
    lower = np.array([0.0, 0.0, 0.0])
    upper = np.array([10.0, 10.0, 1.0 / 3.0])
    theta = np.empty((n, 3))
    x = np.empty((n, 5))
    for i in range(n):
        rng = stream("sim", namespace, "mg1", seed, i)
        t = rng.uniform(lower, upper, size=(1, 3))[0]
        arrivals = np.cumsum(rng.exponential(1.0 / max(float(t[2]), 1e-12), size=50))
        services = rng.uniform(t[0], t[0] + t[1], size=50)
        departures = np.empty(50)
        free_at = 0.0
        for c in range(50):
            free_at = max(arrivals[c], free_at) + services[c]
            departures[c] = free_at
        gaps = np.diff(departures, prepend=0.0)
        theta[i] = t
        x[i] = np.quantile(gaps, [0.0, 0.25, 0.5, 0.75, 1.0])
    return theta, x


def lotka_volterra_row(namespace: str, seed: int, index: int) -> np.ndarray:
    """One dataset row (theta, prey series, predator series), redrawn alone.

    Exact stochastic simulation of the four mass-action reactions, recorded
    at 20 equally spaced times by zero-order hold. A draw that exceeds the
    event cap is discarded and redrawn from the same stream.
    """
    rng = stream("sim", namespace, "lotka_volterra", seed, index)
    grid = np.linspace(0.0, LV_HORIZON, LV_POINTS)
    changes = ((0, 1), (0, -1), (1, 0), (-1, 0))
    for _ in range(LV_MAX_REDRAWS):
        theta = rng.uniform(np.full(4, LV_LOWER), np.full(4, LV_UPPER), size=(1, 4))[0]
        rates = np.exp(theta)
        prey, pred = LV_START
        out = np.empty((LV_POINTS, 2))
        t, point, events = 0.0, 0, 0
        capped = False
        while True:
            fp, fq = float(prey), float(pred)
            prop = rates * np.array([fp * fq, fq, fp, fp * fq])
            total = prop.sum()
            if total <= 0.0:
                break
            t_next = t + rng.exponential(1.0 / total)
            while point < LV_POINTS and grid[point] < t_next:
                out[point] = (prey, pred)
                point += 1
            if t_next >= LV_HORIZON:
                break
            events += 1
            if events > LV_EVENT_CAP:
                capped = True
                break
            r = min(int(np.searchsorted(np.cumsum(prop), rng.uniform(0.0, total))), 3)
            prey += changes[r][0]
            pred += changes[r][1]
            t = t_next
        if capped:
            continue
        out[point:] = (prey, pred)
        return np.concatenate([theta, out[:, 0], out[:, 1]])
    raise CheckFailed(f"row {index}: no draw under the event cap in {LV_MAX_REDRAWS} tries")


# --- files ------------------------------------------------------------------

def read_container(path) -> tuple[dict, np.ndarray]:
    """(header, rows) of a dataset file, parsed from its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    require(raw[:8] == DATASET_MAGIC, f"{path}: bad magic {raw[:8]!r}")
    version, hlen = struct.unpack_from("<II", raw, 8)
    require(version == 1, f"{path}: version {version}")
    header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    width = header["theta_dim"] + header["x_dim"]
    body = raw[16 + hlen:]
    require(len(body) == header["budget"] * width * 8,
            f"{path}: payload of {len(body)} bytes for {header['budget']} rows of {width}")
    return header, np.frombuffer(body, dtype="<f8").reshape(header["budget"], width)


def container_size(header: dict, n_rows: int, width: int) -> int:
    """Bytes of magic, version, header length, compact sorted JSON and f64 rows."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(DATASET_MAGIC) + 4 + 4 + len(blob) + n_rows * width * 8


def read_mlp(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight matrices [out, in] and bias vectors from a weights JSON file."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    require(doc.get("activation", "relu") == "relu", f"{path}: activation {doc.get('activation')}")
    wflat = np.asarray(doc["weights"], dtype=np.float64)
    bflat = np.asarray(doc["biases"], dtype=np.float64)
    weights, biases = [], []
    wpos = bpos = 0
    for out, inp in doc["layer_shapes"]:
        weights.append(wflat[wpos:wpos + out * inp].reshape(out, inp))
        biases.append(bflat[bpos:bpos + out])
        wpos += out * inp
        bpos += out
    require(wpos == wflat.size and bpos == bflat.size, f"{path}: payload does not match shapes")
    return weights, biases


def mlp_logits(weights, biases, feats: np.ndarray) -> np.ndarray:
    h = feats
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    return (h @ weights[-1].T + biases[-1]).reshape(-1)


def read_results(path) -> list[dict]:
    """Rows of results.csv with numeric metric columns as floats."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        row = dict(zip(names, line.split(",", len(names) - 1)))
        for key in ("coverage_auc", "expected_log_posterior", "bias", "variance"):
            row[key] = float(row[key])
        rows.append(row)
    return rows


# --- grid posteriors --------------------------------------------------------

def cell_centers(lower: float, upper: float, n: int) -> np.ndarray:
    width = (upper - lower) / n
    return lower + width * (np.arange(n) + 0.5)


def cell_index(value: np.ndarray, lower: float, upper: float, n: int) -> np.ndarray:
    """Cell holding each value, clipped to the grid."""
    width = (upper - lower) / n
    return np.clip(np.floor((np.asarray(value) - lower) / width).astype(np.int64), 0, n - 1)


def masses_from_logits(logits: np.ndarray) -> np.ndarray:
    """Cell masses of exp(logits) over a grid, under a uniform prior."""
    z = np.exp(logits - logits.max())
    return z / z.sum()


def coverage_rows(masses: np.ndarray, star: np.ndarray, levels=LEVELS) -> np.ndarray:
    """Per pair and level, whether the true cell lies in the highest-density region.

    Sorting each row's masses gives the mass of the cells strictly denser than
    the true one (``strict``) and with its ties (``inclusive``); the region at
    level l holds the true cell iff l > strict or l >= inclusive.
    """
    n = masses.shape[0]
    rows = np.empty((n, len(levels)), dtype=bool)
    for i in range(n):
        m = np.sort(masses[i])
        cum = np.concatenate([[0.0], np.cumsum(m[::-1])])
        d = masses[i, star[i]]
        denser = m.size - np.searchsorted(m, d, side="right")
        not_sparser = m.size - np.searchsorted(m, d, side="left")
        rows[i] = (levels > cum[denser]) | (levels >= cum[not_sparser])
    return rows


def coverage_auc(rows: np.ndarray, levels=LEVELS) -> float:
    """Signed area between the mean coverage curve and the diagonal on [0, 1]."""
    curve = rows.mean(axis=0)
    xs = np.concatenate([[0.0], levels, [1.0]])
    ys = np.concatenate([[curve[0]], curve, [curve[-1]]])
    return float(np.sum(np.diff(xs) * (ys[1:] + ys[:-1]) / 2.0) - 0.5)


def moments(masses: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row mean and variance of a 1-d marginal."""
    mean = masses @ centers
    var = np.einsum("ij,ij->i", masses, (centers[None, :] - mean[:, None]) ** 2)
    return mean, var


def tractable_exact_masses(x: np.ndarray, n_cells: int = 1024) -> np.ndarray:
    """Exact posterior cell masses of N(x; theta, 1) under U(-5, 5).

    The mass of cell [a, b] is Phi(b - x) - Phi(a - x), taken from the
    upper tail where both terms are near one so the difference keeps its
    digits; rows are normalized by the mass of the whole box.
    """
    edges = np.linspace(-5.0, 5.0, n_cells + 1)
    a = edges[None, :-1] - x[:, None]
    b = edges[None, 1:] - x[:, None]
    mass = np.where(a > 0.0, ndtr(-a) - ndtr(-b), ndtr(b) - ndtr(a))
    return mass / mass.sum(axis=1, keepdims=True)


def total_variation(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    return 0.5 * np.abs(p - q).sum(axis=1)


# --- summaries that the checks compare --------------------------------------

def summarize(masses: np.ndarray, theta: np.ndarray, lower, upper, shape) -> dict:
    """Coverage AUC, ELP and prior-scaled bias/variance of grid posteriors.

    ``masses`` is [n, cells] with the cells of ``shape`` in row-major order,
    ``theta`` is [n, len(shape)] and the grid spans ``lower``..``upper``.
    """
    n, dims = masses.shape[0], len(shape)
    idx = [cell_index(theta[:, d], lower[d], upper[d], shape[d]) for d in range(dims)]
    cube = masses.reshape(n, *shape)
    bias = np.zeros(n)
    var = np.zeros(n)
    for d in range(dims):
        marginal = cube.sum(axis=tuple(1 + e for e in range(dims) if e != d))
        m, v = moments(marginal, cell_centers(lower[d], upper[d], shape[d]))
        prior_var = (upper[d] - lower[d]) ** 2 / 12.0
        bias += (m - theta[:, d]) ** 2 / prior_var
        var += v / prior_var
    volume = np.prod([(upper[d] - lower[d]) / shape[d] for d in range(dims)])
    star = np.ravel_multi_index(idx, shape)
    dens = masses[np.arange(n), star] / volume
    return {
        "coverage_auc": coverage_auc(coverage_rows(masses, star)),
        "expected_log_posterior": float(np.mean(np.log(np.maximum(dens, 1e-300)))),
        "bias": float(np.mean(bias)),
        "variance": float(np.mean(var)),
    }


# --- checks ------------------------------------------------------------------

def check_agreement(mine: dict, reported: dict, what: str) -> None:
    """Independent re-evaluation matches the program's results row."""
    for key, value in mine.items():
        got = reported[key]
        require(abs(got - value) <= AGREE_TOL * max(1.0, abs(value)),
                f"{what}: {key} {got!r} in results.csv, {value!r} re-evaluated")


def check_conservative(auc: float, what: str) -> None:
    require(auc >= MIN_BNRE_AUC, f"{what}: BNRE coverage AUC {auc:.4f} < {MIN_BNRE_AUC}")


def check_beats_prior(elp: float, prior_log_density: float, what: str) -> None:
    require(elp > prior_log_density + ELP_MARGIN,
            f"{what}: expected log posterior {elp:.4f} not above the prior's {prior_log_density:.4f}")


def check_tv_to_exact(learned: np.ndarray, exact: np.ndarray, what: str) -> tuple[float, float]:
    """Mean TV to the exact posterior is bounded and well below the prior's."""
    tv = float(total_variation(learned, exact).mean())
    prior = np.full_like(exact, 1.0 / exact.shape[1])
    tv_prior = float(total_variation(prior, exact).mean())
    require(tv <= MAX_TV_EXACT, f"{what}: mean TV to the exact posterior {tv:.4f} > {MAX_TV_EXACT}")
    require(tv <= MAX_TV_SHARE_OF_PRIOR * tv_prior,
            f"{what}: mean TV {tv:.4f} not well below the prior's {tv_prior:.4f}")
    return tv, tv_prior


def check_variance_at_least_exact(variance: float, exact_variance: float, what: str) -> None:
    require(variance >= exact_variance,
            f"{what}: scaled posterior variance {variance:.5f} below the exact {exact_variance:.5f}")


def check_standard_normal(r: np.ndarray, what: str) -> None:
    """Sample mean and variance consistent with N(0, 1) at MAX_Z."""
    n = r.size
    z_mean = float(r.mean()) * math.sqrt(n)
    z_var = (float(r.var()) - 1.0) / math.sqrt(2.0 / n)
    require(abs(z_mean) <= MAX_Z, f"{what}: residual mean z-score {z_mean:.2f}")
    require(abs(z_var) <= MAX_Z, f"{what}: residual variance z-score {z_var:.2f}")


def check_lv_rows(rows: np.ndarray, what: str) -> None:
    """Prior range, integer populations, start state and absorbing zero."""
    theta, x = rows[:, :4], rows[:, 4:]
    require(bool(np.all((theta >= LV_LOWER) & (theta <= LV_UPPER))),
            f"{what}: theta outside U({LV_LOWER}, {LV_UPPER})^4")
    require(bool(np.all(x >= 0.0)), f"{what}: negative population")
    require(bool(np.all(x == np.floor(x))), f"{what}: non-integer population")
    series = x.reshape(len(x), 2, LV_POINTS)
    require(bool(np.all(series[:, :, 0] == LV_START)),
            f"{what}: a series does not start at (prey, predator) = {LV_START}")
    extinct = np.maximum.accumulate(series == 0.0, axis=2)
    require(bool(np.all(series[extinct] == 0.0)), f"{what}: a population left zero")


def check_rows_equal(expected: np.ndarray, got: np.ndarray, what: str) -> None:
    """Bit-for-bit equality of two float64 arrays."""
    require(expected.shape == got.shape, f"{what}: shape {got.shape} != {expected.shape}")
    require(np.ascontiguousarray(expected).tobytes() == np.ascontiguousarray(got).tobytes(),
            f"{what}: arrays differ")


def check_file_size(path, size: int, expected: int, what: str) -> None:
    require(size == expected, f"{what}: {path} has {size} bytes, layout gives {expected}")


def check_same_bytes(a: bytes, b: bytes, what: str) -> None:
    require(a == b, f"{what}: contents differ")
