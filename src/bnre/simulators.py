"""Benchmark forward models, priors, and dataset generation.

Benchmarks
----------
``tractable1d``
    theta ~ U(-5, 5); x = theta + eps with eps ~ N(0, 1). The Gaussian
    likelihood admits an exact grid posterior
    (:func:`tractable_posterior`) used as the calibration oracle.

``weinberg``
    One-dimensional surrogate of a high-energy e+e- -> mu+mu- collision at a
    fixed beam energy of 42 GeV. The parameter (prior U(0.5, 1.5)) scales the
    forward-backward asymmetry A_FB = 2 * tanh(10 * (sqrt(s) - MZ) / MZ) * g
    with MZ = 90 and sqrt(s) = 2 * 42; the observable is one scattering-angle
    cosine drawn by rejection from (1 + c^2 + A_FB * c) / (8/3) on [-1, 1].

``slcp_marginal``
    Five parameters, prior U(-3, 3)^5; the observable stacks 4 i.i.d. draws
    from N(mu, Sigma) with mu = (t1, t2), marginal deviations s1 = t3^2,
    s2 = t4^2 and correlation rho = tanh(t5). Inference targets the marginal
    posterior of the two mean parameters.

``mg1``
    Single-server queue: service times U(t1, t1 + t2), inter-arrival times
    Exp(rate t3), priors t1 ~ U(0, 10), t2 ~ U(0, 10), t3 ~ U(0, 1/3),
    50 customers per draw. The observable is the 5 equally spaced quantiles
    (levels 0, .25, .5, .75, 1) of the inter-departure times. Inference
    targets the marginal posterior of (t1, t2).

``lotka_volterra``
    Predator/prey Markov jump process simulated exactly (Gillespie) from
    initial populations (prey, predator) = (50, 100) over horizon 30,
    recorded at 20 grid points per species (zero-order hold). The four rate
    parameters live on log scale with prior U(-4, 1)^4; inference targets
    the two predator parameters (reproduction, mortality). Draws exceeding
    the 1e5 event cap are regenerated with fresh randomness and counted.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .files import replacing
from .rng import substream

__all__ = [
    "BoxPrior",
    "Benchmark",
    "Dataset",
    "SimulationCapExceeded",
    "RegenerationExhausted",
    "get_benchmark",
    "benchmark_names",
    "simulate",
    "draw_joint_sample",
    "generate_dataset",
    "mg1_quantiles",
    "mg1_departures",
    "gillespie_run",
    "tractable_posterior",
    "save_dataset",
    "load_dataset",
]

DATASET_MAGIC = b"BNREDATA"
DATASET_VERSION = 1

MAX_REGENERATION_ATTEMPTS = 1000


class SimulationCapExceeded(RuntimeError):
    """A stochastic simulation hit its event cap before the horizon."""


class RegenerationExhausted(RuntimeError):
    """Every regeneration attempt of one joint draw hit its simulation guard."""


@dataclass(frozen=True)
class BoxPrior:
    """Independent uniform prior over an axis-aligned box."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        # read-only copies: every instance of a benchmark shares its class's prior
        lower = np.array(self.lower, dtype=np.float64)
        upper = np.array(self.upper, dtype=np.float64)
        lower.flags.writeable = upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("prior bounds must be matching 1-d arrays")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ValueError("prior bounds must be finite")
        if not np.all(lower < upper):
            raise ValueError("prior bounds must satisfy lower < upper")

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.widths))

    @property
    def variances(self) -> np.ndarray:
        return self.widths ** 2 / 12.0

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 1:
            raise ValueError("n must be >= 1")
        return rng.uniform(self.lower, self.upper, size=(n, self.dim))

    def contains(self, theta: np.ndarray) -> bool:
        theta = np.asarray(theta, dtype=np.float64)
        return bool(np.all(theta >= self.lower) and np.all(theta <= self.upper))

    def subspace(self, dims: tuple[int, ...]) -> "BoxPrior":
        idx = list(dims)
        return BoxPrior(self.lower[idx], self.upper[idx])


class Benchmark:
    """A forward model with its prior, dimensions, and grid settings.

    Each benchmark sets these as class attributes. ``inference_dims``
    names the parameter components whose (marginal) posterior is
    estimated; classifiers consume only that sub-vector.
    """

    name: str = ""
    prior: BoxPrior
    x_dim: int = 0
    inference_dims: tuple[int, ...] = ()
    grid_shape: tuple[int, ...] = ()

    @property
    def theta_dim(self) -> int:
        return self.prior.dim

    @property
    def inference_prior(self) -> BoxPrior:
        return self.prior.subspace(self.inference_dims)

    def simulate(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def theta_features(self, theta_sub: np.ndarray) -> np.ndarray:
        """Inferred parameters mapped affinely from the prior box to [-1, 1].

        Broadcasts over leading axes: accepts [d] or [n, d].
        """
        box = self.inference_prior
        mid = 0.5 * (box.lower + box.upper)
        half = 0.5 * box.widths
        return (np.asarray(theta_sub, dtype=np.float64) - mid) / half

    def x_features(self, x: np.ndarray) -> np.ndarray:
        """Observable featurization for the classifier; identity by default.

        Implementations are elementwise, so they broadcast over leading axes.
        """
        return np.asarray(x, dtype=np.float64)

    def classifier_input_dim(self) -> int:
        return len(self.inference_dims) + self.x_dim


class Tractable1D(Benchmark):
    name = "tractable1d"
    prior = BoxPrior(np.array([-5.0]), np.array([5.0]))
    x_dim = 1
    inference_dims = (0,)
    grid_shape = (1024,)

    SIGMA_X = 1.0

    def simulate(self, theta, rng):
        return np.array([theta[0] + rng.normal(0.0, self.SIGMA_X)])

    def x_features(self, x):
        return np.asarray(x, dtype=np.float64) / 5.0


class Weinberg(Benchmark):
    name = "weinberg"
    prior = BoxPrior(np.array([0.5]), np.array([1.5]))
    x_dim = 1
    inference_dims = (0,)
    grid_shape = (1024,)

    MZ = 90.0
    BEAM_ENERGY_GEV = 42.0
    XSEC_NORM = 8.0 / 3.0

    def _asymmetry(self, g: float) -> float:
        sqrt_s = 2.0 * self.BEAM_ENERGY_GEV
        return 2.0 * np.tanh(10.0 * (sqrt_s - self.MZ) / self.MZ) * g

    def _diff_xsec(self, costheta, g: float):
        return (1.0 + costheta ** 2 + self._asymmetry(g) * costheta) / self.XSEC_NORM

    def simulate(self, theta, rng):
        g = float(theta[0])
        # parabola opens upward, so the density peaks at an endpoint
        fmax = (2.0 + abs(self._asymmetry(g))) / self.XSEC_NORM
        while True:
            c = rng.uniform(-1.0, 1.0)
            if rng.uniform(0.0, fmax) <= self._diff_xsec(c, g):
                return np.array([c])


class SlcpMarginal(Benchmark):
    name = "slcp_marginal"
    prior = BoxPrior(np.full(5, -3.0), np.full(5, 3.0))
    x_dim = 8
    inference_dims = (0, 1)
    grid_shape = (128, 128)

    N_POINTS = 4

    def simulate(self, theta, rng):
        mu = theta[:2]
        s1 = theta[2] ** 2
        s2 = theta[3] ** 2
        rho = np.tanh(theta[4])
        z = rng.standard_normal((self.N_POINTS, 2))
        pts = np.empty((self.N_POINTS, 2))
        pts[:, 0] = mu[0] + s1 * z[:, 0]
        pts[:, 1] = mu[1] + s2 * (rho * z[:, 0] + np.sqrt(1.0 - rho ** 2) * z[:, 1])
        return pts.reshape(-1)

    def x_features(self, x):
        return np.asarray(x, dtype=np.float64) / 3.0


class MG1(Benchmark):
    name = "mg1"
    prior = BoxPrior(np.array([0.0, 0.0, 0.0]), np.array([10.0, 10.0, 1.0 / 3.0]))
    x_dim = 5
    inference_dims = (0, 1)
    grid_shape = (128, 128)

    N_CUSTOMERS = 50
    QUANTILE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def simulate(self, theta, rng):
        rate = max(float(theta[2]), 1e-12)
        arrivals = np.cumsum(rng.exponential(1.0 / rate, size=self.N_CUSTOMERS))
        services = rng.uniform(theta[0], theta[0] + theta[1], size=self.N_CUSTOMERS)
        departures = mg1_departures(arrivals, services)
        inter = np.diff(departures, prepend=0.0)
        return mg1_quantiles(inter)

    def x_features(self, x):
        # inter-departure quantiles are nonnegative with heavy right tails
        return np.log1p(np.asarray(x, dtype=np.float64))


class LotkaVolterra(Benchmark):
    name = "lotka_volterra"
    prior = BoxPrior(np.full(4, -4.0), np.full(4, 1.0))
    x_dim = 40
    inference_dims = (0, 1)
    grid_shape = (128, 128)

    INITIAL_POPULATIONS = (50, 100)
    HORIZON = 30.0
    GRID_POINTS = 20
    EVENT_CAP = 100_000

    def simulate(self, theta, rng):
        rates = np.exp(np.asarray(theta, dtype=np.float64))
        series = gillespie_run(rates, self.INITIAL_POPULATIONS, self.HORIZON,
                               self.GRID_POINTS, rng, event_cap=self.EVENT_CAP)
        return series.T.reshape(-1)

    def x_features(self, x):
        return np.log1p(np.asarray(x, dtype=np.float64))


_REGISTRY = {
    "tractable1d": Tractable1D,
    "weinberg": Weinberg,
    "slcp_marginal": SlcpMarginal,
    "mg1": MG1,
    "lotka_volterra": LotkaVolterra,
}


def benchmark_names() -> list[str]:
    return sorted(_REGISTRY)


def get_benchmark(name: str) -> Benchmark:
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown benchmark {name!r}; known: {benchmark_names()}") from None
    return cls()


def simulate(benchmark: Benchmark, theta: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """One observable draw x ~ p(x | theta). theta must lie in the prior box."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (benchmark.theta_dim,):
        raise ValueError(f"theta must have shape ({benchmark.theta_dim},), got {theta.shape}")
    if not benchmark.prior.contains(theta):
        raise ValueError("theta outside the prior box")
    x = benchmark.simulate(theta, rng)
    if x.shape != (benchmark.x_dim,):
        raise RuntimeError(f"simulator returned shape {x.shape}, declared ({benchmark.x_dim},)")
    return x


def draw_joint_sample(benchmark: Benchmark, rng: np.random.Generator
                      ) -> tuple[np.ndarray, np.ndarray, int]:
    """One (theta, x) pair from the joint and the number of draws discarded for it.

    A draw that exceeds its simulation guard (e.g. the Lotka-Volterra event
    cap) is discarded entirely — fresh theta and fresh randomness — and
    counted, so users can audit the induced bias.
    """
    for discarded in range(MAX_REGENERATION_ATTEMPTS):
        theta = benchmark.prior.sample(rng, 1)[0]
        try:
            return theta, simulate(benchmark, theta, rng), discarded
        except SimulationCapExceeded:
            pass
    raise RegenerationExhausted(
        f"{benchmark.name}: exceeded {MAX_REGENERATION_ATTEMPTS} regeneration attempts")


@dataclass
class Dataset:
    """A simulation budget of (theta, x) pairs plus seed provenance."""

    benchmark: str
    theta: np.ndarray
    x: np.ndarray
    seed: int
    failures: int = 0

    def __post_init__(self):
        self.theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        if self.theta.ndim != 2 or self.x.ndim != 2 or len(self.theta) != len(self.x):
            raise ValueError("theta and x must be 2-d arrays with equal length")

    def __len__(self) -> int:
        return len(self.theta)


def generate_dataset(benchmark: Benchmark, budget: int, seed: int,
                     namespace: str = "train") -> Dataset:
    """Budget i.i.d. joint samples using per-sample counter-derived streams.

    Sample i draws from the stream keyed (namespace, benchmark, seed, i), so
    the dataset is reproducible regardless of chunking or worker scheduling.
    ``namespace`` keeps held-out test sets disjoint from training data.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    theta = np.empty((budget, benchmark.theta_dim))
    x = np.empty((budget, benchmark.x_dim))
    failures = 0
    for i in range(budget):
        rng = substream("sim", namespace, benchmark.name, seed, i)
        theta[i], x[i], discarded = draw_joint_sample(benchmark, rng)
        failures += discarded
    return Dataset(benchmark.name, theta, x, seed, failures)


def mg1_departures(arrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Departure times of a FIFO single-server queue (Lindley recursion)."""
    arrivals = np.asarray(arrivals, dtype=np.float64)
    services = np.asarray(services, dtype=np.float64)
    if arrivals.shape != services.shape or arrivals.ndim != 1:
        raise ValueError("arrivals and services must be matching 1-d arrays")
    departures = np.empty_like(arrivals)
    prev = 0.0
    for i in range(arrivals.size):
        prev = max(arrivals[i], prev) + services[i]
        departures[i] = prev
    return departures


def mg1_quantiles(interdeparture_times: np.ndarray) -> np.ndarray:
    """Quantiles at levels {0, .25, .5, .75, 1} with linear interpolation."""
    times = np.asarray(interdeparture_times, dtype=np.float64)
    if times.size == 0:
        raise ValueError("need at least one inter-departure time")
    return np.quantile(times, MG1.QUANTILE_LEVELS)


# (prey, predator) change per firing of each Lotka-Volterra reaction
_LV_CHANGES = ((0, 1), (0, -1), (1, 0), (-1, 0))


def gillespie_run(rates: np.ndarray, initial: tuple[int, int], horizon: float,
                  n_points: int, rng: np.random.Generator,
                  event_cap: int = 100_000) -> np.ndarray:
    """Exact Lotka-Volterra jump process recorded on a fixed grid by zero-order hold.

    The four mass-action reactions (predator reproduction, predator
    mortality, prey reproduction, predation) fire at propensities
    ``rates * [prey * predator, predator, prey, prey * predator]``. Returns
    the (prey, predator) populations with shape [n_points, 2]. Raises
    :class:`SimulationCapExceeded` once more than ``event_cap`` reaction
    events fire before the horizon.
    """
    rates = np.asarray(rates, dtype=np.float64)
    prey, pred = (int(n) for n in initial)
    if rates.shape != (4,) or np.any(rates < 0):
        raise ValueError("rates must be four nonnegative numbers")
    if prey < 0 or pred < 0:
        raise ValueError("populations must be nonnegative")
    grid = np.linspace(0.0, horizon, n_points)
    out = np.empty((n_points, 2), dtype=np.float64)
    t = 0.0
    pointer = 0
    events = 0
    while True:
        fp, fq = float(prey), float(pred)
        propensities = rates * np.array([fp * fq, fq, fp, fp * fq])
        total = propensities.sum()
        if total <= 0.0:
            break
        t_next = t + rng.exponential(1.0 / total)
        while pointer < n_points and grid[pointer] < t_next:
            out[pointer] = prey, pred
            pointer += 1
        if t_next >= horizon:
            break
        events += 1
        if events > event_cap:
            raise SimulationCapExceeded(
                f"event cap {event_cap} exceeded at t={t_next:.3f}")
        u = rng.uniform(0.0, total)
        reaction = min(int(np.searchsorted(np.cumsum(propensities), u)), 3)
        prey += _LV_CHANGES[reaction][0]
        pred += _LV_CHANGES[reaction][1]
        t = t_next
    out[pointer:] = prey, pred
    return out


def tractable_posterior(x: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Exact tractable1d posterior densities on a regular grid.

    p(theta | x) is proportional to the Gaussian likelihood N(x; theta,
    SIGMA_X^2) restricted to the prior box (the grid is assumed to cover
    exactly the box); densities are renormalized empirically on the grid
    so they integrate to one with the grid's cell width.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    grid = np.asarray(grid, dtype=np.float64)
    cell = grid[1] - grid[0]
    log_like = -0.5 * ((x[0] - grid) / Tractable1D.SIGMA_X) ** 2
    log_like -= log_like.max()
    dens = np.exp(log_like)
    dens /= dens.sum() * cell
    return dens


def save_dataset(dataset: Dataset, path) -> None:
    """Binary container: magic, version, length-prefixed JSON header, f64 rows.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path``, so a crash never leaves a truncated file behind.
    """
    header = {
        "benchmark": dataset.benchmark,
        "theta_dim": int(dataset.theta.shape[1]),
        "x_dim": int(dataset.x.shape[1]),
        "budget": len(dataset),
        "seed": int(dataset.seed),
        "failures": int(dataset.failures),
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = np.hstack([dataset.theta, dataset.x]).astype("<f8").tobytes()
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<I", DATASET_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(DATASET_MAGIC) + 8 or raw[:len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise ValueError(f"not a dataset file (bad magic): {path}")
    pos = len(DATASET_MAGIC)
    version, = struct.unpack_from("<I", raw, pos)
    pos += 4
    if version != DATASET_VERSION:
        raise ValueError(f"unsupported dataset version {version}, expected {DATASET_VERSION}")
    hlen, = struct.unpack_from("<I", raw, pos)
    pos += 4
    if len(raw) < pos + hlen:
        raise ValueError(f"truncated dataset header: {path}")
    header = json.loads(raw[pos:pos + hlen].decode("utf-8"))
    pos += hlen
    budget = header["budget"]
    width = header["theta_dim"] + header["x_dim"]
    expected = budget * width * 8
    if len(raw) - pos != expected:
        raise ValueError(
            f"truncated dataset payload: expected {expected} bytes, got {len(raw) - pos}")
    rows = np.frombuffer(raw, dtype="<f8", offset=pos).reshape(budget, width)
    return Dataset(header["benchmark"], rows[:, :header["theta_dim"]].copy(),
                   rows[:, header["theta_dim"]:].copy(), header["seed"],
                   header["failures"])
