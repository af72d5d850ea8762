"""Posterior-quality diagnostics and exact checks of the balancing theorems.

Expected coverage estimates, for each nominal level 1 - alpha, how often the
ground-truth parameter falls inside its grid-based highest-density credible
region. A calibrated posterior tracks the diagonal; curves above it are
conservative, below it overconfident. The coverage AUC condenses a curve to
the signed area between it and the diagonal. Bias/variance decompose the
expected squared error of the posterior around the ground truth, and SBC
ranks test the uniformity implied by a faithful posterior.

Ties in grid density are resolved conservatively: every cell tied at the
threshold joins the credible region, and the achieved mass is reported. The
theorem checks run on small discrete joint tables where every expectation is
an exact finite sum, so the balance identities can be verified to near
machine precision.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .ratio import PosteriorGrid

__all__ = [
    "CoverageCurve",
    "HpdResult",
    "DiscreteToy",
    "BalanceReport",
    "SbcResult",
    "DEFAULT_LEVELS",
    "hpd_threshold",
    "hpd_mass_at",
    "coverage_indicators",
    "expected_coverage",
    "coverage_auc",
    "expected_log_posterior",
    "bias_variance",
    "sbc_ranks",
    "verify_balance_theorems",
    "temper_to_balance",
    "TheoremBatteryResult",
    "run_theorem_battery",
]

DEFAULT_LEVELS = np.round(np.arange(0.05, 0.951, 0.05), 10)

BALANCE_TOL = 1e-10
DENSITY_FLOOR = 1e-300


@dataclass
class HpdResult:
    """Highest-density credible region as a >=-threshold cell set."""

    threshold: float
    region: np.ndarray        # boolean mask over grid cells
    achieved_mass: float
    level: float
    flagged: bool             # ties forced the mass away from the level

    @property
    def cell_indices(self) -> np.ndarray:
        return np.flatnonzero(self.region.reshape(-1))


@dataclass
class CoverageCurve:
    """Estimated expected coverage per nominal level, with Monte Carlo error."""

    levels: np.ndarray
    coverage: np.ndarray
    n_test: int
    se: np.ndarray
    auc: float
    auc_se: float


def hpd_threshold(grid: PosteriorGrid, level: float) -> HpdResult:
    """Exact density threshold of the 1-alpha highest-density region.

    Cells sorted by decreasing density are added until their cumulative
    mass reaches the level; the threshold is the density of the last cell
    added. Cells tied at the threshold are all included (conservative),
    which can leave the achieved mass above the smallest prefix reaching
    the level on flat regions; such results are flagged.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    dens = grid.densities.reshape(-1)
    masses = dens * grid.cell_volume
    order = np.argsort(dens)[::-1]
    k = min(int(np.searchsorted(np.cumsum(masses[order]), level)), dens.size - 1)
    threshold = float(dens[order[k]])
    region = grid.densities >= threshold
    achieved = float(masses[dens >= threshold].sum())
    return HpdResult(threshold, region, achieved, level,
                     flagged=int(region.sum()) > k + 1)


def hpd_mass_at(grid: PosteriorGrid, theta_star: np.ndarray) -> tuple[float, float]:
    """(strict, inclusive) region masses at the ground-truth cell's density.

    ``strict`` is the mass of cells strictly denser than theta_star's cell;
    ``inclusive`` adds theta_star's tie group. theta_star lies inside the
    1 - alpha region iff level > strict or level >= inclusive.
    """
    dens = grid.densities.reshape(-1)
    masses = dens * grid.cell_volume
    d_star = grid.density_at(theta_star)
    strict = float(masses[dens > d_star].sum())
    inclusive = strict + float(masses[dens == d_star].sum())
    return strict, inclusive


def coverage_indicators(grid: PosteriorGrid, theta_star: np.ndarray,
                        levels: np.ndarray) -> np.ndarray:
    strict, inclusive = hpd_mass_at(grid, theta_star)
    levels = np.asarray(levels, dtype=np.float64)
    return (levels > strict) | (levels >= inclusive)


def _auc_from_curve(levels: np.ndarray, values: np.ndarray) -> float:
    # trapezoid of the curve over [0, 1] (edge-value extension to the
    # endpoints) minus the exact diagonal area: an always-covering curve
    # integrates to +1/2, a never-covering one to -1/2, the diagonal to 0
    xs = np.concatenate([[0.0], levels, [1.0]])
    ys = np.concatenate([[values[0]], values, [values[-1]]])
    return float(np.trapezoid(ys, xs) - 0.5)


def expected_coverage(posterior_fn, test_set, levels=DEFAULT_LEVELS) -> CoverageCurve:
    """Fraction of test pairs whose theta* falls in its credible region.

    ``posterior_fn`` maps an observable to a :class:`PosteriorGrid`;
    ``test_set`` iterates (theta_star, x) pairs held out from training.
    Per-level binomial standard errors and a propagated AUC standard error
    (from per-pair signed areas) are attached.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size < 1 or np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise ValueError("levels must lie strictly inside (0, 1)")
    rows = []
    for theta_star, x in test_set:
        grid = posterior_fn(x)
        rows.append(coverage_indicators(grid, theta_star, levels))
    indicators = np.asarray(rows, dtype=np.float64)
    n = indicators.shape[0]
    coverage = indicators.mean(axis=0)
    se = np.sqrt(coverage * (1.0 - coverage) / n)
    per_pair_auc = np.array([_auc_from_curve(levels, row) for row in indicators])
    auc = float(per_pair_auc.mean())
    auc_se = float(per_pair_auc.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return CoverageCurve(levels, coverage, n, se, auc, auc_se)


def coverage_auc(curve: CoverageCurve) -> float:
    """Signed area between the coverage curve and the (0,0)-(1,1) diagonal.

    The curve is integrated over the full unit interval (trapezoid rule,
    edge levels extended outward); 0 means calibrated, > 0 conservative,
    < 0 overconfident, with extremes at +-1/2.
    """
    if curve.levels.size < 2:
        raise ValueError("need at least two levels to integrate")
    return _auc_from_curve(curve.levels, curve.coverage)


def expected_log_posterior(posterior_fn, test_set) -> float:
    """Mean log normalized grid density at the ground-truth cells.

    Zero-density cells contribute log(1e-300); a warning reports how many
    pairs were floored.
    """
    values = []
    floored = 0
    for theta_star, x in test_set:
        grid = posterior_fn(x)
        d = grid.density_at(theta_star)
        if d <= 0.0:
            floored += 1
            d = DENSITY_FLOOR
        values.append(math.log(d))
    if floored:
        warnings.warn(f"{floored}/{len(values)} test points hit zero-density cells",
                      RuntimeWarning, stacklevel=2)
    return float(np.mean(values))


def bias_variance(posterior_fn, test_set, scaled: bool = True) -> tuple[float, float]:
    """Posterior bias and variance around the ground truth, averaged over pairs.

    Bias is the squared distance between the grid mean and theta*, variance
    the grid's second central moment, each summed over dimensions. With
    ``scaled`` (the default) every dimension is divided by the prior
    variance implied by the grid's box, making benchmarks comparable.
    """
    biases = []
    variances = []
    for theta_star, x in test_set:
        grid = posterior_fn(x)
        theta_star = np.atleast_1d(np.asarray(theta_star, dtype=np.float64))
        if scaled:
            widths = np.array([w * len(a) for w, a in zip(grid.cell_widths, grid.axes)])
            prior_var = widths ** 2 / 12.0
        else:
            prior_var = np.ones(grid.ndim)
        mean = grid.mean()
        biases.append(float(np.sum((mean - theta_star) ** 2 / prior_var)))
        variances.append(float(np.sum(grid.second_central_moment() / prior_var)))
    return float(np.mean(biases)), float(np.mean(variances))


@dataclass
class SbcResult:
    """Simulation-based-calibration ranks and their distance from uniformity."""

    ranks: np.ndarray
    ks_distance: float
    ks_pvalue: float
    degenerate: bool


def sbc_ranks(posterior_fn, test_set, rng: np.random.Generator,
              samples_per_posterior: int = 256, statistic: str = "density",
              statistic_dim: int = 0) -> SbcResult:
    """Rank of each theta* among posterior draws under a scalar statistic.

    The default statistic is the grid posterior density itself; ranks are
    the fraction of draws whose statistic is <= the ground truth's, which is
    uniform on [0, 1] for a faithful posterior. ``statistic="identity"``
    ranks a single coordinate instead (draws jittered uniformly within their
    cells). Returns the ranks plus the one-sample Kolmogorov-Smirnov
    distance and p-value against U(0, 1). A flat statistic makes every rank
    1.0 via the <= tie rule; such results are flagged degenerate.
    """
    if samples_per_posterior < 100:
        raise ValueError("samples_per_posterior must be >= 100")
    if statistic not in ("density", "identity"):
        raise ValueError("statistic must be 'density' or 'identity'")
    ranks = []
    for theta_star, x in test_set:
        grid = posterior_fn(x)
        theta_star = np.atleast_1d(np.asarray(theta_star, dtype=np.float64))
        masses = grid.cell_masses.reshape(-1)
        cum = np.cumsum(masses)
        u = rng.random(samples_per_posterior) * cum[-1]
        cells = np.minimum(np.searchsorted(cum, u), masses.size - 1)
        if statistic == "density":
            f_draws = grid.densities.reshape(-1)[cells]
            f_star = grid.density_at(theta_star)
        else:
            d = statistic_dim
            idx = np.unravel_index(cells, grid.densities.shape)[d]
            jitter = (rng.random(samples_per_posterior) - 0.5) * grid.cell_widths[d]
            f_draws = grid.axes[d][idx] + jitter
            f_star = theta_star[d]
        ranks.append(float(np.mean(f_draws <= f_star)))
    ranks = np.asarray(ranks)
    ks = stats.kstest(ranks, "uniform")
    return SbcResult(ranks, float(ks.statistic), float(ks.pvalue),
                     degenerate=bool(np.ptp(ranks) == 0.0))


@dataclass(frozen=True)
class DiscreteToy:
    """Small discrete joint p(theta, x) where expectations are exact sums."""

    joint: np.ndarray

    def __post_init__(self):
        joint = np.asarray(self.joint, dtype=np.float64)
        if joint.ndim != 2 or np.any(joint <= 0.0):
            raise ValueError("joint must be a strictly positive 2-d table")
        object.__setattr__(self, "joint", joint / joint.sum())

    @classmethod
    def random(cls, rng: np.random.Generator, shape: tuple[int, int] = (8, 8),
               concentration: float = 1.0) -> "DiscreteToy":
        return cls(rng.gamma(concentration, size=shape))

    @property
    def p_theta(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def p_x(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @property
    def product(self) -> np.ndarray:
        return np.outer(self.p_theta, self.p_x)

    @property
    def bayes_optimal(self) -> np.ndarray:
        """Cellwise cross-entropy minimizer p(t,x) / (p(t,x) + p(t)p(x))."""
        return self.joint / (self.joint + self.product)


@dataclass
class BalanceReport:
    is_balanced: bool
    balance_value: float
    joint_expectation: float       # E_joint[d / d_hat]
    marginal_expectation: float    # E_product[(1 - d) / (1 - d_hat)]


def _weighted_mean(weights: np.ndarray, values: np.ndarray) -> float:
    num = math.fsum((weights * values).reshape(-1))
    den = math.fsum(weights.reshape(-1))
    return num / den


def verify_balance_theorems(toy: DiscreteToy, d_hat: np.ndarray) -> BalanceReport:
    """Exact balance and conservativeness expectations for a table classifier.

    The classifier is balanced when sum((p_joint + p_product) * d_hat) = 1;
    for balanced classifiers both reported expectations are >= 1, and for
    the cross-entropy minimizer the joint expectation is exactly 1.
    """
    d_hat = np.asarray(d_hat, dtype=np.float64)
    if d_hat.shape != toy.joint.shape:
        raise ValueError("classifier table must match the joint's shape")
    if np.any(d_hat <= 0.0) or np.any(d_hat >= 1.0):
        raise ValueError("classifier entries must lie strictly inside (0, 1)")
    d = toy.bayes_optimal
    product = toy.product
    balance = math.fsum(((toy.joint + product) * d_hat).reshape(-1))
    return BalanceReport(
        is_balanced=abs(balance - 1.0) <= BALANCE_TOL,
        balance_value=balance,
        joint_expectation=_weighted_mean(toy.joint, d / d_hat),
        marginal_expectation=_weighted_mean(product, (1.0 - d) / (1.0 - d_hat)),
    )


def temper_to_balance(d_hat: np.ndarray, toy: DiscreteToy, tol: float = 1e-14,
                      max_iter: int = 200) -> np.ndarray:
    """Exponent-temper a table classifier until the balancing condition holds.

    The balance value of d_hat^t decreases continuously from 2 (t -> 0) to 0
    (t -> inf), so bisection on t pins it to 1 within ``tol``.
    """
    d_hat = np.asarray(d_hat, dtype=np.float64)
    if np.any(d_hat <= 0.0) or np.any(d_hat >= 1.0):
        raise ValueError("classifier entries must lie strictly inside (0, 1)")
    weights = toy.joint + toy.product

    def balance(t: float) -> float:
        return math.fsum((weights * d_hat ** t).reshape(-1))

    lo, hi = 0.0, 1.0
    while balance(hi) > 1.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("tempering failed to bracket the balance root")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        b = balance(mid)
        if abs(b - 1.0) <= tol:
            return d_hat ** mid
        if b > 1.0:
            lo = mid
        else:
            hi = mid
    return d_hat ** (0.5 * (lo + hi))


@dataclass
class TheoremBatteryResult:
    """Outcome of the balance-theorem battery over random discrete toys."""

    n_toys: int
    optimal_balance_worst: float       # worst |B - 1| of the cross-entropy minimizer
    optimal_joint_worst: float         # worst |E_joint[d/d] - 1|
    tempered_balance_worst: float      # worst |B - 1| after tempering
    tempered_joint_min: float          # min E_joint[d/d_hat] over tempered classifiers
    tempered_marginal_min: float       # min E_product[(1-d)/(1-d_hat)]
    unbalanced_violations: int         # toys where the cubed classifier breaks an inequality
    passed: bool

    def summary_lines(self) -> list[str]:
        return [
            f"toys run                         : {self.n_toys}",
            f"optimal classifier |B-1| (worst) : {self.optimal_balance_worst:.3e}",
            f"optimal E_joint[d/d]-1 (worst)   : {self.optimal_joint_worst:.3e}",
            f"tempered |B-1| (worst)           : {self.tempered_balance_worst:.3e}",
            f"tempered E_joint ratio (min)     : {self.tempered_joint_min:.15f}",
            f"tempered E_marginal ratio (min)  : {self.tempered_marginal_min:.15f}",
            f"unbalanced inequality violations : {self.unbalanced_violations}/{self.n_toys}",
        ]


def run_theorem_battery(n_toys: int = 100, seed: int = 0,
                        shape: tuple[int, int] = (8, 8)) -> TheoremBatteryResult:
    """Exhaustively check the balance theorems on random discrete joints.

    For each toy: the cross-entropy minimizer must be balanced and have a
    unit joint expectation; a random classifier tempered onto the balance
    manifold must satisfy both conservativeness expectations >= 1 - 1e-12;
    and a deliberately unbalanced classifier (the minimizer cubed) should
    break at least one of those inequalities on at least one toy, showing
    the balance hypothesis is doing real work.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2025]))
    opt_balance_worst = 0.0
    opt_joint_worst = 0.0
    temp_balance_worst = 0.0
    temp_joint_min = math.inf
    temp_marg_min = math.inf
    violations = 0
    for _ in range(n_toys):
        toy = DiscreteToy.random(rng, shape=shape)
        d = toy.bayes_optimal

        opt = verify_balance_theorems(toy, d)
        opt_balance_worst = max(opt_balance_worst, abs(opt.balance_value - 1.0))
        opt_joint_worst = max(opt_joint_worst, abs(opt.joint_expectation - 1.0))

        raw = rng.uniform(0.05, 0.95, size=toy.joint.shape)
        tempered = temper_to_balance(raw, toy)
        rep = verify_balance_theorems(toy, tempered)
        temp_balance_worst = max(temp_balance_worst, abs(rep.balance_value - 1.0))
        temp_joint_min = min(temp_joint_min, rep.joint_expectation)
        temp_marg_min = min(temp_marg_min, rep.marginal_expectation)

        cubed = verify_balance_theorems(toy, d ** 3)
        if (not cubed.is_balanced and
                (cubed.joint_expectation < 1.0 or cubed.marginal_expectation < 1.0)):
            violations += 1

    passed = (opt_balance_worst <= BALANCE_TOL
              and temp_joint_min >= 1.0 - 1e-12
              and temp_marg_min >= 1.0 - 1e-12
              and violations > 0)
    return TheoremBatteryResult(n_toys, opt_balance_worst, opt_joint_worst,
                                temp_balance_worst, temp_joint_min, temp_marg_min,
                                violations, passed)
