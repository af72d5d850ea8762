"""Posterior-quality diagnostics and exact checks of the balancing theorems.

Expected coverage estimates, for each nominal level 1 - alpha, how often the
ground-truth parameter falls inside its grid-based highest-density credible
region. A calibrated posterior tracks the diagonal; curves above it are
conservative, below it overconfident. The coverage AUC condenses a curve to
the signed area between it and the diagonal. Bias/variance decompose the
expected squared error of the posterior around the ground truth, and SBC
ranks test the uniformity implied by a faithful posterior.

The per-pair functions (coverage indicators, SBC rank) take one grid;
``harness.diagnose_pairs`` calls them once per test pair, and the batch
reductions turn its ``[n, ...]`` arrays into the reported numbers.

Ties in grid density are resolved conservatively: every cell tied at the
threshold joins the credible region, so theta* is covered at every level
that reaches its cell's tie group. The theorem checks run on small discrete
joint tables where every expectation is an exact finite sum, so the balance
identities can be verified to near machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ratio import PosteriorGrid

__all__ = [
    "CoverageCurve",
    "DiscreteToy",
    "BalanceReport",
    "SbcResult",
    "DEFAULT_LEVELS",
    "hpd_mass_at",
    "coverage_indicators",
    "coverage_curve",
    "mean_log_density",
    "scaled_bias_variance",
    "sbc_rank",
    "sbc_uniformity",
    "verify_balance_theorems",
    "temper_to_balance",
    "TheoremBatteryResult",
    "run_theorem_battery",
]

DEFAULT_LEVELS = np.round(np.arange(0.05, 0.951, 0.05), 10)

BALANCE_TOL = 1e-10
DENSITY_FLOOR = 1e-300


@dataclass
class CoverageCurve:
    """Estimated expected coverage per nominal level, with Monte Carlo error."""

    levels: np.ndarray
    coverage: np.ndarray
    se: np.ndarray
    auc: float
    auc_se: float


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


def _auc_from_curve(levels: np.ndarray, values: np.ndarray) -> np.ndarray:
    # trapezoid of each curve (last axis) over [0, 1] (edge-value extension
    # to the endpoints) minus the exact diagonal area: an always-covering
    # curve integrates to +1/2, a never-covering one to -1/2, the diagonal to 0
    xs = np.concatenate([[0.0], levels, [1.0]])
    ys = np.concatenate([values[..., :1], values, values[..., -1:]], axis=-1)
    return np.trapezoid(ys, xs, axis=-1) - 0.5


def coverage_curve(indicators: np.ndarray, levels: np.ndarray) -> CoverageCurve:
    """Expected coverage from per-pair indicators ``[n, L]`` at ``levels``.

    Per-level binomial standard errors and a propagated AUC standard error
    (from per-pair signed areas) are attached.
    """
    levels = np.asarray(levels, dtype=np.float64)
    if levels.size < 1 or np.any(levels <= 0.0) or np.any(levels >= 1.0):
        raise ValueError("levels must lie strictly inside (0, 1)")
    indicators = np.asarray(indicators, dtype=np.float64)
    n = indicators.shape[0]
    coverage = indicators.mean(axis=0)
    se = np.sqrt(coverage * (1.0 - coverage) / n)
    per_pair_auc = _auc_from_curve(levels, indicators)
    auc_se = float(per_pair_auc.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return CoverageCurve(levels, coverage, se, float(per_pair_auc.mean()), auc_se)


def mean_log_density(densities: np.ndarray) -> tuple[float, int]:
    """Expected log posterior from the grid densities at the ground truths.

    Densities below 1e-300 (zero-density cells) are floored to it; returns
    the mean log density and how many pairs were floored.
    """
    densities = np.asarray(densities, dtype=np.float64)
    floored = int(np.count_nonzero(densities < DENSITY_FLOOR))
    return float(np.log(np.maximum(densities, DENSITY_FLOOR)).mean()), floored


def scaled_bias_variance(theta_star: np.ndarray, means: np.ndarray, moments: np.ndarray,
                         prior_var: np.ndarray) -> tuple[float, float]:
    """Posterior bias and variance around the ground truth, averaged over pairs.

    Bias is the squared distance between a pair's grid mean and theta*,
    variance its grid second central moment; both are ``[n, d]`` inputs,
    divided per dimension by ``prior_var`` (ones leave them unscaled) and
    summed over dimensions.
    """
    bias = np.sum((means - theta_star) ** 2 / prior_var, axis=1)
    variance = np.sum(moments / prior_var, axis=1)
    return float(bias.mean()), float(variance.mean())


@dataclass
class SbcResult:
    """Simulation-based-calibration ranks and their distance from uniformity."""

    ranks: np.ndarray
    ks_distance: float
    ks_pvalue: float
    degenerate: bool


def sbc_rank(grid: PosteriorGrid, theta_star: np.ndarray, uniforms: np.ndarray) -> float:
    """Rank of theta* among draws from the grid posterior, one per uniform.

    ``uniforms`` lie in [0, 1) and pick the draws by inverse CDF over the
    cells. The statistic is the grid density; the rank is the fraction of
    draws whose density is <= the ground truth's, which is uniform on
    [0, 1] for a faithful posterior.
    """
    masses = grid.cell_masses.reshape(-1)
    cum = np.cumsum(masses)
    u = uniforms * cum[-1]
    cells = np.minimum(np.searchsorted(cum, u), masses.size - 1)
    f_draws = grid.densities.reshape(-1)[cells]
    return float(np.mean(f_draws <= grid.density_at(theta_star)))


def sbc_uniformity(ranks: np.ndarray) -> SbcResult:
    """One-sample Kolmogorov-Smirnov test of SBC ranks against U(0, 1).

    A flat statistic makes every rank 1.0 via the <= tie rule; such results
    are flagged degenerate.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    # imported here: scipy.stats costs about a second and 45 MiB to import,
    # and nothing else in bnre needs it
    from scipy import stats
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
    def random(cls, rng: np.random.Generator) -> "DiscreteToy":
        """An 8 x 8 table of independent Gamma(1) entries, normalized."""
        return cls(rng.gamma(1.0, size=(8, 8)))

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


def temper_to_balance(d_hat: np.ndarray, toy: DiscreteToy) -> np.ndarray:
    """Exponent-temper a table classifier until the balancing condition holds.

    The balance value of d_hat^t decreases continuously from 2 (t -> 0) to 0
    (t -> inf), so bisection on t pins it to 1 within 1e-14 (or stops after
    200 halvings).
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
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        b = balance(mid)
        if abs(b - 1.0) <= 1e-14:
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


def run_theorem_battery(n_toys: int = 100, seed: int = 0) -> TheoremBatteryResult:
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
        toy = DiscreteToy.random(rng)
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
