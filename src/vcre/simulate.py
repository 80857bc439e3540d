"""Seeded scenario generators and replication studies.

Three scenarios share one Gaussian-design backbone: two-dimensional fixed
and random covariates, uniform index variable, sinusoidal coefficient
functions, cluster sizes drawn as floor(|theta|) + 6 with theta normal with
standard deviation 2.  The uniform-noise variant swaps the Gaussian
measurement error for a variance-matched uniform; the misspecified variant
runs the effects through a mild nonlinearity while the emitted dataset
still records the raw covariates.

Randomness is counter-based: every (seed, replication, cluster) triple owns
an independent stream, so results are bit-identical regardless of execution
order.  Normal draws use the inverse-CDF transform for cross-platform
reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import LongitudinalDataset
from .errors import DataValidationError, NumericalError, VcreError
from .kernels import KernelSpec
from .reml import fit_reml
from .splines import SplineSpec, fit_wi, fit_wls, imp, mise
from .varcomp import fit_pipeline

SCENARIOS = ("gaussian", "uniform_noise", "misspecified")

DEFAULT_SIGMA = np.array([[2.0, 1.5], [1.5, 2.0]])


def default_effect_cov(q: int) -> np.ndarray:
    """Reference covariance: 2 on the diagonal, 1.5 everywhere else (PSD)."""
    return 0.5 * np.eye(q) + 1.5 * np.ones((q, q))


def coefficient_values(u) -> np.ndarray:
    """True coefficient functions sin(2*pi*u), cos(2*pi*u) on the grid u."""
    u = np.asarray(u, dtype=float)
    return np.column_stack([np.sin(2 * np.pi * u), np.cos(2 * np.pi * u)])


def coefficient_curvature(u) -> np.ndarray:
    """Second derivatives of the true coefficient functions."""
    u = np.asarray(u, dtype=float)
    w = (2 * np.pi) ** 2
    return np.column_stack([-w * np.sin(2 * np.pi * u), -w * np.cos(2 * np.pi * u)])


def _effect_nonlinearity(z: np.ndarray) -> np.ndarray:
    return z + 0.1 * np.sin(z)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Simulation configuration; defaults pin the reference design."""

    scenario: str = "gaussian"
    m: int = 100
    sigma2: float = 1.0
    Sigma: np.ndarray = field(default_factory=lambda: DEFAULT_SIGMA.copy())
    bandwidth: float = 0.15
    seed: int = 0
    replications: int = 100

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise DataValidationError(
                f"unknown scenario {self.scenario!r}; expected one of {SCENARIOS}"
            )
        if self.m < 1 or self.replications < 1:
            raise DataValidationError("m and replications must be positive")
        if not (self.sigma2 >= 0 and self.bandwidth > 0):
            raise DataValidationError("sigma2 must be >= 0 and bandwidth > 0")
        Sigma = np.asarray(self.Sigma, dtype=float)
        if Sigma.ndim != 2 or Sigma.shape[0] != Sigma.shape[1]:
            raise DataValidationError("Sigma must be square")
        w = np.linalg.eigvalsh(0.5 * (Sigma + Sigma.T))
        if w.min() < -1e-10:
            raise DataValidationError("Sigma must be positive semidefinite")
        object.__setattr__(self, "Sigma", 0.5 * (Sigma + Sigma.T))

    @property
    def q(self) -> int:
        return self.Sigma.shape[0]

    @property
    def kernel(self) -> KernelSpec:
        return KernelSpec(bandwidth=self.bandwidth)

    def truth(self) -> dict:
        return {
            "sigma11": float(self.Sigma[0, 0]),
            "sigma12": float(self.Sigma[0, 1]),
            "sigma22": float(self.Sigma[1, 1]),
            "sigma2": float(self.sigma2),
        }


def _cluster_rng(seed: int, rep: int, cluster: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(rep, cluster))
    return np.random.Generator(np.random.Philox(ss))


# Cephes' ndtri (Moshier), the inverse standard normal CDF that scipy.special
# ships: a rational approximation in (p - 1/2)^2 for exp(-2) < p < 1 - exp(-2),
# otherwise one in 1/x with x = sqrt(-2 log p) (P1/Q1 for x < 8, P2/Q2 beyond).
# The tail takes its logarithms from libm (math.log), as Cephes does, so the
# draws are scipy's bit for bit; numpy's vectorized log can differ in the last bit.
_EXP_M2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _ratio(x: np.ndarray, num, den) -> np.ndarray:
    """x * num(x) / den(x): Horner sums, den with an implicit leading 1 (polevl / p1evl)."""
    top, bottom = np.full_like(x, num[0]), x + den[0]
    for c in num[1:]:
        top = top * x + c
    for c in den[1:]:
        bottom = bottom * x + c
    return x * top / bottom


def _libm_log(x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.log, x.tolist()), float, x.size)


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Inverse standard normal CDF on 0 < p < 1, equal to scipy.special.ndtri bitwise."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    out = np.empty_like(y)
    mid = y > _EXP_M2
    d = y[mid] - 0.5
    out[mid] = (d + d * _ratio(d * d, _P0, _Q0)) * 2.50662827463100050242
    tail = ~mid
    x = np.sqrt(-2.0 * _libm_log(y[tail]))
    z = 1.0 / x
    x1 = _ratio(z, _P1, _Q1)
    far = x >= 8.0
    if far.any():
        x1[far] = _ratio(z[far], _P2, _Q2)
    x = x - _libm_log(x) / x - x1
    out[tail] = np.where(upper[tail], x, -x)
    return out


def _std_normal(u: np.ndarray) -> np.ndarray:
    return _ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def generate(cfg: ScenarioConfig, rep_index: int) -> LongitudinalDataset:
    """Generate one replication's dataset, deterministic per (seed, rep_index).

    Cluster i draws from its own stream: a normal theta for its size
    n_i = floor(|2 theta|) + 6, then one block of n_i (4 + q) + q uniforms
    that splits, in order, into u (n_i), X (n_i x 2), Z (n_i x q), the effect
    e (q) and the noise (n_i).  One inverse-CDF transform covers every
    normal draw of the dataset.
    """
    q, width = cfg.q, 4 + cfg.q
    chol = np.linalg.cholesky(cfg.Sigma + 1e-12 * np.eye(q))
    rngs = [_cluster_rng(cfg.seed, rep_index, i) for i in range(cfg.m)]
    theta = 2.0 * _std_normal(np.array([rng.random() for rng in rngs]))
    sizes = np.floor(np.abs(theta)).astype(int) + 6
    block = np.concatenate([rng.random(n * width + q) for rng, n in zip(rngs, sizes.tolist())])
    normal = _std_normal(block)
    offsets = np.cumsum(sizes) - sizes
    starts = offsets * width + q * np.arange(cfg.m)  # where each cluster's block starts
    # the j-th row of a cluster reads its u at start + j, its x at start + n_i + 2j,
    # its z at start + 3 n_i + q j and its noise at start + (3 + q) n_i + q + j
    at, n_i = np.repeat(starts, sizes), np.repeat(sizes, sizes)
    j = np.arange(at.size) - np.repeat(offsets, sizes)
    u = block[at + j]
    X = normal[(at + n_i + 2 * j)[:, None] + np.arange(2)]
    Z = normal[(at + 3 * n_i + q * j)[:, None] + np.arange(q)]
    noise = at + (3 + q) * n_i + q + j
    sd = math.sqrt(cfg.sigma2)
    if cfg.scenario == "uniform_noise":
        eps = math.sqrt(3.0) * sd * (2.0 * block[noise] - 1.0)
    else:
        eps = sd * normal[noise]
    design = _effect_nonlinearity(Z) if cfg.scenario == "misspecified" else Z
    effect = np.empty_like(u)
    # per-cluster products: one stacked product would sum in another order
    for s, n, e in zip(offsets.tolist(), sizes.tolist(), (starts + (3 + q) * sizes).tolist()):
        effect[s : s + n] = design[s : s + n] @ (chol @ normal[e : e + q])
    y = np.sum(X * coefficient_values(u), axis=1) + effect + eps
    return LongitudinalDataset.from_columns(
        [f"c{i:04d}" for i in range(cfg.m)], sizes, u, y, X, Z
    )


ESTIMANDS = ("sigma11", "sigma12", "sigma22", "sigma2")


@dataclass(frozen=True, eq=False)
class MseTable:
    """Mean squared errors per estimand and method, with Monte-Carlo SEs."""

    estimands: tuple[str, ...]
    methods: tuple[str, ...]
    mse: np.ndarray  # (n_estimands, n_methods)
    mc_se: np.ndarray
    replications: int
    failures: int
    per_rep_sq_err: np.ndarray  # (reps, n_estimands, n_methods); NaN on failure
    reml_converged: dict = field(default_factory=dict)

    def to_rows(self) -> list:
        rows = []
        for i, est in enumerate(self.estimands):
            row = {"estimand": est}
            for j, meth in enumerate(self.methods):
                row[f"mse_{meth}"] = float(self.mse[i, j])
                row[f"se_{meth}"] = float(self.mc_se[i, j])
            rows.append(row)
        return rows


def _sq_errors(Sigma: np.ndarray, sigma2: float, truth: dict) -> np.ndarray:
    """Squared errors of the ESTIMANDS: Sigma's (1,1), (1,2), (2,2) entries and sigma2."""
    values = (Sigma[0, 0], Sigma[0, 1], Sigma[1, 1], sigma2)
    return np.array([(float(v) - truth[k]) ** 2 for k, v in zip(ESTIMANDS, values)])


def run_mse_study(
    cfg: ScenarioConfig,
    methods=("closed_form",),
    reml_knots=(),
    spline_degree: int = 3,
    rep_indices=None,
    threads: int = 1,
) -> MseTable:
    """Replicate generate -> fit -> squared error and average per estimand.

    Methods: "closed_form" and/or "reml"; the latter is run once per knot
    count in `reml_knots` (initialized from that replication's closed-form
    estimates).  Failed replications are excluded and counted; more than 5%
    failures abort the study.  Replications run serially; `threads` is
    accepted and has no effect.
    """
    methods = tuple(methods)
    for meth in methods:
        if meth not in ("closed_form", "reml"):
            raise DataValidationError(f"unknown method {meth!r}")
    if "reml" in methods and not reml_knots:
        raise DataValidationError("method 'reml' requires at least one knot count")
    if rep_indices is None:
        rep_indices = range(cfg.replications)
    rep_indices = list(rep_indices)
    if len(rep_indices) < 2:
        raise DataValidationError("need at least 2 replications")
    columns = []
    if "closed_form" in methods:
        columns.append("closed_form")
    if "reml" in methods:
        columns.extend(f"reml_k{k}" for k in reml_knots)
    truth = cfg.truth()

    def worker(rep):
        out = np.full((len(ESTIMANDS), len(columns)), np.nan)
        converged = {}
        try:
            ds = generate(cfg, rep)
            fit = fit_pipeline(ds, cfg.kernel)
            vc = fit.variance
            col = 0
            if "closed_form" in methods:
                out[:, col] = _sq_errors(vc.sigma_raw.entries, vc.sigma2, truth)
                col += 1
            if "reml" in methods:
                for k in reml_knots:
                    spec = SplineSpec(
                        n_interior_knots=k, interval=(0.0, 1.0), degree=spline_degree
                    )
                    rf = fit_reml(ds, spec, init=vc)
                    out[:, col] = _sq_errors(rf.Sigma.entries, rf.sigma2, truth)
                    converged[f"reml_k{k}"] = bool(rf.converged)
                    col += 1
            return out, converged, None
        except VcreError as e:
            return out, converged, e

    results = [worker(rep) for rep in rep_indices]
    per_rep = np.stack([r[0] for r in results])
    failures = sum(1 for r in results if r[2] is not None)
    if failures > 0.05 * len(rep_indices):
        raise NumericalError(
            f"{failures} of {len(rep_indices)} replications failed; study aborted"
        )
    reml_converged: dict = {}
    for _, conv, err in results:
        if err is not None:
            continue
        for key, ok in conv.items():
            reml_converged[key] = reml_converged.get(key, 0) + int(ok)
    with np.errstate(invalid="ignore"):
        mse = np.nanmean(per_rep, axis=0)
        counts = np.sum(~np.isnan(per_rep), axis=0)
        mc_se = np.nanstd(per_rep, axis=0, ddof=1) / np.sqrt(np.maximum(counts, 1))
    return MseTable(
        estimands=ESTIMANDS,
        methods=tuple(columns),
        mse=mse,
        mc_se=mc_se,
        replications=len(rep_indices),
        failures=failures,
        per_rep_sq_err=per_rep,
        reml_converged=reml_converged,
    )


@dataclass(frozen=True, eq=False)
class ImpTable:
    """Relative MISE improvement of the weighted fit, per knot count."""

    knots: tuple[int, ...]
    imp: np.ndarray  # (n_knots, p)
    mise_wi: np.ndarray  # replication-averaged, (n_knots, p)
    mise_wls: np.ndarray
    replications: int
    failures: int

    def to_rows(self) -> list:
        rows = []
        p = self.imp.shape[1]
        for i, k in enumerate(self.knots):
            row = {"knots": k}
            for j in range(p):
                row[f"imp_a{j + 1}"] = float(self.imp[i, j])
            rows.append(row)
        return rows


def run_imp_study(
    cfg: ScenarioConfig,
    knot_range,
    replications=None,
    grid_size: int = 401,
    spline_degree: int = 3,
    variance_override=None,
    threads: int = 1,
) -> ImpTable:
    """MISE comparison of working-independence and weighted spline fits.

    Per replication both fits run at every knot count; squared-error
    integrals on a uniform grid are averaged across replications and the
    improvement ratio is formed from the averaged MISEs.  The weighted fit
    uses that replication's estimated variance components unless
    `variance_override` is given.  Replications run serially; `threads` is
    accepted and has no effect.
    """
    knots = tuple(int(k) for k in knot_range)
    if not knots:
        raise DataValidationError("empty knot range")
    reps = cfg.replications if replications is None else int(replications)
    grid = np.linspace(0.0, 1.0, grid_size)
    truth_vals = coefficient_values(grid)
    p = truth_vals.shape[1]

    def worker(rep):
        wi_out = np.full((len(knots), p), np.nan)
        wls_out = np.full((len(knots), p), np.nan)
        try:
            ds = generate(cfg, rep)
            if variance_override is None:
                vc = fit_pipeline(ds, cfg.kernel).variance
            else:
                vc = variance_override
            for i, k in enumerate(knots):
                spec = SplineSpec(
                    n_interior_knots=k, interval=(0.0, 1.0), degree=spline_degree
                )
                wi_fit = fit_wi(ds, spec).evaluate(grid)
                wls_fit = fit_wls(ds, spec, vc).evaluate(grid)
                for j in range(p):
                    wi_out[i, j] = mise(wi_fit[:, j], truth_vals[:, j], grid)
                    wls_out[i, j] = mise(wls_fit[:, j], truth_vals[:, j], grid)
            return wi_out, wls_out, None
        except VcreError as e:
            return wi_out, wls_out, e

    results = [worker(rep) for rep in range(reps)]
    failures = sum(1 for r in results if r[2] is not None)
    if failures > 0.05 * reps:
        raise NumericalError(f"{failures} of {reps} replications failed; study aborted")
    wi_all = np.stack([r[0] for r in results])
    wls_all = np.stack([r[1] for r in results])
    with np.errstate(invalid="ignore"):
        wi_avg = np.nanmean(wi_all, axis=0)
        wls_avg = np.nanmean(wls_all, axis=0)
    ratios = np.empty_like(wi_avg)
    for i in range(ratios.shape[0]):
        for j in range(ratios.shape[1]):
            ratios[i, j] = imp(float(wi_avg[i, j]), float(wls_avg[i, j]))
    return ImpTable(
        knots=knots,
        imp=ratios,
        mise_wi=wi_avg,
        mise_wls=wls_avg,
        replications=reps,
        failures=failures,
    )
