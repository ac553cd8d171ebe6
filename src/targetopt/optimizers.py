"""One outer optimization loop with uniform tracing and oracle accounting.

`run` drives every optimizer through the same loop: sample a batch, pay
its oracle calls, update. SSO builds one surrogate per outer iteration
(consuming exactly batch-size oracle calls) and minimizes it with a
configured inner solver; the parametric baselines (SGD, SGD + line
search, Adam, AdaGrad, SVRG) differ only in their update, so traces are
directly comparable. Simulated cost is oracle_calls * tau + inner_steps,
where an inner step is one surrogate-gradient evaluation (a closed-form
solve counts as d of them) and parametric updates count zero.
"""

from __future__ import annotations

import functools
import numbers
import time
from dataclasses import dataclass, field, asdict
from operator import attrgetter

import numpy as np

from . import losses as losses_mod
from .inner_solvers import armijo_backtracking, backtrack, exact_linear_solve, gd_fixed
from .models import row_norms2, spectral_norm, take_rows
from .schedules import KINDS, LS_ALPHA0, LS_C, LS_SHRINK, Schedule, theoretical_eta0
from .schedules import eta as schedule_eta, target_line_search
from .surrogates import VARIANTS, OracleCounter, build_stochastic, freeze

INNER_SOLVERS = ("gd", "armijo", "exact")
M_RULES = ("constant", "log")
SAMPLING_MODES = ("replacement", "shuffle")
DIAGNOSTICS = ("eps", "zeta2")
# Inner settings each solver never reads ("armijo" reads them all).
UNREAD_INNER = {"exact": ("m", "m_rule", "alpha", "growth", "warm_start"),
                "gd": ("growth", "warm_start")}
# Schedule kinds by optimizer; any other optimizer follows only "constant".
SCHEDULE_KINDS = {"sso": KINDS, "sgd": tuple(k for k in KINDS if k != "target-line-search")}


@dataclass
class ScheduleOptions:
    """A run's "schedule" group: the outer step size and its schedule.

    `eta0` is every optimizer's base step (SSO's target step, the SGD and
    SVRG step, the Adam and AdaGrad rate, the first SLS and target line
    search trial); None takes the optimizer's default. SSO follows every
    kind, SGD all but target-line-search, the others only "constant"."""

    kind: str = "constant"
    eta0: float | None = None
    beta: float = 1.0


@dataclass
class InnerOptions:
    """A run's "inner" group: the inner solver, its step and its budget.
    `alpha` is gd's fixed step (None = 1/beta, beta the surrogate's
    smoothness bound) and Armijo's first trial (None = 1.0, times `growth`)."""

    solver: str = "gd"  # gd | armijo | exact
    m: int = 1
    m_rule: str = "constant"  # constant | log
    alpha: float | None = None
    growth: float = 1.0
    warm_start: bool = False


@dataclass
class RunConfig:
    """One run of one optimizer on one dataset; shaped like a JSON run entry.
    Its one outer step is `schedule.eta0`, its one inner step `inner.alpha`."""

    optimizer: str = "sso"
    run_id: str = ""
    T: int = 100
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    tau: float = 1.0
    eval_every: int = 1
    variant: str = "smoothness"  # SSO's surrogate
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    inner: InnerOptions = field(default_factory=InnerOptions)
    sampling: str = "replacement"  # replacement | shuffle
    svrg_snapshot_freq: int | None = None  # None = ceil(n / b)
    diagnostics: tuple = ()
    record_theta: bool = False

    def check_names(self) -> None:
        """Reject a name that is not one of the known choices, a schedule
        kind the optimizer cannot follow, and a non-default setting that
        the optimizer, schedule kind or inner solver never reads."""
        for what, name, known in (
            ("optimizer", self.optimizer, OPTIMIZERS),
            ("surrogate variant", self.variant, VARIANTS),
            ("inner solver", self.inner.solver, INNER_SOLVERS),
            ("inner m_rule", self.inner.m_rule, M_RULES),
            ("schedule kind", self.schedule.kind, KINDS),
            ("sampling mode", self.sampling, SAMPLING_MODES),
            *(("diagnostic", name, DIAGNOSTICS) for name in self.diagnostics),
        ):
            if name not in known:
                raise ValueError(f"unknown {what} {name!r}")
        freq = self.svrg_snapshot_freq
        if freq is not None and not (isinstance(freq, numbers.Integral) and freq >= 1):
            raise ValueError(f"svrg_snapshot_freq must be an integer >= 1, not {freq!r}")
        if (kind := self.schedule.kind) not in SCHEDULE_KINDS.get(self.optimizer, ("constant",)):
            raise ValueError(f"optimizer {self.optimizer!r} cannot follow schedule kind {kind!r}")
        opt = f"optimizer {self.optimizer!r}"
        unread = []  # (setting, what never reads it)
        if self.optimizer != "sso":
            unread += [("variant", opt), ("inner", opt), ("diagnostics", opt)]
        if self.optimizer != "svrg":
            unread.append(("svrg_snapshot_freq", opt))
        if kind != "exponential":
            unread.append(("schedule.beta", f"schedule kind {kind!r}"))
        solver = f"inner solver {self.inner.solver!r}"
        unread += [(f"inner.{name}", solver) for name in UNREAD_INNER.get(self.inner.solver, ())]
        default = RunConfig()
        for name, reader in unread:
            if attrgetter(name)(self) != attrgetter(name)(default):
                raise ValueError(f"{reader} does not read {name!r}; leave it out")

    def validate(self, n: int) -> None:
        self.check_names()
        if not (isinstance(self.T, numbers.Integral) and self.T >= 1):
            raise ValueError(f"T must be an integer >= 1, not {self.T!r}")
        b = self.resolved_batch(n)
        if not (1 <= b <= n):
            raise ValueError(f"batch size {b} outside [1, {n}]")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.schedule.eta0 is not None and not self.schedule.eta0 > 0:
            raise ValueError("schedule eta0 must be positive")
        inner = self.inner
        if not (isinstance(inner.m, numbers.Integral) and inner.m >= 1):
            raise ValueError(f"inner m must be an integer >= 1, not {inner.m!r}")
        if inner.alpha is not None and not inner.alpha > 0:
            raise ValueError("inner alpha must be positive")
        if not inner.growth > 0:
            raise ValueError("inner growth must be positive")

    def resolved_batch(self, n: int) -> int:
        return n if self.batch_size is None else int(self.batch_size)


@dataclass
class TraceRow:
    outer_t: int
    oracle_calls: int
    inner_steps: int
    sim_cost: float
    wall_ms: float
    eta: float
    loss: float
    grad_norm: float
    eps: float | None = None
    zeta2: float | None = None


@dataclass
class RunTrace:
    """A run's trace rows and resolved config. `inner_stalls` counts the
    searches that hit the backtrack floor: inner Armijo solves, target
    line searches and SLS searches; each still takes its last step."""

    run_id: str
    seed: int
    config: dict
    rows: list = field(default_factory=list)
    thetas: list = field(default_factory=list)  # populated when record_theta
    inner_stalls: int = 0

    def final_loss(self) -> float:
        return self.rows[-1].loss

    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.rows])


class _Sampler:
    """Batch source: `draw()` returns (idx, rows, labels) of a batch drawn
    uniformly with replacement or by epoch shuffling. A full batch is the
    dataset's own X and labels, not a copy."""

    def __init__(self, dataset, batch: int, rng, mode: str):
        self.X, self.y = dataset.X, dataset.y
        self.n, self.batch, self.rng, self.mode = dataset.n, batch, rng, mode
        self._order = np.empty(0, dtype=int)
        self._pos = 0

    def draw(self):
        if self.batch == self.n:
            return np.arange(self.n), self.X, self.y
        idx = self._indices()
        return idx, take_rows(self.X, idx), self.y[idx]

    def _indices(self) -> np.ndarray:
        if self.mode == "replacement":
            return self.rng.integers(0, self.n, size=self.batch)
        out = []
        while len(out) < self.batch:
            if self._pos >= self._order.size:
                self._order = self.rng.permutation(self.n)
                self._pos = 0
            take = min(self.batch - len(out), self._order.size - self._pos)
            out.extend(self._order[self._pos : self._pos + take])
            self._pos += take
        return np.asarray(out, dtype=int)


def full_loss(loss, model, dataset, theta) -> float:
    z = model.forward(theta, dataset.X)
    return losses_mod.loss_value(loss, z, dataset.y)


def batch_param_grad(loss, model, theta, rows, y, counter: OracleCounter | None = None):
    """Mean parametric gradient of the losses on `rows` with labels `y`;
    one oracle call per row, counted on `counter`."""
    z = model.forward(theta, rows)
    coeffs = np.asarray(loss.grads(z, y))
    if counter is not None:
        counter.add(rows.shape[0])
    return model.param_grad(theta, rows, coeffs) / rows.shape[0]


def full_grad_norm(loss, model, dataset, theta) -> float:
    return float(np.linalg.norm(batch_param_grad(loss, model, theta, dataset.X, dataset.y)))


def theoretical_parametric_step(dataset, loss, batch_size=None) -> float:
    """1/(2 L_theta), L_theta the smoothness of the averaged parametric loss.

    Full batch: L * lambda_max(X^T X) / n. Stochastic batches: the max
    individual constant L * max_i ||X_i||^2 (the safe step-size scale for
    sampled gradients).
    """
    X, n = dataset.X, dataset.n
    if batch_size is None or batch_size == n:
        return 1.0 / (2.0 * (loss.L * spectral_norm(X) ** 2 / n))
    return 1.0 / (2.0 * (loss.L * float(row_norms2(X).max())))


def base_step(cfg: RunConfig, dataset, loss) -> float:
    """The run's `schedule.eta0`, by default 1/(2 L n) for SSO (1e-2 under
    adagrad-norm), 1/(2 L_theta) for SGD and SVRG, 1e-3 for Adam, 1e-2 for
    AdaGrad, and LS_ALPHA0 for SLS and the target line search."""
    opt, kind = cfg.optimizer, cfg.schedule.kind
    if cfg.schedule.eta0 is not None:
        return cfg.schedule.eta0
    if opt == "sls" or kind == "target-line-search":
        return LS_ALPHA0
    if opt == "sso":
        return 1e-2 if kind == "adagrad-norm" else theoretical_eta0(loss.L, dataset.n)
    if opt in ("sgd", "svrg"):
        return theoretical_parametric_step(dataset, loss, cfg.batch_size)
    return {"adam": 1e-3, "adagrad": 1e-2}[opt]


class _Recorder:
    """Collects trace rows and owns the oracle / inner-step counters."""

    def __init__(self, cfg: RunConfig, loss, model, dataset):
        self.cfg = cfg
        self.loss, self.model, self.dataset = loss, model, dataset
        self.counter = OracleCounter()
        self.inner_steps = 0
        self.inner_stalls = 0
        self.t0 = time.perf_counter()
        self.rows: list[TraceRow] = []
        self.thetas: list[np.ndarray] = []

    def snap(self, theta) -> None:
        if self.cfg.record_theta:
            self.thetas.append(np.array(theta, copy=True))

    def record(self, t: int, theta, eta_t: float, eps=None, zeta2=None) -> None:
        loss_val = full_loss(self.loss, self.model, self.dataset, theta)
        if not np.isfinite(loss_val):
            raise RuntimeError(f"non-finite loss at outer iteration {t}")
        self.rows.append(
            TraceRow(
                outer_t=t,
                oracle_calls=self.counter.calls,
                inner_steps=self.inner_steps,
                sim_cost=self.counter.calls * self.cfg.tau + self.inner_steps,
                wall_ms=(time.perf_counter() - self.t0) * 1e3,
                eta=eta_t,
                loss=loss_val,
                grad_norm=full_grad_norm(self.loss, self.model, self.dataset, theta),
                eps=eps,
                zeta2=zeta2,
            )
        )

    def due(self, t: int) -> bool:
        return t % self.cfg.eval_every == 0 or t == self.cfg.T


def _drive(cfg: RunConfig, dataset, model, loss, make_step) -> RunTrace:
    """The outer loop shared by every optimizer.

    `make_step(cfg, dataset, model, loss, rec)` sets up one optimizer and
    returns its update `step(t, theta, draw) -> (theta, eta, row_fields)`.
    The update draws its own batch, `draw() -> (idx, rows, labels)` (SVRG
    takes its snapshot first), pays its oracle calls on `rec.counter`
    through `freeze` or `batch_param_grad` and keeps any state between
    calls.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = np.asarray(model.init_params(dataset.d, rng), dtype=np.float64)
    sampler = _Sampler(dataset, cfg.resolved_batch(dataset.n), rng, cfg.sampling)
    rec = _Recorder(cfg, loss, model, dataset)
    step = make_step(cfg, dataset, model, loss, rec)

    rec.record(0, theta, 0.0)
    rec.snap(theta)
    for t in range(1, cfg.T + 1):
        theta, eta_t, row_fields = step(t, theta, sampler.draw)
        rec.snap(theta)
        if rec.due(t):
            rec.record(t, theta, eta_t, **row_fields)
    return RunTrace(
        run_id=cfg.run_id or cfg.optimizer,
        seed=cfg.seed,
        config=asdict(cfg),
        rows=rec.rows,
        thetas=rec.thetas,
        inner_stalls=rec.inner_stalls,
    )


def _sso_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Surrogate optimization (any variant / schedule / inner solver)."""
    opts, inner = cfg.schedule, cfg.inner
    eta0 = base_step(cfg, dataset, loss)
    sched = None
    if opts.kind != "target-line-search":
        sched = Schedule(opts.kind, eta0, T=cfg.T, beta=opts.beta)
    warm_alpha = None

    def step(t, theta, draw):
        nonlocal warm_alpha
        idx, rows, y_b = draw()
        batch = freeze(loss, model, theta, rows, y_b, rec.counter)
        if sched is None:
            eta_t, stalled = target_line_search(loss, batch.z, batch.y, batch.coeffs, alpha0=eta0)
            rec.inner_stalls += stalled
        else:
            eta_t = schedule_eta(sched, t, grad=batch.coeffs)
        surr = build_stochastic(loss, batch, eta_t, cfg.variant)
        m_t = inner.m if inner.m_rule == "constant" else int(np.ceil(inner.m * np.log(t + 2)))
        if inner.solver == "exact":
            theta_next = exact_linear_solve(surr, origin=theta)
            rec.inner_steps += dataset.d
        else:
            if inner.solver == "gd":
                res = gd_fixed(surr, theta, m_t, alpha=inner.alpha)
            else:
                alpha0 = (1.0 if inner.alpha is None else inner.alpha) * inner.growth
                if inner.warm_start and warm_alpha is not None:
                    alpha0 = warm_alpha * inner.growth
                res = armijo_backtracking(surr, theta, m_t, alpha0=alpha0)
                warm_alpha = res.last_alpha
            theta_next = res.theta
            rec.inner_steps += res.inner_steps
            rec.inner_stalls += res.stalled

        row_fields = {}
        if cfg.diagnostics and rec.due(t):
            from . import diagnostics as diag

            if "eps" in cfg.diagnostics:
                row_fields["eps"] = diag.projection_error(
                    loss, model, dataset, theta, idx, eta_t, theta_next
                )
            if "zeta2" in cfg.diagnostics:
                row_fields["zeta2"] = diag.zeta2(dataset, loss, model, theta, eta_t)
        return theta_next, eta_t, row_fields

    return step


def _sgd_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Plain stochastic gradient descent in parameter space."""
    sched = Schedule(
        cfg.schedule.kind, base_step(cfg, dataset, loss), T=cfg.T, beta=cfg.schedule.beta
    )

    def step(t, theta, draw):
        _, rows, y_b = draw()
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        eta_t = schedule_eta(sched, t, grad=g)
        return theta - eta_t * g, eta_t, {}

    return step


def _sls_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """SGD with Armijo backtracking on the sampled mini-batch loss."""
    eta0 = base_step(cfg, dataset, loss)

    def step(t, theta, draw):
        _, rows, y_b = draw()
        batch = freeze(loss, model, theta, rows, y_b, rec.counter)
        base = float(np.mean(batch.consts))
        g = model.param_grad(theta, rows, batch.coeffs) / rows.shape[0]
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            return theta, eta0, {}
        eta_t, _, stalled = backtrack(
            lambda a: float(np.mean(loss.values(model.forward(theta - a * g, rows), y_b))),
            base, gnorm2, eta0, LS_SHRINK, LS_C)
        rec.inner_stalls += stalled
        return theta - eta_t * g, eta_t, {}

    return step


def _adam_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Adam baseline with the usual default constants."""
    lr = base_step(cfg, dataset, loss)
    m = v = 0.0  # moment estimates; a scalar zero acts as the zero vector

    def step(t, theta, draw):
        nonlocal m, v
        _, rows, y_b = draw()
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        return theta - lr * mhat / (np.sqrt(vhat) + 1e-8), lr, {}

    return step


def _adagrad_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Diagonal AdaGrad baseline."""
    lr = base_step(cfg, dataset, loss)
    acc = 0.0  # running sum of squared gradients

    def step(t, theta, draw):
        nonlocal acc
        _, rows, y_b = draw()
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        acc = acc + g * g
        return theta - lr * g / (np.sqrt(acc) + 1e-10), lr, {}

    return step


def _svrg_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """SVRG: periodic full-gradient snapshots + control-variate steps.

    Each snapshot costs n oracle calls; each update step costs 2b (batch
    gradients at the current point and at the snapshot).
    """
    n = dataset.n
    freq = cfg.svrg_snapshot_freq or max(1, int(np.ceil(n / cfg.resolved_batch(n))))
    eta = base_step(cfg, dataset, loss)
    snapshot = mu = None

    def step(t, theta, draw):
        nonlocal snapshot, mu
        if (t - 1) % freq == 0:
            snapshot = theta.copy()
            mu = batch_param_grad(loss, model, snapshot, dataset.X, dataset.y, rec.counter)
        _, rows, y_b = draw()
        g = (
            batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
            - batch_param_grad(loss, model, snapshot, rows, y_b, rec.counter)
            + mu
        )
        return theta - eta * g, eta, {}

    return step


RUNNERS = {
    name: functools.partial(_drive, make_step=make_step)
    for name, make_step in [
        ("sso", _sso_step),
        ("sgd", _sgd_step),
        ("sls", _sls_step),
        ("adam", _adam_step),
        ("adagrad", _adagrad_step),
        ("svrg", _svrg_step),
    ]
}
OPTIMIZERS = tuple(RUNNERS)


def run(cfg: RunConfig, dataset, model, loss) -> RunTrace:
    """Validate `cfg` and run its optimizer on the dataset."""
    cfg.validate(dataset.n)
    return RUNNERS[cfg.optimizer](cfg, dataset, model, loss)
