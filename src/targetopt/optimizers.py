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
import time
from dataclasses import dataclass, field, asdict, replace
from typing import Literal, get_args

import numpy as np

from . import losses as losses_mod
from .inner_solvers import UNREAD_INNER, InnerOptions, armijo_backtracking, backtrack
from .inner_solvers import exact_linear_solve, gd_fixed  # perfbench's tracer test reads them here
from .models import row_entries, row_norms2, row_range, spectral_norm, take_rows, zero_rows
from .schedules import KINDS, LS_ALPHA0, LS_C, LS_SHRINK, ScheduleOptions, theoretical_eta0
from .schedules import target_line_search
from .schema import check, reject_unread
from .surrogates import OracleCounter, Variant, build_stochastic, freeze

# The names with fixed choices; `RUNNERS` has one runner per Optimizer.
Optimizer = Literal["sso", "sgd", "sls", "adam", "adagrad", "svrg"]
Sampling = Literal["replacement", "shuffle"]
Diagnostic = Literal["eps", "zeta2"]
DIAGNOSTICS = get_args(Diagnostic)
# Stored entries (CSR nonzeros, or values of dense rows) that `_batches`
# gathers in one block: 2**16 float64 values are 512 KiB.
BLOCK_ENTRIES = 2**16
# Schedule kinds by optimizer; any other optimizer follows only "constant".
SCHEDULE_KINDS = {"sso": KINDS, "sgd": tuple(k for k in KINDS if k != "target-line-search")}


@dataclass
class RunConfig:
    """One run of one optimizer on one dataset; shaped like a JSON run entry.
    Its one outer step is `schedule.eta0`, its one inner step `inner.alpha`."""

    optimizer: Optimizer = "sso"
    run_id: str = ""
    T: int = 100
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    tau: float = 1.0
    eval_every: int = 1
    variant: Variant = "smoothness"  # SSO's surrogate
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    inner: InnerOptions = field(default_factory=InnerOptions)
    sampling: Sampling = "replacement"
    svrg_snapshot_freq: int | None = None  # None = ceil(n / b)
    diagnostics: tuple[Diagnostic, ...] = ()
    record_theta: bool = False

    def check_names(self) -> None:
        """Reject a schedule kind the optimizer cannot follow and a
        non-default setting that the optimizer, schedule kind or inner
        solver never reads."""
        if (kind := self.schedule.kind) not in SCHEDULE_KINDS.get(self.optimizer, ("constant",)):
            raise ValueError(f"optimizer {self.optimizer!r} cannot follow schedule kind {kind!r}")
        opt = f"optimizer {self.optimizer!r}"
        if self.optimizer != "sso":
            reject_unread(self, opt, ("variant", "inner", "diagnostics"))
        if self.optimizer != "svrg":
            reject_unread(self, opt, ("svrg_snapshot_freq",))
        if kind != "exponential":
            reject_unread(self.schedule, f"schedule kind {kind!r}", ("beta",), "schedule.")
        solver = self.inner.solver
        reject_unread(self.inner, f"inner solver {solver!r}", UNREAD_INNER.get(solver, ()), "inner.")

    def validate(self, n: int) -> None:
        """Check each field against its annotation, then `check_names`,
        then the value ranges on a dataset of n rows."""
        check(self)
        self.check_names()
        b = n if self.batch_size is None else self.batch_size
        inner, eta0 = self.inner, self.schedule.eta0
        freq = self.svrg_snapshot_freq
        for ok, problem in [
            (self.T >= 1, f"T must be an integer >= 1, not {self.T!r}"),
            (1 <= b <= n, f"batch size {b} outside [1, {n}]"),
            (self.tau >= 0, "tau must be >= 0"),
            (self.eval_every >= 1, "eval_every must be >= 1"),
            (freq is None or freq >= 1, f"svrg_snapshot_freq must be an integer >= 1, not {freq!r}"),
            (eta0 is None or eta0 > 0, "schedule eta0 must be positive"),
            (inner.m >= 1, f"inner m must be an integer >= 1, not {inner.m!r}"),
            (inner.alpha is None or inner.alpha > 0, "inner alpha must be positive"),
        ]:
            if not ok:
                raise ValueError(problem)
        if self.schedule.kind == "exponential":  # the schedule's own horizon and beta checks
            self.schedule.steps(1.0, self.T)

    def resolve(self, dataset, model, loss) -> RunConfig:
        """This run checked against the problem (`validate`, then its fit to
        the model and loss), as a copy with every default fixed: `batch_size`
        n, svrg's snapshot frequency ceil(n / b) and `schedule.eta0` from
        `base_step`."""
        n = dataset.n
        self.validate(n)
        inner, variant, model_kind, loss_kind = self.inner, self.variant, model.kind, loss.kind
        solver = f"inner solver {inner.solver!r}" + " without inner.alpha" * (inner.solver == "gd")
        closed_form = self.optimizer == "sso" and (
            inner.solver == "exact" or inner.solver == "gd" and inner.alpha is None)
        # Other optimizers have the default variant and no diagnostics. Only
        # softmax-linear gives the row-stochastic targets multiclass-kl reads.
        for bad, problem in [
            (closed_form and (model_kind != "linear" or variant == "entropy-mirror"),
             f"{solver} needs a linear model and variant 'smoothness' or 'newton', "
             f"not model {model_kind!r} with variant {variant!r}"),
            (variant == "entropy-mirror" and model_kind != "softmax-linear",
             f"variant 'entropy-mirror' needs model 'softmax-linear', not {model_kind!r}"),
            (variant == "newton" and loss_kind == "multiclass-kl",
             "variant 'newton' needs a loss with curvature, not 'multiclass-kl'"),
            (self.diagnostics and model_kind != "linear",
             f"diagnostics need a linear model, not {model_kind!r}"),
            (loss_kind == "multiclass-kl" and model_kind != "softmax-linear",
             f"loss 'multiclass-kl' needs model 'softmax-linear', not {model_kind!r}"),
            (model_kind == "softmax-linear" and loss_kind != "multiclass-kl",
             f"model 'softmax-linear' needs loss 'multiclass-kl', not {loss_kind!r}"),
        ]:
            if bad:
                raise ValueError(problem)
        if "zeta2" in self.diagnostics:  # each row's singleton surrogate is flat on a zero row
            zero = zero_rows(dataset.X)
            if zero.size:
                raise ValueError(f"diagnostic 'zeta2' needs nonzero rows, and row {zero[0]} "
                                 "(from 0) of the data is all zero")
        b = n if self.batch_size is None else self.batch_size
        cfg = replace(self, batch_size=b)
        if self.optimizer == "svrg" and self.svrg_snapshot_freq is None:
            cfg.svrg_snapshot_freq = -(-n // b)
        cfg.schedule = replace(self.schedule, eta0=base_step(cfg, dataset, loss))
        return cfg


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


def _batches(dataset, batch: int, rng, mode: str, T: int):
    """The run's T batches (idx, rows, labels), drawn uniformly with
    replacement or by epoch shuffling. A full batch is the dataset's own X
    and labels, not a copy, and takes nothing from `rng`.

    Smaller batches are drawn and gathered a block at a time: the indices
    of up to BLOCK_ENTRIES stored entries' worth of batches (b times
    `row_entries`), one `take_rows` for their rows and one `y[idx]` for
    their labels. Each batch is a view of its block, which is
    read-only, so an update that writes into a batch fails instead of
    changing a later one. The batches are those of one draw per batch, bit
    for bit: numpy's Generator draws bounded integers one value at a time
    and keeps a spare half-word in the bit generator's state, so one
    `integers` call of k*b values is the stream of k calls of b values and
    leaves the same state; epoch shuffling takes the block from the same
    permutations, drawn in the same order, as they run out."""
    X, y, n = dataset.X, dataset.y, dataset.n
    if batch == n:
        for _ in range(T):
            yield np.arange(n), X, y
        return
    per_block = max(1, BLOCK_ENTRIES // max(1, batch * row_entries(X)))
    order = np.empty(0, dtype=int)  # the rest of the drawn permutations
    for start in range(0, T, per_block):
        size = min(per_block, T - start) * batch
        if mode == "replacement":
            idx = rng.integers(0, n, size=size)
        else:
            while order.size < size:
                order = np.concatenate([order, rng.permutation(n)])
            idx, order = order[:size], order[size:]
        rows, labels = take_rows(X, idx), y[idx]
        idx.flags.writeable = labels.flags.writeable = False
        for lo in range(0, size, batch):
            yield idx[lo:lo + batch], row_range(rows, lo, lo + batch), labels[lo:lo + batch]


def full_loss(loss, dataset, z) -> float:
    """The mean loss at the dataset's targets z."""
    return losses_mod.loss_value(loss, z, dataset.y)


def batch_param_grad(loss, model, theta, rows, y, counter: OracleCounter | None = None):
    """Mean parametric gradient of the losses on `rows` with labels `y`;
    one oracle call per row, counted on `counter`."""
    z = model.forward(theta, rows)
    coeffs = np.asarray(loss.grads(z, y))
    if counter is not None:
        counter.add(rows.shape[0])
    return model.param_grad(theta, rows, coeffs, z) / rows.shape[0]


def full_grad_norm(loss, model, dataset, theta, z) -> float:
    """Norm of the mean gradient at theta, whose dataset targets are z."""
    coeffs = np.asarray(loss.grads(z, dataset.y))
    return float(np.linalg.norm(model.param_grad(theta, dataset.X, coeffs, z) / dataset.n))


def theoretical_parametric_step(dataset, loss, batch_size=None) -> float:
    """1/(2 L_theta), L_theta the smoothness of the averaged parametric loss.

    Full batch: L * lambda_max(X^T X) / n. Stochastic batches: the max
    individual constant L * max_i ||X_i||^2 (the safe step-size scale for
    sampled gradients). An X of zero norm has no such step: ValueError.
    """
    X, n = dataset.X, dataset.n
    if batch_size is None or batch_size == n:
        what, L_theta = "spectral norm", loss.L * spectral_norm(X) ** 2 / n
    else:
        what, L_theta = "max row norm", loss.L * float(row_norms2(X).max())
    if L_theta == 0.0:
        raise ValueError(f"the default step 1/(2 L_theta) needs a nonzero {what} of X, "
                         "and it is 0; set schedule.eta0")
    return 1.0 / (2.0 * L_theta)


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
    """Collects trace rows and owns the oracle / inner-step counters.

    A row's loss and gradient norm are evaluated on all of X. The start row
    (t = 0) is evaluated once per problem and start theta in a process: the
    first run from it stores the two floats in `dataset.starts`, inside its
    own timed window, and every later run reads them. Linear and
    softmax-linear models start at 0 whatever the seed, so the pairs of an
    in-process experiment share one evaluation. Each MLP seed draws its own
    start, and a pool worker (`--jobs` above 1) unpickles its own copy of
    the problem for each pair, so those evaluate their start once per pair.
    A non-finite start raises in every run and is not stored.
    """

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
        starts = self.dataset.starts
        key = (self.model, self.loss, theta.tobytes()) if t == 0 else None
        if key in starts:
            wall_ms = (time.perf_counter() - self.t0) * 1e3
            loss_val, grad_norm = starts[key]
        else:
            z = self.model.forward(theta, self.dataset.X)  # serves the loss and the gradient
            loss_val = full_loss(self.loss, self.dataset, z)
            if not np.isfinite(loss_val):
                raise RuntimeError(f"non-finite loss at outer iteration {t}")
            wall_ms = (time.perf_counter() - self.t0) * 1e3
            grad_norm = full_grad_norm(self.loss, self.model, self.dataset, theta, z)
            if key is not None:
                starts[key] = loss_val, grad_norm
        self.rows.append(
            TraceRow(
                outer_t=t,
                oracle_calls=self.counter.calls,
                inner_steps=self.inner_steps,
                sim_cost=self.counter.calls * self.cfg.tau + self.inner_steps,
                wall_ms=wall_ms,
                eta=eta_t,
                loss=loss_val,
                grad_norm=grad_norm,
                eps=eps,
                zeta2=zeta2,
            )
        )

    def due(self, t: int) -> bool:
        return t % self.cfg.eval_every == 0 or t == self.cfg.T


def _drive(cfg: RunConfig, dataset, model, loss, make_step) -> RunTrace:
    """The outer loop shared by every optimizer, on a resolved `cfg`.

    `make_step(cfg, dataset, model, loss, rec)` sets up one optimizer and
    returns its update `step(t, theta, idx, rows, labels) -> (theta, eta,
    row_fields)` on the batch the loop drew. The update pays its oracle
    calls on `rec.counter` through `freeze` or `batch_param_grad` and keeps
    any state between calls.
    """
    rng = np.random.default_rng(cfg.seed)
    theta = np.asarray(model.init_params(dataset.d, rng), dtype=np.float64)
    batches = _batches(dataset, cfg.batch_size, rng, cfg.sampling, cfg.T)
    rec = _Recorder(cfg, loss, model, dataset)
    step = make_step(cfg, dataset, model, loss, rec)

    rec.record(0, theta, 0.0)
    rec.snap(theta)
    for t in range(1, cfg.T + 1):
        theta, eta_t, row_fields = step(t, theta, *next(batches))
        rec.snap(theta)
        if rec.due(t):
            rec.record(t, theta, eta_t, **row_fields)
    return RunTrace(run_id=cfg.run_id or cfg.optimizer, seed=cfg.seed, config=asdict(cfg),
                    rows=rec.rows, thetas=rec.thetas, inner_stalls=rec.inner_stalls)


def _sso_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Surrogate optimization (any variant / schedule / inner solver)."""
    eta0 = cfg.schedule.eta0
    eta = None if cfg.schedule.kind == "target-line-search" else cfg.schedule.steps(eta0, cfg.T)
    # gd's default step reads the batch rows' spectral norm. A full batch's
    # rows are X at every step, so its norm is computed once per run.
    full_gd = cfg.batch_size == dataset.n and cfg.inner.solver == "gd" and cfg.inner.alpha is None
    rows_norm = spectral_norm(dataset.X) if full_gd else None

    def step(t, theta, idx, rows, y_b):
        batch = freeze(loss, model, theta, rows, y_b, rec.counter, rows_norm)
        if eta is None:
            eta_t, stalled = target_line_search(loss, batch.z, batch.y, batch.coeffs, alpha0=eta0)
            rec.inner_stalls += stalled
        else:
            eta_t = eta(t, grad=batch.coeffs)
        res = cfg.inner.solve(build_stochastic(loss, batch, eta_t, cfg.variant), batch.theta, t)
        rec.inner_steps += res.inner_steps
        rec.inner_stalls += res.stalled

        row_fields = {}
        if cfg.diagnostics and rec.due(t):
            from . import diagnostics as diag

            if "eps" in cfg.diagnostics:
                row_fields["eps"] = diag.projection_error(loss, dataset, batch, idx, eta_t,
                                                          res.theta)
            if "zeta2" in cfg.diagnostics:
                row_fields["zeta2"] = diag.zeta2(dataset, loss, model, theta, eta_t)
        return res.theta, eta_t, row_fields

    return step


def _sgd_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Plain stochastic gradient descent in parameter space."""
    eta = cfg.schedule.steps(cfg.schedule.eta0, cfg.T)

    def step(t, theta, _, rows, y_b):
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        eta_t = eta(t, grad=g)
        return theta - eta_t * g, eta_t, {}

    return step


def _sls_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """SGD with Armijo backtracking on the sampled mini-batch loss."""
    eta0 = cfg.schedule.eta0

    def step(t, theta, _, rows, y_b):
        batch = freeze(loss, model, theta, rows, y_b, rec.counter)
        base = losses_mod.mean(batch.consts)
        g = model.param_grad(theta, rows, batch.coeffs, batch.z) / rows.shape[0]
        gnorm2 = float(g @ g)
        if gnorm2 == 0.0:
            return theta, eta0, {}
        eta_t, _, stalled = backtrack(
            lambda a: losses_mod.mean(loss.values(model.forward(theta - a * g, rows), y_b)),
            base, gnorm2, eta0, LS_SHRINK, LS_C)
        rec.inner_stalls += stalled
        return theta - eta_t * g, eta_t, {}

    return step


def _adam_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Adam baseline with the usual default constants."""
    lr = cfg.schedule.eta0
    m = v = 0.0  # moment estimates; a scalar zero acts as the zero vector

    def step(t, theta, _, rows, y_b):
        nonlocal m, v
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        return theta - lr * mhat / (np.sqrt(vhat) + 1e-8), lr, {}

    return step


def _adagrad_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """Diagonal AdaGrad baseline."""
    lr = cfg.schedule.eta0
    acc = 0.0  # running sum of squared gradients

    def step(t, theta, _, rows, y_b):
        nonlocal acc
        g = batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
        acc = acc + g * g
        return theta - lr * g / (np.sqrt(acc) + 1e-10), lr, {}

    return step


def _svrg_step(cfg: RunConfig, dataset, model, loss, rec: _Recorder):
    """SVRG: periodic full-gradient snapshots + control-variate steps.

    Each snapshot costs n oracle calls; each update step costs 2b (batch
    gradients at the current point and at the snapshot).
    """
    freq, eta = cfg.svrg_snapshot_freq, cfg.schedule.eta0
    snapshot = mu = None

    def step(t, theta, _, rows, y_b):
        nonlocal snapshot, mu
        if (t - 1) % freq == 0:
            snapshot = theta.copy()
            mu = batch_param_grad(loss, model, snapshot, dataset.X, dataset.y, rec.counter)
        g = (
            batch_param_grad(loss, model, theta, rows, y_b, rec.counter)
            - batch_param_grad(loss, model, snapshot, rows, y_b, rec.counter)
            + mu
        )
        return theta - eta * g, eta, {}

    return step


RUNNERS = {
    name: functools.partial(_drive, make_step=make_step)
    for name, make_step in [("sso", _sso_step), ("sgd", _sgd_step), ("sls", _sls_step),
                            ("adam", _adam_step), ("adagrad", _adagrad_step), ("svrg", _svrg_step)]
}


def run(cfg: RunConfig, dataset, model, loss) -> RunTrace:
    """Check `cfg` against the problem, fix its defaults and run it
    (`RunConfig.resolve`)."""
    cfg = cfg.resolve(dataset, model, loss)
    return RUNNERS[cfg.optimizer](cfg, dataset, model, loss)
