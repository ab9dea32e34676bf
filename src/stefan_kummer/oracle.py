"""Fixed-grid enthalpy solver used as ground truth for the closed form.

The scheme shares no code with the closed form (it takes only the problem
data types and their datum check from ``stefan``): it integrates the heat
equation on a cell-centered grid and tracks the melting front through a
per-cell latent-heat budget.  Its default warm start is the one place that
reads the closed form: the front and temperature at the start time of the
caller's solved closed form, or of ``solve_front``'s when the caller gives
none, are the initial state (see below).  Cell i (center x_i, width dx)
carries a per-area heat content H_i; the first
lam_i = gamma * x_i**alpha * dx of it melts the cell (midpoint rule for the
position-dependent latent heat) and the excess is sensible heat with
volumetric capacity 1/d (k = 1 in the oracle's units, below), so the cell
temperature is u(H_i) = (d / dx) * max(H_i - lam_i, 0).  Partially melted
cells sit at the phase-change temperature 0, which also blocks conduction
past the front, as befits a one-phase model.  The front position is the melted
length: fully melted cells plus the liquid fraction of the first partial cell.

The time-dependent boundary data are singular at t = 0, so integration
starts at t0 = start_fraction * t_end with the closed-form state as the
initial condition; the comparison therefore validates propagation, not
initialization.  Set ``cold_start=True`` to start from an all-solid state
instead (independent of the closed form, but with an initialization
transient).

Time stepping is backward Euler on the enthalpy,
H - H_prev = dt * div F(u(H)), solved by semismooth Newton (the
source-based linearisation of Voller & Swaminathan, Numer. Heat Transfer
B 19, 1991).  Solid and partially melted cells have a zero Jacobian
entry, so each Newton step is one tridiagonal (Thomas) solve on the
melted block 0..m-1 plus a forward substitution for the front cell m.
The block matrix is an M-matrix, so cells melted at the start of a step
stay melted and the block only grows: a Newton step that melts cell m
adds its row, at the temperature its heat had at the start of the step
((h_m - lam_m) / (dx / d) < 0), and the iteration stops when a step
leaves m unchanged, which makes the step exact up to round-off.  A step
may melt any number of cells: nothing but the front reaching the domain
end, which raises RuntimeError, stops it.  The face has two forms.  A
convective face is implicit at the new time, and a temperature face is
the convective face with h0 = inf (the paper's limit); a flux face lets
in the exact time integral of its datum over the step.

The scheme runs in units L = domain_length, T = t_end and U, the face
datum's temperature at T (c L T**((alpha-1)/2) / k for a flux face), where
k, the face datum, the domain and the horizon are 1.  The data enter as
d T / L**2, gamma L**(alpha+2) / (k T U) and h0 L / (k sqrt(T)), each formed
from logs; outside the normal floats each raises OverflowError, but an h0
group past double range is the temperature face.  U may pass double range
but not fall under the normal floats.  The records scale back.

The state is the block temperatures u_i and the front cell's heat h_m, as
Python lists (scalar loops run faster on lists than on array elements).
In units of rdt = dt / dx, with c1 = dx / (d rdt) and c = c1 + 2,
row i reads c u_i - u_{i-1} - u_{i+1} = c1 u_i_prev; the sweeps
w_i = 1 / (c - w_{i-1}), v_i = (c1 u_i_prev + v_{i-1}) w_i and
u_i = v_i + w_i u_{i+1} take 7 float operations per cell.  The face inflow
a - b u_0 is a ghost row w_{-1} = 1 - b / rdt, v_{-1} = a / rdt.

The step is dt = 2 * _DT_SAFETY * dx * t / max(s, dx) for the current
oracle front s.  As s grows like sqrt(t), the front then crosses about
_DT_SAFETY = 0.2 cells per step, so the step count grows linearly in nx,
and a cold start (s = 0) grows t geometrically.  Every step is recorded: the
result holds the time and front at the start and after each step (so
``np.diff(result.times)`` is the step history), and temperature
snapshots at ten equally spaced times after the start, which the steps
are clipped to land on.  The update is conservative, so the
energy-balance drift it reports measures bookkeeping consistency.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .stefan import Flux, ProblemSpec, SimilaritySolution, _require_positive, solve_front

__all__ = [
    "OracleConfig",
    "OracleResult",
    "ComparisonReport",
    "run_oracle",
    "compare_to_closed_form",
]

# Temperature snapshots per run, at equally spaced times after the start.
_N_SNAPSHOTS = 10
# About the number of cells the front crosses per time step.
_DT_SAFETY = 0.2
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


@dataclass(frozen=True)
class OracleConfig:
    """Grid, horizon and start.

    domain_length should be at least ~4x the expected final front position
    so the zero-flux far end never matters; ``run_oracle`` raises if the
    front gets close to it.  nx, the number of cells, is an integer >= 50.
    """

    domain_length: float
    t_end: float
    nx: int = 2000
    start_fraction: float = 0.01
    cold_start: bool = False

    def __post_init__(self):
        _require_positive("domain_length", self.domain_length)
        _require_positive("t_end", self.t_end)
        if not (isinstance(self.nx, numbers.Integral) and self.nx >= 50):
            raise ValueError(f"nx must be an integer of at least 50, got {self.nx!r}")
        if not 0.0 < self.start_fraction <= 1.0:
            raise ValueError("start_fraction must lie in (0, 1]")
        if self.start_fraction * self.t_end < sys.float_info.min:
            raise ValueError(f"start time start_fraction * t_end = {self.start_fraction} * "
                             f"{self.t_end} is below the smallest normal float")


@dataclass(frozen=True)
class OracleResult:
    problem: ProblemSpec
    config: OracleConfig
    x_centers: np.ndarray
    times: np.ndarray
    front_positions: np.ndarray
    temperature_snapshots: tuple[tuple[float, np.ndarray], ...]
    energy_balance_drift: float
    newton_iterations: int = 0

    @property
    def n_steps(self) -> int:
        """Time steps taken: one front record per step after the start."""
        return len(self.times) - 1


@dataclass(frozen=True)
class ComparisonReport:
    max_front_err: float
    max_field_err: float


def _group(name: str, log_value: float) -> float:
    """The scaled number exp(log_value), the one range check."""
    if not _LOG_MIN <= log_value < _LOG_MAX:
        raise OverflowError(f"the oracle's {name} is exp({log_value}), not a normal float")
    return math.exp(log_value)


def _face_inflow(alpha: float, h0: float | None, dx: float):
    """Heat let in through the fixed face over the step from t to t + dt in
    the oracle's units, as (a, b) with inflow a - b * u0 for the first cell's
    temperature u0 at t + dt (half-cell conduction included).  h0 None is the
    flux face; a temperature face is the convective face with h0 = inf."""
    if h0 is None:
        p = (alpha + 1.0) / 2.0

        def inflow(t: float, dt: float) -> tuple[float, float]:
            # integral of t**(p - 1) over [t, t + dt], free of cancellation
            return t**p * math.expm1(p * math.log1p(dt / t)) / p, 0.0

    else:
        def inflow(t: float, dt: float) -> tuple[float, float]:
            t1 = t + dt
            g = dt / (math.sqrt(t1) / h0 + dx / 2.0)
            return g * t1 ** (alpha / 2.0), g

    return inflow


def _check_room(m: int, nx: int, t: float) -> None:
    if m >= nx - 2:
        raise RuntimeError(f"front reached the domain end at t={t}; enlarge domain_length")


def run_oracle(problem: ProblemSpec, cfg: OracleConfig,
               closed_form: SimilaritySolution | None = None) -> OracleResult:
    """Integrate the enthalpy scheme, recording the time and front at the
    start and after every step, and the temperature at ten equally spaced
    times after the start.

    The warm start reads its initial state from closed_form, the solved
    closed form of problem, or from ``solve_front(problem)`` when it is
    None; a closed form of another problem raises ValueError.  A cold start
    never reads it."""
    import numpy as np
    nx, alpha, face = cfg.nx, problem.alpha, problem.boundary
    length, t_end = cfg.domain_length, cfg.t_end
    log_l, log_t, log_k = math.log(length), math.log(t_end), math.log(problem.k)
    if isinstance(face, Flux):
        h0, log_u = None, math.log(face.c) + log_l + (alpha - 1.0) / 2.0 * log_t - log_k
    else:  # a temperature face is the convective face with h0 = inf
        h0 = getattr(face, "h0", math.inf)
        log_u = math.log(face.t0 if h0 == math.inf else face.t_inf) + alpha / 2.0 * log_t
        log_h0 = math.log(h0) + log_l - log_k - log_t / 2.0
        h0 = math.inf if log_h0 >= _LOG_MAX else _group("group h0 L / (k sqrt(T))", log_h0)
    # U = unit * 2**shift may pass double range where the field does not.  Under
    # the normal floats the closed-form field that the warm start and the
    # comparison read would be subnormal, or 0.
    _group("unit U (the face datum's temperature at T)", min(log_u, 0.0))
    d = _group("group d T / L**2", math.log(problem.d) + log_t - 2.0 * log_l)
    gamma = _group("group gamma L**(alpha+2) / (k T U)", math.log(problem.gamma)
                   + (alpha + 2.0) * log_l - log_k - log_t - log_u)
    shift = round(log_u / math.log(2.0))
    unit = math.exp(log_u - shift * math.log(2.0))

    dx = 1.0 / nx
    x = (np.arange(nx) + 0.5) * dx
    heat_capacity = dx / d  # per area
    t0 = cfg.start_fraction

    # u past the block and w are scratch; v_i overwrites u_i in the sweep.
    lam = (gamma * x**alpha * dx).tolist()
    u = [0.0] * nx
    w = [0.0] * nx
    h_m = 0.0
    m = 0  # melted block 0..m-1, cell m partially melted, solid past it
    if not cfg.cold_start:
        sol = solve_front(problem) if closed_form is None else closed_form
        if sol.problem != problem:
            raise ValueError("closed form and oracle describe different problems")
        # Cells with right edge below the front s0.  A quotient up to 4 eps
        # below an integer counts as that integer: verify's default domain makes
        # s0 / dx exactly nx / 40, and the last bit of the quotient would
        # decide whether cell m starts melted or as an empty front cell.
        cells = sol.front_position(t0 * t_end) / length * nx
        m = int(cells * (1.0 + 4.0 * sys.float_info.epsilon))
        _check_room(m, nx, t0 * t_end)
        u[:m] = np.ldexp(sol.temperature(x[:m] * length, t0 * t_end) / unit, -shift).tolist()
        h_m = max(cells - m, 0.0) * lam[m]

    # Every front cell's lam lies in [lam[m], gamma dx]: only lam[m] can leave double range.
    if lam[m] == 0.0:
        raise OverflowError(f"the oracle's latent heat gamma x**alpha dx of cell {m} is 0.0")

    def energy() -> float:
        return math.fsum(lam[:m]) + heat_capacity * math.fsum(u[:m]) + h_m

    inflow = _face_inflow(alpha, h0, dx)
    energy_start = energy()
    energy_in = 0.0
    snap_at = np.linspace(t0 * t_end, t_end, _N_SNAPSHOTS + 1)[1:].tolist()
    snap_times = iter([t / t_end for t in snap_at])
    snapshots: list[tuple[float, np.ndarray]] = []

    lam_m = lam[m]
    step_scale = 2.0 * _DT_SAFETY * dx
    m_start = m
    t = t0
    t_snap = next(snap_times)
    s = (m + h_m / lam_m) * dx  # the block plus the liquid fraction of cell m
    times, fronts = [t], [s]
    while t < 1.0:
        t_new = t + step_scale * (t / (s if s > dx else dx))
        if t_snap < t_new:
            t_new = t_snap
        dt = t_new - t
        a, b = inflow(t, dt)
        rdt = dt / dx
        # Semismooth Newton: cell m joins the block when its inflow melts it.
        c1 = heat_capacity / rdt
        c = c1 + 2.0
        w_i, v_i = 1.0 - b / rdt, a / rdt
        swept = 0
        while True:
            for i in range(swept, m):
                w_i = 1.0 / (c - w_i)
                v_i = u[i] = (c1 * u[i] + v_i) * w_i
                w[i] = w_i
            h_front = h_m + rdt * v_i
            if h_front <= lam_m:
                break
            u[m] = (h_m - lam_m) / heat_capacity
            h_m, swept, m = 0.0, m, m + 1
            _check_room(m, nx, t_new * t_end)
            lam_m = lam[m]
        h_m = h_front
        u_i = 0.0
        for i in range(m - 1, -1, -1):
            u_i = u[i] = u[i] + w[i] * u_i
        energy_in += a - b * u_i  # u_i is u_0 here, or 0 with no melted block
        t = t_new
        s = (m + h_m / lam_m) * dx
        times.append(t)
        fronts.append(s)
        # no step passes the next snapshot time, so >= means it landed on it
        if t >= t_snap:
            snap = np.zeros(nx)
            snap[:m] = u[:m]
            snapshots.append((snap_at[len(snapshots)], snap))
            t_snap = next(snap_times, 1.0)

    drift_scale = max(abs(energy_in), abs(energy_start), 1e-300)
    with np.errstate(over="ignore"):  # inf past double range, where the closed form raises
        snapshots = [(t, np.ldexp(u * unit, shift)) for t, u in snapshots]
    return OracleResult(
        problem=problem,
        config=cfg,
        x_centers=x * length,
        times=np.asarray(times) * t_end,
        front_positions=np.asarray(fronts) * length,
        temperature_snapshots=tuple(snapshots),
        energy_balance_drift=abs(energy() - energy_start - energy_in) / drift_scale,
        # one Newton iteration per step, plus one per cell it melted
        newton_iterations=len(times) - 1 + m - m_start,
    )


def compare_to_closed_form(
    result: OracleResult,
    sol: SimilaritySolution,
    t_window: tuple[float, float] | None = None,
) -> ComparisonReport:
    """Sup-norm relative errors of the front trajectory and of the
    temperature snapshots over the melted region, at the times in t_window,
    by default [0.1 t_end, t_end]: skipping the first decade of the run
    measures propagation, not the initial state.  Raises ValueError when
    the window holds no front record or no snapshot.

    The field error at each snapshot is normalized by the largest
    closed-form temperature at that time (pointwise relative error is
    meaningless next to the front, where both fields vanish).
    """
    import numpy as np
    if result.problem != sol.problem:
        raise ValueError("oracle result and closed form describe different problems")
    if t_window is None:
        t_window = (0.1 * result.config.t_end, result.config.t_end)
    lo, hi = t_window

    times = result.times
    keep = (lo <= times) & (times <= hi)
    snaps = [(t, u) for t, u in result.temperature_snapshots if lo <= t <= hi]
    if not (keep.any() and snaps):
        raise ValueError(f"t_window {t_window} holds no front record or no "
                         f"snapshot of the run on [{times[0]}, {times[-1]}]")
    s_cf = sol.front_position(times[keep])
    ahead = s_cf > 0.0
    front_err = np.abs(result.front_positions[keep][ahead] - s_cf[ahead]) / s_cf[ahead]
    max_front_err = float(front_err.max(initial=0.0))

    # Every snapshot in the window in one evaluation: rows are snapshots,
    # and the reference is 0 outside each row's melted cells.
    dx = result.config.domain_length / result.config.nx
    t = np.array([t for t, _ in snaps])
    u = np.array([u for _, u in snaps])
    inside = result.x_centers < sol.front_position(t)[:, None] - dx
    rows, cols = np.nonzero(inside)
    ref = np.zeros(u.shape)
    ref[rows, cols] = sol.temperature(result.x_centers[cols], t[rows])
    scale = np.abs(ref).max(axis=1)
    err = np.where(inside, np.abs(u - ref), 0.0).max(axis=1)
    nonzero = scale > 0.0
    max_field_err = float((err[nonzero] / scale[nonzero]).max(initial=0.0))

    return ComparisonReport(max_front_err=max_front_err, max_field_err=max_field_err)
