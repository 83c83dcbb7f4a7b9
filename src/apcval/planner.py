"""Sample-size and quota planning.

Covers the classic sample size, the enlarged recorded size needed when
only a quota of the safe partition is counted, quota selection for a fixed
recording budget, the cost-optimal quota, buffering, and the integer
number of counted safe records. All sizes round up; rounding up is
conservative for the user risk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .domain import CostParams, PartitionParams, TestParams
from .normal import norm_ppf


@dataclass(frozen=True, slots=True)
class Plan:
    """A resolved validation plan, as `make_plan` builds it.

    q_source records how the quota was chosen: 'given' (taken from the
    partition parameters), 'optimized' (cost-optimal closed form) or
    'fixed' (solved for a fixed recording budget).
    """

    n_e: int
    n_rec: int
    q_planned: float
    q_source: str
    buffered_n_rec: int
    buffered_n_e: int
    params: TestParams
    partition: PartitionParams
    costs: CostParams | None = None
    notes: tuple[str, ...] = ()


def _ceil_snapped(x: float) -> int:
    """Ceiling that forgives float noise just above an integer."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return math.ceil(x)


def counted_count(q0: float, n_s: int) -> int:
    """Number of safe records to count for quota q0 out of n_s."""
    if not 0.0 < q0 <= 1.0:
        raise ValueError(f"q0 must be in (0, 1], got {q0}")
    if n_s < 1:
        raise ValueError(f"n_s must be >= 1, got {n_s}")
    return min(n_s, max(1, _ceil_snapped(q0 * n_s)))


def _quantile_sum(params: TestParams) -> float:
    """z_{1-alpha/2} + z_{1-beta/2}."""
    return norm_ppf(1.0 - params.alpha / 2.0) + norm_ppf(1.0 - params.beta / 2.0)


def _planning_nu(params: TestParams) -> tuple[float, list[str]]:
    notes: list[str] = []
    nu = params.nu
    if nu < params.nu_min:
        notes.append(
            f"planning nu={nu} below nu_min={params.nu_min}: substituted nu_min"
        )
        nu = params.nu_min
    if nu == 0.0:
        notes.append("degenerate plan (nu is 0): sample size floored at 1")
    return nu, notes


def _classic_size(params: TestParams, nu: float) -> int:
    """Classic sample size at the planning deviation `nu` (see `_planning_nu`)."""
    root = _quantile_sum(params) * nu / params.delta
    if not math.isfinite(root * root):
        raise ValueError(f"the classic sample size is not finite: delta {params.delta}, nu {nu}")
    return max(1, _ceil_snapped(root * root))


def recorded_size(n_e: int, partition: PartitionParams) -> int:
    """Records to acquire so the quota-reduced count keeps the planned power.

    Enlarges n_e by p_s * (nu_s/nu)^2 * (1/q - 1) + 1, a factor >= 1.
    """
    factor = partition.p_s * partition.nu_s_ratio**2 * (1.0 / partition.q - 1.0) + 1.0
    return _ceil_snapped(n_e * factor)


def _budget_quota(
    n_rec: int, n_e: int, params: TestParams, partition: PartitionParams, nu: float
) -> float:
    """Quota that exhausts a fixed recording budget n_rec.

    `n_e` and `nu` are the classic sample size and the planning deviation
    (see `_planning_nu`). n_rec must be at least n_e, otherwise no quota can
    deliver the planned power. Degenerate partitions (p_s * nu_s^2 == 0)
    put no constraint on the quota; the full count 1.0 is returned then.
    """
    if n_rec < n_e:
        raise ValueError(
            f"recording budget {n_rec} below classic requirement {n_e}: no feasible quota"
        )
    ps_nus2 = partition.p_s * (partition.nu_s_ratio * nu * (partition.nu_s_ratio * nu))
    if ps_nus2 == 0.0:
        return 1.0
    zsum = _quantile_sum(params)
    denom = (n_rec * (params.delta * params.delta) / (zsum * zsum) - nu * nu) / ps_nus2 + 1.0
    q0 = 1.0 / denom
    return min(1.0, max(q0, math.ulp(0.0)))


def optimal_quota(partition: PartitionParams, nu: float, costs: CostParams) -> float:
    """Cost-optimal counted quota of the safe partition.

    Minimizes the total campaign cost over q; the minimizer is
    sqrt(a / b) with a the cost ratio of mandatory to quota-dependent
    spending and b the relative variance surplus outside the safe stratum.
    Capped at 1; when b <= 0 the cost is monotone decreasing in precision
    terms and the full count is optimal. Otherwise a mandatory cost of 0
    leaves no optimum: every smaller quota is cheaper.
    """
    if costs.c_sz <= 0.0:
        raise ValueError("optimal quota undefined: counting a safe record costs 0")
    nu_s2 = partition.nu_s_ratio * nu * (partition.nu_s_ratio * nu)
    if partition.p_s * nu_s2 <= 0.0 or partition.p_s * costs.c_sz <= 0.0:
        raise ValueError("optimal quota requires p_s*nu_s^2 > 0 and p_s*c_sz > 0, got p_s "
                         f"{partition.p_s}, nu_s^2 {nu_s2}, c_sz {costs.c_sz}")
    a = partition.p_u * costs.c_u / (partition.p_s * costs.c_sz) + costs.c_s0 / costs.c_sz
    b = (nu * nu - partition.p_s * nu_s2) / (partition.p_s * nu_s2)
    if not b > 0.0:  # b is inf/inf where nu_s^2 overflows, and tends to -1 there
        return 1.0
    if a == 0.0:
        raise ValueError(
            "optimal quota undefined: the mandatory cost p_u*c_u + p_s*c_s0 is 0, "
            "so every smaller quota is cheaper"
        )
    return min(1.0, math.sqrt(a / b))


def total_cost(
    n_rec: int | float, q: float, partition: PartitionParams, costs: CostParams
) -> float:
    """Total campaign cost at recording volume n_rec and quota q."""
    if n_rec < 0 or q < 0:
        raise ValueError("n_rec and q must be >= 0")
    return n_rec * (
        partition.p_u * costs.c_u + partition.p_s * (costs.c_s0 + q * costs.c_sz)
    )


def apply_buffer(n: int, buffer: float) -> int:
    """Apply the sample-size safety factor, rounding up."""
    if buffer < 1.0:
        raise ValueError(f"buffer must be >= 1, got {buffer}")
    return _ceil_snapped(n * buffer)


def make_plan(
    params: TestParams,
    partition: PartitionParams,
    costs: CostParams | None = None,
    n_rec_budget: int | None = None,
) -> Plan:
    """Resolve a full plan: quota, recorded size and buffered sizes.

    The quota comes from the recording budget when one is given, else from
    the cost optimum when costs are given, else from the partition
    parameters as-is.
    """
    nu, notes = _planning_nu(params)
    n_e = _classic_size(params, nu)

    if n_rec_budget is not None:
        q = _budget_quota(n_rec_budget, n_e, params, partition, nu)
        source = "fixed"
        notes.append(f"quota solved for recording budget {n_rec_budget}")
        if q == 1.0:
            notes.append("quota clamped to full count")
    elif costs is not None:
        q = optimal_quota(partition, nu, costs)
        source = "optimized"
        if q == 1.0:
            notes.append("cost optimum at or beyond full count: quota capped at 1")
    else:
        q = partition.q
        source = "given"

    effective = PartitionParams(p_s=partition.p_s, nu_s_ratio=partition.nu_s_ratio, q=q)
    n_rec = recorded_size(n_e, effective)
    return Plan(
        n_e=n_e,
        n_rec=n_rec,
        q_planned=q,
        q_source=source,
        buffered_n_rec=apply_buffer(n_rec, params.buffer),
        buffered_n_e=apply_buffer(n_e, params.buffer),
        params=params,
        partition=effective,
        costs=costs,
        notes=tuple(notes),
    )
