"""Multi-tenant serving and SLO-aware capacity planning.

Two layers on top of the single-model serving simulator
(:mod:`repro.serve`):

* :class:`MultiTenantScheduler` — several compiled models sharing one
  replica fleet, with per-model queues, weighted-fair or
  strict-priority sharing, costed warm swaps of strategy weights, and
  per-model metrics.  It runs the :class:`~repro.serve.FleetScheduler`
  event loop over a tenant set, so a single tenant with default knobs
  is the plain fleet, bit-for-bit.
* :func:`plan_capacity` — search fleet composition (device x replicas x
  batching x weights) for the cheapest configuration meeting every
  model's latency/goodput SLO, priced in normalized board-cost units
  and joules (:mod:`repro.hardware.power`).

Typical use::

    from repro.capacity import TenantDemand, plan_capacity

    plan = plan_capacity(
        [TenantDemand("vision", "vision.prototxt",
                      "diurnal:mean=9000,period=2e6,depth=0.8",
                      slo_latency_s=0.005),
         TenantDemand("search", "search.prototxt",
                      "poisson:mean=4000", slo_latency_s=0.002)],
        devices=("zc706", "zcu102"), max_replicas=4)
    print(plan.summary())
    plan.save("plan.json")         # capacity_plan artifact, repro check'd

See ``docs/capacity.md`` for the traffic grammar, the planner objective
and a worked two-model example.
"""

from repro.errors import CapacityError
from repro.capacity.multitenant import (
    SHARING_KINDS,
    MultiTenantResult,
    MultiTenantScheduler,
    Tenant,
)
from repro.capacity.planner import (
    PLAN_KIND,
    CapacityPlan,
    PerModelBaseline,
    TenantDemand,
    board_cost_units,
    load_capacity_plan,
    plan_capacity,
    plan_per_model_fleets,
)

__all__ = [
    "PLAN_KIND",
    "SHARING_KINDS",
    "CapacityError",
    "CapacityPlan",
    "MultiTenantResult",
    "MultiTenantScheduler",
    "PerModelBaseline",
    "Tenant",
    "TenantDemand",
    "board_cost_units",
    "load_capacity_plan",
    "plan_capacity",
    "plan_per_model_fleets",
]
