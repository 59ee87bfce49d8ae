"""Walk through the core workflow: plan, verify, inspect witnesses.

The showcase instance has three pure sources (0..2) and three pure
destinations (3..5).  Node 0 carries half of the demand, so gathering
everything there first beats flying each demand directly.
"""

from pigeonpost import (
    lower_bound,
    plan_coordinator,
    plan_cycle,
    plan_singlehop,
    plan_stats,
    verify,
)
from pigeonpost.instances import demo_graph


def show(result, graph):
    flights = ", ".join(f"{f.remote}->{f.home}" for f in result.plan.flights)
    report = verify(result.mode, graph, result.plan)
    print(f"{result.algorithm:>12}: {result.count} pigeons [{flights}]")
    print(f"{'':>12}  valid under {result.mode}: {report.satisfied}")


def main():
    g = demo_graph()
    print("demand graph:", sorted(g.demands))
    print("lower bound:", lower_bound(g).overall, "pigeons")
    print()

    direct = plan_singlehop(g)
    hub = plan_coordinator(g)
    ring = plan_cycle(g)
    for result in (direct, hub, ring):
        show(result, g)
    print()

    # The coordinator plan relays through node 0; look at one witness.
    report = verify("twohop", g, hub.plan)
    witness = report.witnesses[(1, 4)]
    print("demand (1, 4) witness:", witness.to_json_dict())
    print("breeding counts:", dict(plan_stats(hub.plan).breeding_counts))
    print()

    print(
        f"coordinator uses {hub.count} vs lower bound {hub.lower_bound} "
        f"(ratio {hub.to_json_dict()['ratio']})"
    )


if __name__ == "__main__":
    main()
