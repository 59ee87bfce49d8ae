"""Build the 0/1 models, solve them, and export LP text.

Both models bound the schedule length up front (2n - 2 flight slots for
2-hop, 2m walk positions per component for multihop), which is always
enough: pushing everything around an ordered cycle of the component
serves any demand pattern within that budget.
"""

from pigeonpost import (
    DemandGraph,
    build_multihop_model,
    build_twohop_model,
    export_lp,
    extract_plan,
    optimal_multihop,
    solve_binary_model,
    verify_multihop,
    verify_twohop,
)
from pigeonpost.instances import cycle_graph


def main():
    g = DemandGraph.from_pairs(3, [(0, 1), (1, 2)])
    two = build_twohop_model(g)
    print(f"2-hop model for {sorted(g.demands)}: "
          f"{len(two.variables)} vars, {len(two.constraints)} constraints")
    answer = solve_binary_model(two)
    plan = extract_plan("twohop", two, answer)
    print(f"  optimum {answer.objective} -> flights "
          f"{[(f.remote, f.home) for f in plan.flights]}, "
          f"verifies: {verify_twohop(g, plan).satisfied}")
    print()

    ring = cycle_graph(4)
    multi = build_multihop_model(ring)
    answer = solve_binary_model(multi)
    plan = extract_plan("multihop", multi, answer)
    print(f"multihop model for the 4-cycle: objective {answer.objective} "
          f"walk positions = {answer.objective - 1} pigeons")
    print(f"  extracted walk verifies: {verify_multihop(ring, plan).satisfied}")
    print(f"  exact search agrees: {optimal_multihop(ring).count == plan.count}")
    print()

    single = DemandGraph.from_pairs(2, [(0, 1)])
    print("LP export of the smallest multihop model:")
    print(export_lp(build_multihop_model(single)))


if __name__ == "__main__":
    main()
