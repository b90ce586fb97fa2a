"""Time a fresh process's set-up for one workload and print it in seconds.

Set-up is everything before the first level is computed: importing
hillproj and building the workload's potential, majorant and assembled
matrix.  ``hillproj bounds`` assembles no matrix, so its set-up stops at
the majorant.  ``verify`` builds its two gallery potentials, their
majorants and the first matrix of its algebra stage.

    python3 perfbench/setup_probe.py <workload>

The caller sets PYTHONPATH to the checkout's ``src``.
"""

import sys
import time

from workloads import WORKLOADS


def build(workload) -> None:
    from hillproj import operator, potential

    if workload.kind == "verify":
        gallery = [potential.mathieu(1.0), potential.delta_comb(0.5, max_index=4200)]
        for pot in gallery:
            potential.majorant(pot)
        operator.assemble(operator.BoundaryCondition.PER_PLUS, gallery[0], 64)
        return
    p = workload.params
    pot = potential.parse_potential_arg(p["potential"],
                                        default_truncation=workload.truncation())
    bc = operator.BoundaryCondition.parse(p["bc"])
    if bc.is_periodic_family:
        potential.majorant(pot)
    else:
        potential.majorant_dir(potential.per_to_dir(pot, 2 * p["K"]))
    if workload.kind == "decay":
        operator.assemble(bc, pot, p["K"])


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    start = time.perf_counter()
    build(workload)
    print(f"{time.perf_counter() - start!r}")


if __name__ == "__main__":
    main()
