"""oklab's benchmark: seeded workloads, oracles and a traced per-layer run.

Run ``python3 perfbench/run.py --workload count --seed 1 --seconds 30
--trace 0`` from the repository root; see ``perfbench/README.md``.
"""
