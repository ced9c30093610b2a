"""Sleep-free wire benchmark of the PPHCR serving path.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
replays one seeded workload through ``Gateway.handle_wire`` and prints its
metrics; see ``perfbench/README.md``.
"""
