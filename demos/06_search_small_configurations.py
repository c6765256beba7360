#!/usr/bin/env python3
# Simulated annealing over integer-coefficient planes, objective = number of
# unsliced edges (exact, recomputed by the verifier on the returned config).

from cubeslicer import RngSpec, config_to_json_dict, local_search_slicing

# One plane in the square can strictly cross at most 2 of the 4 edges.
config, rep = local_search_slicing(2, 1, 5000, RngSpec(0))
print(f"n=2, m=1: objective {rep.unsliced_count} (counting-bound optimum is 2)")
print("  found plane:", config_to_json_dict(config)["planes"][0])

# Three planes suffice in dimension 3; the annealer finds one quickly.
config, rep = local_search_slicing(3, 3, 10000, RngSpec(1))
print(f"\nn=3, m=3: objective {rep.unsliced_count}")
for plane in config_to_json_dict(config)["planes"]:
    print("  ", plane)

# Stretch target: five planes slicing all of Q_6 (a known configuration
# exists).  The annealer gets close but rarely all the way; reported only.
best = None
for seed in range(4):
    config, rep = local_search_slicing(6, 5, 30000, RngSpec(seed, 6), replicas=2)
    if best is None or rep.unsliced_count < best[0]:
        best = (rep.unsliced_count, config)
print(f"\nn=6, m=5 stretch target: best objective {best[0]} of 192 edges")
