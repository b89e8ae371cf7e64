"""Splitting a grid into regions that share boundary buses.

Each tie line copies its opposite endpoint into the local region; all
instances of one physical boundary bus form a hyperedge, and the consensus
vector z holds one (angle, magnitude) pair per hyperedge bus.
"""

from pathlib import Path

import numpy as np

from hdpf import consensus_dims, load_manifest, partition

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

manifest, raws = load_manifest(FIXTURES / "fig1.manifest")
prob = partition(manifest, raws)

print("6-bus system split in two regions, one tie line between buses 3 and 4\n")
for reg in prob.regions:
    copies = reg.net.bus_ids[reg.net.is_copy].tolist()
    cores = reg.net.bus_ids[~reg.net.is_copy].tolist()
    print(f"region {reg.index}: core buses {cores}, copy buses {copies}, "
          f"{reg.n_cpl} coupling entries")

print("\nhyperedges (one per shared physical bus):")
for k, edge in enumerate(prob.hypergraph.edges):
    inst = ", ".join(f"(region {r}, position {p})" for r, p in edge.instances)
    print(f"  edge {k} <- merged bus {edge.merged_bus}: {inst}")

n_state, n_cpl, n_z = consensus_dims(prob)
print(f"\nn_state = {n_state}, n_cpl = {n_cpl}, n_z = {n_z}")

# each coupling entry x_l[r] reads z[z_cols[r]]: the incidence E as an index
# array, so counting each column's readers gives its multiplicity, and every
# column read at least once means E has full column rank
mult = np.bincount(np.concatenate([reg.z_cols for reg in prob.regions]), minlength=n_z)
print(f"stacked incidence E: {n_cpl}x{n_z}, rank {np.count_nonzero(mult)} "
      f"({'full column rank' if mult.min() >= 1 else 'RANK DEFICIENT'});")
print("column multiplicities (instances per consensus entry):", mult.tolist())

# a region's selector picks the coupled entries straight out of its free state
reg0 = prob.regions[0]
print(f"\nregion 0 selector A: {reg0.n_cpl} entries of {reg0.net.n_free} free, "
      f"columns {reg0.coupling_free_cols.tolist()}")

print("\nthe same construction scales up; the 53-bus three-region system:")
manifest53, raws53 = load_manifest(FIXTURES / "case53.manifest")
prob53 = partition(manifest53, raws53)
print(f"  dims = {consensus_dims(prob53)}, "
      f"hyperedge cardinalities {prob53.hypergraph.cardinality_histogram()}")
