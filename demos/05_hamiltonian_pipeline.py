"""End to end: synthetic molecule -> forward model -> assembled matrix ->
block-rotation oracle -> generalized eigenproblem -> metrics.

The assembled matrix transforms block-wise under molecular rotations;
``block_rotate`` applies the exact transformation law and serves as the
independent oracle the model's output is checked against.
"""

import numpy as np

from so2frames import (block_rotate, build_graph, default_fit_config,
                       gen_synthetic_target, generalized_eigensolve, init_params,
                       metrics, predict, rotation_from_matrix, sample_molecule)
from so2frames.sampling import random_rotation_matrix, stream

rng = stream(0, "demo-pipeline")

print("== synthetic molecule ==")
graph = sample_molecule(seed=42, n_atoms=4, elements=[1, 8], min_dist=1.6,
                        cutoff=15.0)
print(f"{graph.n_atoms} atoms (Z = {graph.numbers.tolist()}), "
      f"{len(graph.edges)} directed edges")

config = default_fit_config(graph)
params = init_params(config)
H = predict(graph, params, config)
print(f"assembled matrix: dim {H.array.shape[0]}, "
      f"symmetry error {np.max(np.abs(H.array - H.array.T)):.2e}")

print("\n== block equivariance against the rotation oracle ==")
worst = 0.0
for _ in range(5):
    g = rotation_from_matrix(random_rotation_matrix(rng))
    rotated = build_graph(graph.numbers, (g.matrix @ graph.positions.T).T,
                          graph.cutoff)
    H_rot = predict(rotated, params, config)
    worst = max(worst, float(np.max(np.abs(H_rot.array - block_rotate(H, g).array))))
print(f"max |predict(g mol) - block_rotate(predict(mol), g)| over 5 rotations: "
      f"{worst:.2e}")

print("\n== generalized eigenproblem and metrics ==")
H_true, S = gen_synthetic_target(graph, seed=7, config=config, spd_overlap=True)
eigvals, C = generalized_eigensolve(H_true, S)
res = np.max(np.abs(H_true.array @ C - S.array @ C @ np.diag(eigvals)))
orth = np.max(np.abs(C.T @ S.array @ C - np.eye(len(eigvals))))
print(f"residual |HC - SC diag(eps)| = {res:.2e}, |C^T S C - I| = {orth:.2e}")
n_occ = len(eigvals) // 2
report = metrics(H, H_true, S, n_occ)
print("untrained model vs synthetic target "
      f"(n_occ = {n_occ}):")
for key, value in report.items():
    print(f"  {key:12s} {value:.6e}")
fixed = metrics(H_true, H_true, S, n_occ)
print(f"fixed point check: mae_all {fixed['mae_all']}, cosine_psi {fixed['cosine_psi']}")
