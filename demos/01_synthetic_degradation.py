"""Building synthetic low-fidelity data from a high-fidelity snapshot set.

Walks through the degradation toolbox one stage at a time: modal truncation
(precision loss), farthest-point subsampling and KNN averaging (resolution
loss), voxel binning, uniform quantization, and noise/bias injection. Each
stage is shown standalone and then composed into a replayable recipe.
"""

import numpy as np

from mfcp import lofi
from mfcp.data import SnapshotSet, cosine_abscissae
from mfcp.lofi import Bias, DegradationRecipe, Fps, KnnAverage, Noise, PodTruncate, Quantize

rng = np.random.default_rng(0)

# A three-parameter family of pressure-like curves on a chord grid that
# clusters nodes at the leading and trailing edges.
n_nodes, n_snapshots = 200, 150
x = cosine_abscissae(n_nodes)
params = np.column_stack([
    rng.uniform(0.6, 1.4, n_snapshots),
    rng.uniform(-0.5, 0.5, n_snapshots),
    rng.uniform(0.25, 0.75, n_snapshots),
])
fields = np.stack(
    [-1.5 * a * np.sqrt(x + 1e-3) * (1 - x) + b * np.cos(2 * np.pi * x)
     + 1.2 * np.tanh(9 * (x - p)) for a, b, p in params],
    axis=1,
)
hf = SnapshotSet(fields=fields, coords=x[:, None], params=params,
                 param_names=["camber", "ripple", "front"],
                 names=[f"c{i:03d}" for i in range(n_snapshots)])
print(f"HF set: {hf.n_nodes} nodes x {hf.n_snapshots} snapshots")

# --- 1. modal truncation: keep the smallest mode count reaching 90% energy
x_r, r_star, retained = lofi.pod_truncate(hf.fields, energy=0.90)
blur = np.abs(x_r - hf.fields).mean()
print(f"\nmodal filter: kept {r_star} modes ({retained:.1%} of the energy), "
      f"mean |blur| = {blur:.4f}")

# --- 2. farthest-point subsampling: greedy max-min node selection
mask = lofi.fps(hf.coords, m=40, seed=1)
print(f"FPS: 40/{n_nodes} nodes, first five picks {mask[:5]}")

# --- 3. KNN averaging assigns each kept node the mean of its neighborhood
centers = lofi.fps(hf.coords, m=40, seed=1)
averaged = lofi.knn_average(hf.coords, hf.fields, centers, k=5)
print(f"KNN averaging: {averaged.shape[0]} nodes, k=5 local means")

# --- 4. voxel binning on the occupancy lattice
centers3d, means = lofi.voxelize(
    np.column_stack([x, np.sin(2 * np.pi * x), np.zeros(n_nodes)]),
    hf.fields, size=0.15,
)
print(f"voxelization: {centers3d.shape[0]} occupied cells at size 0.15")

# --- 5. uniform quantization: snap to a fixed ladder of levels
q = lofi.quantize(hf.fields, levels=12)
print(f"quantization: {len(np.unique(q))} distinct output values (<= 12)")

# --- 6. noise and bias injection
noisy = lofi.perturb(hf.fields, sigma=0.02, bias=0.1, seed=2)
print(f"perturb: shifted mean by {noisy.mean() - hf.fields.mean():+.4f}")

# --- compose: the canonical precision-then-resolution chain
recipe = DegradationRecipe([
    PodTruncate(energy=0.90),
    Fps(m=40, seed=1),
    Noise(sigma=0.01, seed=3),
])
lf, provenance = lofi.apply_recipe(hf, recipe, master_seed=7)
print(f"\nrecipe -> LF set: {lf.n_nodes} nodes x {lf.n_snapshots} snapshots")
for stage in provenance["stages"]:
    detail = {k: v for k, v in stage.items() if k not in ("kind", "mask")}
    if "mask" in stage:
        detail["mask_size"] = len(stage["mask"])
    print(f"  {stage['kind']}: {detail}")

# the recipe file is all you need to replay the exact same degradation
print("\nrecipe.json:")
print(recipe.to_json())
