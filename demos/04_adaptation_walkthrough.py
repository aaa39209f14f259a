"""End-to-end test-time adaptation on the synthetic benchmark.

Trains a small frozen classifier on clean synthetic images, fits a PCA
basis at an internal layer, inserts the learnable spectral filter, and
compares methods on corrupted test data: plain inference, batch-norm
statistic recomputation, entropy-trained batch-norm modulators, and the
two spectral filters. Only the filter's per-mode gamma (or the BN
scale/shift) is learned at test time; the backbone stays frozen.

Runs in about half a minute.  python3 demos/04_adaptation_walkthrough.py
"""

from spectral_tta import bench

# A reduced config keeps the demo quick; drop the overrides to reproduce
# the full acceptance-scale run.
cfg = bench.load_config(
    {
        "dataset": {"n_train": 600, "n_test": 400},
        "model": {"train_epochs": 10},
        "corruptions": ["gaussian-noise", "blur", "brightness"],
        "severities": [3, 5],
    }
)

print("training the frozen source model ...")
model = bench.train_from_config(cfg)
clean = bench.run_cell(cfg, model, None, "no-adapt")  # corruption=None: the clean set
print(f"clean test accuracy: {1 - clean.mean_error():.3f}")

print("fitting the PCA basis at the insertion layer ...")
basis = bench.fit_basis_from_config(cfg, model)
print(f"basis rank {basis.rank} over p = {basis.p} features "
      f"-> {basis.rank} adaptation parameters")

print("running the benchmark grid ...")
table, _ = bench.run_benchmark(cfg, model, basis)

print("\nmean error by method and severity:")
header = "  ".join(f"sev{s}" for s in table.severities)
print(f"{'method':16s}  {header}")
for method in table.methods:
    cells = "  ".join(
        f"{table.severity_mean(method, s):.3f}" for s in table.severities
    )
    print(f"{method:16s}  {cells}")

base = table.severity_mean("no-adapt", 5)
for method in ("spectral-relu", "spectral-exp"):
    err = table.severity_mean(method, 5)
    print(f"\n{method} at severity 5: {err:.3f} vs no-adapt {base:.3f} "
          f"({(base - err) / base:+.0%} relative)")
