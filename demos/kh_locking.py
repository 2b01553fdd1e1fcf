"""Shear-layer locking study: consistent vs inconsistent reduced models.

Drives ``flowrom fom/pod/rom/compare`` on configs/kh_desk.ini (skew-form
snapshots, h = 1/32, Re = 100, dt = 0.02, T = 3), with ROMs that reuse the
skew form (consistent) or switch to EMAC (inconsistent) at r = 10..40.  The
consistent family converges to the FOM as r grows; the inconsistent family
stalls at a floor set by the FOM divergence error -- the locking behavior
the error bound predicts, whose inconsistency terms scale with ||div u_h||.

CLI outputs go to kh_locking_run/; writes kh_locking.csv and, if
matplotlib is importable, kh_locking.png.

Run:  python3 demos/kh_locking.py   (about a minute; the FOM dominates)
"""

import sys
from pathlib import Path

import numpy as np

from flowrom.cli import EXIT_SOLVER, main

CONFIG = Path(__file__).resolve().parent / "configs" / "kh_desk.ini"
OUT = Path("kh_locking_run")
R_VALUES = (10, 20, 30, 40)
SNAPS, BASIS = str(OUT / "kh_snapshots.bin"), str(OUT / "kh_basis.bin")


def flowrom(*argv, out=OUT):
    """One CLI call; only a ROM may fail, by diverging (exit 3)."""
    code = main([*argv, "--config", str(CONFIG), "--out", str(out)])
    if code and not (argv[0] == "rom" and code == EXIT_SOLVER):
        sys.exit(f"flowrom {argv[0]} failed with exit code {code}")
    return code


print("running the skew-form FOM (150 implicit steps)...")
flowrom("fom")
flowrom("pod", SNAPS)
trajectories = []
for form in ("skew", "emac"):
    for r in R_VALUES:
        if flowrom("rom", BASIS, "--archive", SNAPS, "--form", form, "--r", str(r)) == 0:
            trajectories.append(str(OUT / f"kh_rom_{form}_r{r}_traj.csv"))
flowrom("compare", *trajectories, "--archive", SNAPS, "--basis", BASIS, out=OUT / "compare.csv")

lines = (OUT / "compare.csv").read_text().splitlines()[1:]  # form, r, linf_l2, l2_h1, ...
table = {(f, int(r)): [float(v) for v in vals] for f, r, *vals in (ln.split(",") for ln in lines)}
div_20 = np.sqrt(next(iter(table.values()))[3])
print(f"FOM divergence error ||div u||_2,0 = {div_20:.4f} "
      "(the fuel of the inconsistency terms)")

rows = [(form, r, *table.get((form, r), (np.inf, np.inf))[:2])
        for form in ("skew", "emac") for r in R_VALUES]
print(f"\n{'form':>6} {'r':>4} {'linf_l2':>12} {'l2_h1':>12}")
for form, r, a, b in rows:
    print(f"{form:>6} {r:4d} " + ("diverged" if np.isinf(a) else f"{a:12.4e} {b:12.4e}"))

plateau = rows[-1][2] / max(div_20**2, 1e-300)
print(f"\ninconsistent floor / ||div u||^2_2,0 = {plateau:.3f} (reported, not asserted)")

with open("kh_locking.csv", "w") as fh:
    fh.write("form,r,linf_l2,l2_h1\n")
    for form, r, a, b in rows:
        fh.write(f"{form},{r},{a:.17g},{b:.17g}\n")
print("wrote kh_locking.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(5, 3.6))
    for form, marker in (("skew", "o"), ("emac", "s")):
        errs = [row[2] for row in rows if row[0] == form]
        label = "consistent (skew/skew)" if form == "skew" else "inconsistent (skew/emac)"
        ax.semilogy(R_VALUES, errs, marker + "-", label=label)
    ax.set_xlabel("modes r")
    ax.set_ylabel(r"$\max_n \|w_r^n - u_h^n\|$")
    ax.legend()
    fig.tight_layout()
    fig.savefig("kh_locking.png", dpi=150)
    print("wrote kh_locking.png")
except ImportError:
    pass
