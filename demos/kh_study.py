"""Shear-layer study: consistent vs inconsistent reduced models.

Drives ``flowrom fom/pod/rom/compare`` on configs/kh_desk.ini (skew-form
snapshots, h = 1/32, Re = 100, dt = 0.02, T = 3): one FOM and one POD basis,
then ROMs that reuse the skew form (consistent) or switch to EMAC
(inconsistent) at r = 10..40, plus a convective ROM at r = 30.

* Locking: the consistent family converges to the FOM as r grows; the
  inconsistent family stalls at a floor set by the FOM divergence error --
  the locking behavior the error bound predicts, whose inconsistency terms
  scale with ||div u_h||.  Writes kh_locking.csv (and kh_locking.png).
  Acceptance criterion 8 (tests/test_acceptance.py) asserts this table on
  the same config and the same ``rom`` and ``compare`` calls.
* Energy: the consistent 30-mode ROM follows the full-order energy and
  enstrophy curves; ROMs that switch the nonlinearity drift from them once
  the shear layer rolls up.  All start from the same projected field, so
  the printout compares final values.  Writes kh_energy.csv (and
  kh_energy.png).

CLI outputs go to kh_study_run/; the plots need matplotlib.

Run:  python3 demos/kh_study.py   (about five seconds on a 2-vCPU host; the FOM dominates)
"""

import sys
from pathlib import Path

import numpy as np

from flowrom.cli import EXIT_SOLVER, main
from flowrom.io import read_csv, write_csv

CONFIG = Path(__file__).resolve().parent / "configs" / "kh_desk.ini"
OUT = Path("kh_study_run")
R_VALUES = (10, 20, 30, 40)
R_ENERGY = 30
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
runs = [(form, r) for form in ("skew", "emac") for r in R_VALUES] + [("convective", R_ENERGY)]
converged = [(form, r) for form, r in runs
             if flowrom("rom", BASIS, "--archive", SNAPS, "--form", form, "--r", str(r)) == 0]
trajectories = [str(OUT / f"kh_rom_{form}_r{r}_traj.csv") for form, r in converged]
flowrom("compare", *trajectories, "--archive", SNAPS, "--basis", BASIS, out=OUT / "compare.csv")

# ---- locking: error against r ----------------------------------------

compare = dict(zip(*read_csv(OUT / "compare.csv")))
table = {(f, int(r)): (a, b)
         for f, r, a, b in zip(compare["form"], compare["r"], compare["linf_l2"], compare["l2_h1"])}
div_20 = np.sqrt(compare["fom_div_l20_sq"][0])
print(f"FOM divergence error ||div u_h||_2,0 = {div_20:.4f} "
      "(the fuel of the inconsistency terms)")

rows = [(form, r, *table.get((form, r), (np.inf, np.inf)))
        for form in ("skew", "emac") for r in R_VALUES]
print(f"\n{'form':>6} {'r':>4} {'linf_l2':>12} {'l2_h1':>12}")
for form, r, a, b in rows:
    print(f"{form:>6} {r:4d} " + ("diverged" if np.isinf(a) else f"{a:12.4e} {b:12.4e}"))

# the floor is linear in the divergence error: a grad-div sweep of it on the
# 16x16 shear layer has a log-log slope of 0.98
plateau = rows[-1][2] / max(div_20, 1e-300)
print(f"\ninconsistent floor / ||div u_h||_2,0 = {plateau:.3f} (reported, not asserted)")

write_csv("kh_locking.csv", ["form", "r", "linf_l2", "l2_h1"], list(zip(*rows)))
print("wrote kh_locking.csv")

# ---- energy and enstrophy at r = R_ENERGY -----------------------------

scalars = dict(zip(*read_csv(OUT / "kh_scalars.csv")))
t, fom = scalars["t"], (scalars["energy"], scalars["enstrophy"])
curves = {"fom": fom}
for form in ("skew", "emac", "convective"):
    if (form, R_ENERGY) not in converged:
        print(f"{form}-ROM diverged (expected for inconsistent runs)")
        continue
    rom = dict(zip(*read_csv(OUT / f"kh_rom_{form}_r{R_ENERGY}_scalars.csv")))
    e, z = curves[form] = rom["energy"], rom["enstrophy"]
    print(f"{form:>11}-ROM final energy {e[-1]:.5f} (FOM {fom[0][-1]:.5f}), "
          f"final enstrophy {z[-1]:.3f} (FOM {fom[1][-1]:.3f})")

names = sorted(curves)
write_csv("kh_energy.csv", ["t", *(f"{q}_{n}" for n in names for q in ("energy", "enstrophy"))],
          [t, *(c for n in names for c in curves[n])])
print("wrote kh_energy.csv")

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

    fig, axes = plt.subplots(1, 2, figsize=(9, 3.4))
    styles = {"fom": "k-", "skew": "C0--", "emac": "C1-.", "convective": "C2:"}
    for name, (e, z) in curves.items():
        axes[0].plot(t, e, styles[name], label=name)
        axes[1].plot(t, z, styles[name], label=name)
    axes[0].set_xlabel("t"), axes[0].set_ylabel("energy")
    axes[1].set_xlabel("t"), axes[1].set_ylabel("enstrophy")
    axes[0].legend(fontsize=8)
    fig.tight_layout()
    fig.savefig("kh_energy.png", dpi=150)
    print("wrote kh_energy.png")
except ImportError:
    pass
