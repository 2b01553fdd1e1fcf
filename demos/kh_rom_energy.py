"""Energy and enstrophy of shear-layer ROMs built from skew-form snapshots.

Drives ``flowrom fom/pod/rom/compare`` on configs/kh_desk.ini with 30-mode
skew, EMAC and convective ROMs.  The consistent (skew) reduced model follows
the full-order energy and enstrophy curves; reduced models that switch the
nonlinearity drift once the shear layer rolls up, with enstrophy running
hot -- the desk-scale rendering of the shear-layer comparison plots.

CLI outputs go to kh_rom_energy_run/; writes kh_energy.csv and, if
matplotlib is importable, kh_energy.png.

Run:  python3 demos/kh_rom_energy.py   (about a minute; the FOM dominates)
"""

import sys
from pathlib import Path

import numpy as np

from flowrom.cli import EXIT_SOLVER, main
from flowrom.io import read_csv

CONFIG = Path(__file__).resolve().parent / "configs" / "kh_desk.ini"
OUT = Path("kh_rom_energy_run")
R = 30
SNAPS, BASIS = str(OUT / "kh_snapshots.bin"), str(OUT / "kh_basis.bin")


def flowrom(*argv, out=OUT):
    """One CLI call; only a ROM may fail, by diverging (exit 3)."""
    code = main([*argv, "--config", str(CONFIG), "--out", str(out)])
    if code and not (argv[0] == "rom" and code == EXIT_SOLVER):
        sys.exit(f"flowrom {argv[0]} failed with exit code {code}")
    return code


print("running the skew-form FOM...")
flowrom("fom")
flowrom("pod", SNAPS)
t, *fom = read_csv(OUT / "kh_scalars.csv")[1][:3]  # t, energy, enstrophy
curves = {"fom": fom}
for form in ("skew", "emac", "convective"):
    if flowrom("rom", BASIS, "--archive", SNAPS, "--form", form, "--r", str(R)):
        print(f"{form}-ROM diverged (expected for inconsistent runs)")
        continue
    e, z = curves[form] = read_csv(OUT / f"kh_rom_{form}_r{R}_scalars.csv")[1][1:3]
    print(f"{form:>11}-ROM final energy {e[-1]:.5f} (FOM {fom[0][-1]:.5f}), "
          f"peak enstrophy {z.max():.3f} (FOM {fom[1].max():.3f})")
trajectories = [str(OUT / f"kh_rom_{form}_r{R}_traj.csv") for form in curves if form != "fom"]
flowrom("compare", *trajectories, "--archive", SNAPS, "--basis", BASIS, out=OUT / "compare.csv")

names = sorted(curves)
np.savetxt("kh_energy.csv", np.column_stack([t] + [c for n in names for c in curves[n]]),
           fmt="%.17g", delimiter=",", comments="",
           header="t," + ",".join(f"energy_{n},enstrophy_{n}" for n in names))
print("wrote kh_energy.csv")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

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
