"""Channel-flow-past-a-cylinder ROM comparison (the long demo).

Drives ``flowrom fom/pod/rom/compare`` on configs/cylinder.ini: the EMAC FOM
on the bundled coarse mesh from rest into vortex shedding, a mean-centered
POD basis from a late window of every second step, and 13-mode ROMs with
three nonlinear forms that step the FOM's dt over that window.  The ROM that
reuses the FOM's form tracks the drag series best; the mismatched forms
drift.  Every drag, FOM and ROM, is the force of the discrete momentum
equation (``fom.step_drag``, with the FOM's form), which needs no pressure:
the ROM has one at every step, read off the basis's projection of the modes
and the drag lifting (``rom.RomProjection.drag``) without forming a field.

CLI outputs go to cylinder_run/; writes cylinder_drag.csv (the FOM drag,
interpolated to the ROM's times, which are the FOM's steps in the window,
and each converged ROM's drag there, NaN at the first row, which no ROM step
ends) and cylinder_mismatch.csv.

Run:  python3 demos/cylinder_rom_comparison.py    (about two minutes on a 2-vCPU host at one BLAS thread)
"""

import sys
from pathlib import Path

import numpy as np

from flowrom.cli import EXIT_SOLVER, main
from flowrom.io import read_csv, write_csv

CONFIG = Path(__file__).resolve().parent / "configs" / "cylinder.ini"
OUT = Path("cylinder_run")
R = 13
SNAPS, BASIS = str(OUT / "cyl_snapshots.bin"), str(OUT / "cyl_basis.bin")


def flowrom(*argv, out=OUT):
    """One CLI call; only a ROM may fail, by diverging (exit 3)."""
    code = main([*argv, "--config", str(CONFIG), "--out", str(out)])
    if code and not (argv[0] == "rom" and code == EXIT_SOLVER):
        sys.exit(f"flowrom {argv[0]} failed with exit code {code}")
    return code


print("running the EMAC FOM to t=8 (3200 steps)...")
flowrom("fom")
flowrom("pod", SNAPS)
forms = []
for form in ("emac", "skew", "convective"):
    if flowrom("rom", BASIS, "--archive", SNAPS, "--form", form, "--r", str(R)):
        print(f"{form}-ROM diverged")
    else:
        forms.append(form)
trajectories = [str(OUT / f"cyl_rom_{form}_r{R}_traj.csv") for form in forms]
flowrom("compare", *trajectories, "--archive", SNAPS, "--basis", BASIS, out=OUT / "compare.csv")

fom = dict(zip(*read_csv(OUT / "cyl_scalars.csv")))
t_all, drag_all = fom["t"], fom["drag"]
drag, mismatch = {}, {}
for form in forms:
    rom = dict(zip(*read_csv(OUT / f"cyl_rom_{form}_r{R}_scalars.csv")))
    if not drag:  # the ROM steps the FOM's dt over the snapshot window
        drag = {"t": rom["t"], "drag_fom": np.interp(rom["t"], t_all, drag_all)}
        late = drag_all[t_all >= rom["t"][0]]
        print(f"late drag mean {late.mean():.4f}, oscillation amplitude {late.std():.4f}")
    drag[f"drag_{form}"] = rom["drag"]
    t_d, d = rom["t"][1:], rom["drag"][1:]  # no step ends at the first row
    mismatch[form] = float(np.sqrt(np.mean((d - np.interp(t_d, t_all, drag_all)) ** 2)))
    print(f"{form:>11}-ROM drag mismatch (rms): {mismatch[form]:.4e}")

write_csv("cylinder_mismatch.csv", ["form", "r", "drag_mismatch_rms"],
          [list(mismatch), [R] * len(mismatch), list(mismatch.values())])
write_csv("cylinder_drag.csv", list(drag), list(drag.values()))
print("wrote cylinder_mismatch.csv and cylinder_drag.csv")
