"""Acceptance suite: one test per criterion, tolerances pinned in the asserts.

Run with ``python3 -m pytest tests/test_acceptance.py -v -rA`` to get one
pass/fail line per criterion plus the measured numbers.  Criteria 7-9 run the
command-line pipeline (``flowrom.cli.main``: ``fom``, ``pod``, ``rom``,
``compare``) on the configs the two study demos use,
``demos/configs/kh_desk.ini`` and ``demos/configs/cylinder.ini``, and read
its CSV outputs.  Criterion 9 (the cylinder pipeline) is part of the extended
suite: set ``FLOWROM_EXTENDED=1`` to enable it (it runs the full-order
channel solver to the periodic regime, which takes about two and a half
minutes on a 2-vCPU host).
"""

from pathlib import Path

import numpy as np
import pytest

from flowrom.cli import main
from flowrom.fem import (
    NonlinearForm,
    TaylorHoodSpace,
    h1_semi_error,
    nonlinear_jacobian,
    nonlinear_residual,
    trilinear_value,
)
from flowrom.fom import (
    FomConfig,
    build_initial_condition,
    kelvin_helmholtz_boundary,
    kelvin_helmholtz_velocity,
    run_fom,
    taylor_green_gradient,
    taylor_green_velocity,
)
from flowrom.io import read_csv, write_basis, write_snapshots
from flowrom.mesh import identify_periodic, uniform_rect_mesh
from flowrom.pod import build_pod_basis, pod_projection_error, project_field
from flowrom.rom import assemble_rom_operators, reconstruct_field, run_rom
from flowrom.diagnostics import trajectory_error

from conftest import field_norms, rom_quadratic, with_projection
from test_fem import oracle_eval, oracle_integral

ALL_FORMS = list(NonlinearForm)
KH_NU = 1.0 / 2800.0  # Re = 1/(28 nu) = 100
KH50_NEWTON_TOL = 1e-11  # the criterion-4 FOM's Newton tolerance, patched over numerics.NEWTON_TOL
CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
KH_DESK, CYLINDER = CONFIGS / "kh_desk.ini", CONFIGS / "cylinder.ini"


def flowrom(*argv, config, out):
    """One ``flowrom`` CLI call on ``config`` writing to ``out``; it must succeed."""
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 0


# ----------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="session")
def kh50(tmp_path_factory):
    """Criterion-4 pipeline: 16x16 shear layer, backward Euler, skew, 50 steps."""
    mesh = identify_periodic(uniform_rect_mesh(16, 16), "x")
    space = TaylorHoodSpace(mesh)
    u0 = build_initial_condition(kelvin_helmholtz_velocity, space)
    cfg = FomConfig(nu=KH_NU, dt=0.02, t_end=1.0, form="skew", scheme="backward_euler",
                    boundary=kelvin_helmholtz_boundary(), snapshot_window=(0.0, 1.0),
                    project_initial=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("flowrom.fom.NEWTON_TOL", KH50_NEWTON_TOL)
        _, snaps, _ = run_fom(cfg, mesh, space, u0)
    return mesh, space, snaps, cfg, u0


@pytest.fixture(scope="session")
def kh50_basis(kh50):
    _, space, snaps, _, _ = kh50
    return build_pod_basis(snaps, space, centering="none")


@pytest.fixture(scope="session")
def desk_kh_skew(tmp_path_factory):
    """The output directory of ``fom`` and ``pod`` on kh_desk.ini (h=1/32, Re=100, dt=0.02, T=3, BE, skew)."""
    out = tmp_path_factory.mktemp("kh_desk")
    flowrom("fom", config=KH_DESK, out=out)
    flowrom("pod", str(out / "kh_snapshots.bin"), config=KH_DESK, out=out)
    return out


def test_criterion_01_nonlinear_form_identities(square8, homogeneous_field_pairs):
    """Energy identities and inter-form relations of the four trilinear forms."""
    mesh, space = square8
    worst_energy = 0.0
    worst_rel = 0.0
    for u, v in homogeneous_field_pairs:
        hu = field_norms(space, u)
        hv = field_norms(space, v)
        nu_ = np.hypot(hu.l2, hu.h1_semi)
        nv_ = np.hypot(hv.l2, hv.h1_semi)
        assert abs(trilinear_value(space, "skew", u, v, v)) <= 1e-11 * nu_ * nv_ * nv_
        assert abs(trilinear_value(space, "emac", u, u, u)) <= 1e-11 * nu_**3
        assert abs(trilinear_value(space, "rotational", u, v, v)) <= 1e-11 * nu_ * nv_ * nv_
        worst_energy = max(worst_energy,
                           abs(trilinear_value(space, "skew", u, v, v)) / (nu_ * nv_ * nv_))

        bs = trilinear_value(space, "skew", u, u, v)
        bc = trilinear_value(space, "convective", u, u, v)
        be = trilinear_value(space, "emac", u, u, v)

        def skew_density(bary):
            uvals, ugrads = oracle_eval(mesh, space, u, bary)
            vvals, _ = oracle_eval(mesh, space, v, bary)
            udiv = ugrads[..., 0, 0] + ugrads[..., 1, 1]
            return 0.5 * udiv * np.einsum("eqi,eqi->eq", uvals, vvals)

        def emac_density(bary):
            uvals, ugrads = oracle_eval(mesh, space, u, bary)
            vvals, _ = oracle_eval(mesh, space, v, bary)
            udiv = ugrads[..., 0, 0] + ugrads[..., 1, 1]
            return (np.einsum("eqj,eqij,eqi->eq", vvals, ugrads, uvals)
                    + udiv * np.einsum("eqi,eqi->eq", uvals, vvals))

        rhs_s = oracle_integral(mesh, skew_density)
        rhs_e = oracle_integral(mesh, emac_density)
        scale_s = max(abs(bs), abs(bc), abs(rhs_s))
        scale_e = max(abs(be), abs(bc), abs(rhs_e))
        assert abs((bs - bc) - rhs_s) <= 1e-11 * scale_s
        assert abs((be - bc) - rhs_e) <= 1e-11 * scale_e
        worst_rel = max(worst_rel, abs((bs - bc) - rhs_s) / scale_s,
                        abs((be - bc) - rhs_e) / scale_e)
    print(f"ACCEPTANCE 1 PASS: form identities on 20 seeded pairs "
          f"(worst energy identity {worst_energy:.2e}, worst relation defect {worst_rel:.2e})")


def test_criterion_02_jacobian_correctness(square8):
    """Newton Jacobians match central finite differences for all four forms.

    The residual is quadratic in the velocity, so the central-difference
    truncation term (third derivative) vanishes identically: the mismatch
    sits at the roundoff floor, far below the C h^2 envelope, and the
    4-to-1 truncation-ratio reading of the criterion has no signal to show.
    The exact-derivative property is pinned instead by the forward
    difference, whose error is exactly linear in h (ratio 2 on halving).
    """
    _, space = square8
    rng = np.random.default_rng(2024)
    ratios = {}
    for form in ALL_FORMS:
        u = rng.standard_normal(space.n_vel)
        d = rng.standard_normal(space.n_vel)
        jd = nonlinear_jacobian(space, form, u) @ d
        scale = np.linalg.norm(jd)
        central = {}
        for h in (1e-3, 1e-4):
            fd = (nonlinear_residual(space, form, u + h * d)
                  - nonlinear_residual(space, form, u - h * d)) / (2 * h)
            err = np.linalg.norm(jd - fd)
            central[h] = err
            assert err <= 1.0 * h**2 * scale
            assert err <= 1e-9 * scale
        r0 = nonlinear_residual(space, form, u)

        def fwd_err(h):
            return np.linalg.norm((nonlinear_residual(space, form, u + h * d) - r0) / h - jd)

        ratio = fwd_err(1e-2) / fwd_err(5e-3)
        assert ratio == pytest.approx(2.0, rel=2e-2)
        ratios[form.value] = (central[1e-3] / scale, ratio)
    detail = ", ".join(f"{k}: central@1e-3 {v[0]:.1e}, fwd ratio {v[1]:.3f}"
                       for k, v in ratios.items())
    print(f"ACCEPTANCE 2 PASS: Jacobians exact vs finite differences ({detail})")


def test_criterion_03_pod_exactness(kh50, kh50_basis):
    """Orthonormality, projection-error equality, trace identity, divergence."""
    _, space, snaps, _, _ = kh50
    basis = kh50_basis
    mass, stiff = space.mass(), space.stiffness()

    gram = basis.modes.T @ (mass @ basis.modes)
    orth = np.abs(gram - np.eye(basis.rank)).max()
    assert orth <= 1e-10

    div = space.divergence()
    worst_div = max(np.linalg.norm(div @ basis.modes[:, k]) for k in range(basis.rank))
    assert worst_div <= 1e-8

    mean_energy = np.mean(np.einsum("ij,ij->j", snaps.matrix, mass @ snaps.matrix))
    trace_rel = abs(basis.spectrum.sum() - mean_energy) / mean_energy
    assert trace_rel <= 1e-10

    # projection-error equality: the direct residual (lhs) carries the
    # gradient energy of the spectral tail below the 1e-12 rank cutoff at
    # every r; correcting for that single forced term the equality holds to
    # 1e-8 relative at every rank (and uncorrected wherever the tail fits
    # inside the 1e-8 budget)
    lhs_r, rhs_r = pod_projection_error(basis)
    tail, total = lhs_r[basis.rank], rhs_r[0]
    assert tail <= 1e-9 * total
    worst_eq = 0.0
    for r in range(basis.rank + 1):
        lhs, rhs = lhs_r[r], rhs_r[r]
        assert abs(lhs - tail - rhs) <= 1e-8 * rhs + 1e-4 * tail, (r, lhs, rhs)
        if 1e-8 * rhs >= 10.0 * tail:
            assert abs(lhs - rhs) <= 1e-8 * rhs, (r, lhs, rhs)
        if rhs > 0:
            worst_eq = max(worst_eq, abs(lhs - tail - rhs) / rhs)
    print(f"ACCEPTANCE 3 PASS: POD exactness (orthonormality {orth:.2e}, "
          f"divergence {worst_div:.2e}, trace {trace_rel:.2e}, "
          f"equality defect {worst_eq:.2e}, sub-cutoff tail {tail:.2e})")


def test_criterion_04_snapshot_reproduction(kh50, monkeypatch):
    """A consistent full-rank ROM retraces the generating trajectory.

    "Full rank" keeps every mode above the float noise floor of the snapshot
    Gram spectrum (``pod.RANK_TOL`` patched to 1e-14) so the reduced space
    actually spans the snapshots; the package's 1e-12 truncation alone leaves
    a projection floor of about 1e-6 relative, right at this criterion's
    bound.  The ROM's Newton stops at 1e-12 (``rom.NEWTON_TOL`` patched).
    """
    monkeypatch.setattr("flowrom.pod.RANK_TOL", 1e-14)
    monkeypatch.setattr("flowrom.rom.NEWTON_TOL", 1e-12)
    _, space, snaps, cfg, _ = kh50
    mass = space.mass()
    basis = build_pod_basis(snaps, space)
    r = basis.rank
    ops = assemble_rom_operators(with_projection(space, basis, r), r, "skew", nu=cfg.nu)
    a0 = project_field(basis, r, snaps.matrix[:, 0], mass)
    traj = run_rom(ops, a0, cfg.dt, cfg.t_end, scheme="backward_euler")
    err = trajectory_error(space, snaps, traj, basis, cfg.nu)
    umax = max(np.sqrt(snaps.matrix[:, j] @ (mass @ snaps.matrix[:, j]))
               for j in range(snaps.count))
    assert err.linf_l2 <= 1e-6 * umax
    print(f"ACCEPTANCE 4 PASS: full-rank consistent ROM reproduces the FOM "
          f"(rank {r}, max error {err.linf_l2:.3e} vs bound {1e-6 * umax:.3e})")


def test_criterion_05_reduced_operator_oracle(kh50, kh50_basis):
    """Tensor entries and contractions against direct FE trilinear values."""
    _, space, _, cfg, _ = kh50
    r = 8
    assert kh50_basis.rank >= r
    basis = with_projection(space, kh50_basis, r)
    rng = np.random.default_rng(55)
    worst = 0.0
    for form in ALL_FORMS:
        ops = assemble_rom_operators(basis, r, form, nu=cfg.nu)
        scale = np.abs(ops.tensor).max()
        for _ in range(10):
            i, j, k = rng.integers(0, r, size=3)
            direct = trilinear_value(space, form, basis.modes[:, j], basis.modes[:, k],
                                     basis.modes[:, i])
            err = abs(ops.tensor[i, j, k] - direct)
            assert err <= 1e-10 * max(abs(direct), scale * 1e-3)
            worst = max(worst, err / max(abs(direct), scale * 1e-3))
        for _ in range(10):
            a = rng.standard_normal(r)
            w = reconstruct_field(basis, a)
            contraction = rom_quadratic(ops, a)
            i = int(rng.integers(0, r))
            direct = trilinear_value(space, form, w, w, basis.modes[:, i])
            err = abs(contraction[i] - direct)
            norm3 = np.linalg.norm(a) ** 3
            assert err <= 1e-10 * max(abs(direct), scale * norm3 * 1e-3)
            worst = max(worst, err / max(abs(direct), scale * norm3 * 1e-3))
    print(f"ACCEPTANCE 5 PASS: reduced tensor matches direct quadrature "
          f"(worst relative defect {worst:.2e}, all four forms, r={r})")


def test_criterion_06_taylor_green_convergence():
    """BDF2/P2 convergence on the decaying vortex: observed spatial order 2."""
    nu = 0.01
    t_end = 0.25
    errors = {}
    for nx in (16, 32, 64):
        h = 2.0 / nx
        dt = h / 4.0
        mesh = identify_periodic(identify_periodic(uniform_rect_mesh(nx, nx, 2.0, 2.0), "x"), "y")
        space = TaylorHoodSpace(mesh)
        u0 = build_initial_condition(taylor_green_velocity, space)
        cfg = FomConfig(nu=nu, dt=dt, t_end=t_end, form="skew", scheme="bdf2",
                        boundary={}, snapshot_window=(0.0, t_end))
        _, snaps, _ = run_fom(cfg, mesh, space, u0)
        sq = 0.0
        for u, time in zip(snaps.matrix[:, 1:].T, snaps.times[1:]):
            e = h1_semi_error(space, u,
                              lambda x, y, t: taylor_green_gradient(x, y, t, nu), time=time)
            sq += dt * e * e
        errors[h] = np.sqrt(sq)
    hs = sorted(errors, reverse=True)
    logs_h = np.log([h for h in hs])
    logs_e = np.log([errors[h] for h in hs])
    slope = np.polyfit(logs_h, logs_e, 1)[0]
    pair_orders = [np.log2(errors[hs[i]] / errors[hs[i + 1]]) for i in range(2)]
    assert 1.7 <= slope <= 2.3
    print(f"ACCEPTANCE 6 PASS: L2(H1)-in-time errors {[f'{errors[h]:.3e}' for h in hs]} "
          f"-> observed order {slope:.3f} (pairs {pair_orders[0]:.2f}, {pair_orders[1]:.2f})")


def test_criterion_07_energy_stability(desk_kh_skew, tmp_path):
    """Backward Euler with skew and EMAC forms dissipates discrete energy."""
    growth_skew = np.diff(dict(zip(*read_csv(desk_kh_skew / "kh_scalars.csv")))["energy"]).max()
    assert growth_skew <= 1e-12

    text = KH_DESK.read_text()
    assert text.count("form = skew") == 1
    emac = tmp_path / "kh_desk_emac.ini"
    emac.write_text(text.replace("form = skew", "form = emac"))
    flowrom("fom", config=emac, out=tmp_path)
    growth_emac = np.diff(dict(zip(*read_csv(tmp_path / "kh_scalars.csv")))["energy"]).max()
    assert growth_emac <= 1e-12
    print(f"ACCEPTANCE 7 PASS: energy nonincreasing at every step "
          f"(max increment skew {growth_skew:.2e}, emac {growth_emac:.2e})")


def test_criterion_08_consistency_beats_inconsistency(desk_kh_skew):
    """Consistent ROM converges with r; inconsistent ROM locks at the
    divergence-error floor (desk rendering of the shear-layer study)."""
    out = desk_kh_skew
    snaps, basis = str(out / "kh_snapshots.bin"), str(out / "kh_basis.bin")
    r_values = (10, 20, 30, 40)
    runs = [(form, r) for form in ("skew", "emac") for r in r_values]
    for form, r in runs:
        flowrom("rom", basis, "--archive", snaps, "--form", form, "--r", str(r), config=KH_DESK, out=out)
    flowrom("compare", *(str(out / f"kh_rom_{form}_r{r}_traj.csv") for form, r in runs),
            "--archive", snaps, "--basis", basis, config=KH_DESK, out=out / "compare.csv")
    compare = dict(zip(*read_csv(out / "compare.csv")))
    errs = {(form, int(r)): e for form, r, e in zip(compare["form"], compare["r"], compare["linf_l2"])}

    consistent = [errs[("skew", r)] for r in r_values]
    inconsistent = [errs[("emac", r)] for r in r_values]
    # (a) consistent errors are nonincreasing in r and beat the inconsistent
    #     ROM at r = 40 by at least 2x
    assert all(consistent[i + 1] <= consistent[i] for i in range(3))
    assert consistent[-1] <= inconsistent[-1] / 2.0
    # (b) the inconsistent family plateaus while the consistent one decays
    ratio_inc = inconsistent[-1] / inconsistent[-2]
    ratio_con = consistent[-1] / consistent[-2]
    assert ratio_inc >= 0.5
    assert ratio_con < ratio_inc
    print("ACCEPTANCE 8 PASS: consistent linf_l2 "
          + " -> ".join(f"{e:.2e}" for e in consistent)
          + "; inconsistent " + " -> ".join(f"{e:.2e}" for e in inconsistent)
          + f"; factor at r=40 {inconsistent[-1] / consistent[-1]:.0f}, "
          f"plateau ratio {ratio_inc:.2f} vs consistent {ratio_con:.2f}")


@pytest.mark.extended
def test_criterion_09_cylinder_pipeline(tmp_path):
    """Channel-cylinder smoke on cylinder.ini: the consistent ROM tracks the FOM drag best.

    Every drag is ``fom.step_drag`` with the FOM's form: the FOM's at every
    step (``cyl_scalars.csv``), the ROMs' at every FOM step of their
    trajectories, read off the projection of the modes and the drag lifting
    (``rom.RomProjection.drag``, ``cyl_rom_<form>_r13_scalars.csv``).
    """
    snaps, basis = str(tmp_path / "cyl_snapshots.bin"), str(tmp_path / "cyl_basis.bin")
    flowrom("fom", config=CYLINDER, out=tmp_path)
    flowrom("pod", snaps, config=CYLINDER, out=tmp_path)

    # statistically steady regime: the drag oscillation has saturated (the
    # late-window amplitude matches the preceding window) and the signal
    # repeats (autocorrelation peak; the coarse mesh leaves the oscillation
    # multi-harmonic, so the peak is well below 1)
    fom = dict(zip(*read_csv(tmp_path / "cyl_scalars.csv")))
    times_d, drag = fom["t"], fom["drag"]

    def osc_amp(t0, t1):
        m = (times_d >= t0) & (times_d < t1)
        seg = drag[m]
        detr = seg - np.polyval(np.polyfit(times_d[m], seg, 1), times_d[m])
        return detr.std()

    amp_prev, amp_late = osc_amp(5.0, 6.5), osc_amp(6.5, 8.0)
    assert amp_late > 1e-3  # genuinely oscillating, not a fixed point
    assert 0.5 <= amp_late / amp_prev <= 2.0  # saturated, not still growing
    tail = drag[times_d >= 6.5]
    sig = tail - tail.mean()
    ac = np.correlate(sig, sig, mode="full")[sig.size - 1:]
    ac /= ac[0]
    peaks = [k for k in range(8, sig.size - 8) if ac[k] >= ac[k - 1] and ac[k] >= ac[k + 1]]
    assert peaks, "no shedding period found in the drag signal"
    assert max(ac[k] for k in peaks) >= 0.4

    mism = {}
    for form in ("emac", "skew", "convective"):
        flowrom("rom", basis, "--archive", snaps, "--form", form, "--r", "13", config=CYLINDER, out=tmp_path)
        rom = dict(zip(*read_csv(tmp_path / f"cyl_rom_{form}_r13_scalars.csv")))
        t_rom, rom_drag = rom["t"][1:], rom["drag"][1:]  # no step ends at the first row
        mism[form] = np.sqrt(np.mean((rom_drag - np.interp(t_rom, times_d, drag)) ** 2))
    assert mism["emac"] < mism["skew"]
    assert mism["emac"] < mism["convective"]
    print(f"FOM drag over t = 6.5-8.0: mean {tail.mean():.4f}, amplitude {amp_late:.3e}")
    print(f"ACCEPTANCE 9 PASS: drag mismatch (13 modes) emac {mism['emac']:.3e} "
          f"< skew {mism['skew']:.3e}, < convective {mism['convective']:.3e}")


def test_criterion_10_determinism(kh50, kh50_basis, tmp_path, monkeypatch):
    """Repeating the criterion-4 pipeline reproduces archives byte for byte."""
    monkeypatch.setattr("flowrom.fom.NEWTON_TOL", KH50_NEWTON_TOL)
    mesh, space, snaps, cfg, u0 = kh50
    _, snaps2, _ = run_fom(cfg, mesh, space, u0)
    basis2 = build_pod_basis(snaps2, space, centering="none")

    a1, a2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
    write_snapshots(a1, snaps)
    write_snapshots(a2, snaps2)
    assert a1.read_bytes() == a2.read_bytes()

    b1, b2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
    write_basis(b1, kh50_basis)
    write_basis(b2, basis2)
    assert b1.read_bytes() == b2.read_bytes()
    print("ACCEPTANCE 10 PASS: snapshot and basis archives byte-identical across reruns")
