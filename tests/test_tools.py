import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_cylinder_mesh_tool_reproduces_bundled_files(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "make_cylinder_mesh.py"), str(tmp_path)],
                   check=True, capture_output=True)
    for ext in ("node", "ele", "edge"):
        want = (ROOT / "src" / "flowrom" / "data" / f"cylinder_coarse.{ext}").read_bytes()
        assert (tmp_path / f"cylinder_coarse.{ext}").read_bytes() == want, ext


def run_with_src(*args):
    """Run ``python args`` in a fresh interpreter with ``src`` first on ``PYTHONPATH``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_pod_spectrum_demo_runs():
    # a run, not just an import check: it builds a FomConfig and runs the FOM and POD
    run = run_with_src(str(ROOT / "demos" / "pod_spectrum.py"))
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", sorted(p.stem for p in (ROOT / "src" / "flowrom").glob("[!_]*.py")))
def test_module_imports_alone(module):
    # the package init imports no module, so each module must import what it needs itself
    run = run_with_src("-c", f"import flowrom.{module}")
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("script", sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("tools/*.py"),
                                            *ROOT.glob("perfbench/*.py")]),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_script_imports_resolve(script):
    # the scripts are not run by the suite, so an API they use must not vanish unseen
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flowrom":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{script.name}: {node.module}.{alias.name}"


README = ROOT / "README.md"


def test_readme_lists_every_config_key():
    # the README's key table is the user-facing list of cli.CONFIG_KEYS, one row per key
    import flowrom.cli as cli

    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \|", README.read_text(), re.MULTILINE)
    assert sorted(rows) == sorted((section, key) for section, keys in cli.CONFIG_KEYS.items() for key in keys)


def test_readme_gives_every_exit_code():
    import flowrom.cli as cli

    cited = {name: int(code) for name, code in re.findall(r"`(EXIT_\w+)` = (\d+)", README.read_text())}
    assert cited == {name: getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}


def test_readme_cited_names_resolve():
    # a README note names the code that makes its decision as `module.name`;
    # a rename must not leave it pointing at nothing
    modules = {path.stem for path in (ROOT / "src" / "flowrom").glob("[!_]*.py")}
    cited = [span for span in re.findall(r"`([^`\n]+)`", README.read_text())
             if re.fullmatch(r"\w+(\.\w+)+", span) and span.split(".")[0] in modules]
    assert cited
    for span in cited:
        module, *path = span.split(".")
        obj = importlib.import_module(f"flowrom.{module}")
        for name in path:
            assert hasattr(obj, name), span
            obj = getattr(obj, name)


def test_tracer_targets_resolve():
    # a traced function that is renamed away only drops its per-layer metrics
    # from a benchmark run, or only a detail line if it feeds none, so every
    # target must resolve here, and install as the benchmark installs it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, path, _, _ in tracer.TARGETS:
        assert callable(tracer._resolve(module, path)[2]), f"{module}.{path}"
    with tracer.Tracer() as installed:
        assert installed.missing == []


def _modules_holding(text, owner="io.py"):
    """The modules under src/flowrom and demos/, the package's ``owner`` (if any) aside, that hold ``text``."""
    paths = sorted([*(ROOT / "src" / "flowrom").rglob("*.py"), *(ROOT / "demos").rglob("*.py")])
    return [f"{path.parent.name}/{path.name}" for path in paths
            if (owner is None or path != ROOT / "src" / "flowrom" / owner) and text in path.read_text()]


def test_only_io_formats_numbers():
    # io.write_csv is the only writer of tables, so no other module spells out
    # its 17-digit float format, as %.17g or as an f-string's :.17g
    assert _modules_holding(".17g") == []


def test_only_io_splits_csv_rows():
    # io.read_csv is the only reader of tables; the others look its columns up by name
    assert _modules_holding('split(",")') == []


def test_only_numerics_sets_the_newton_iteration():
    # numerics.NEWTON_TOL and NEWTON_MAX_ITER stop the Newton iteration of
    # both models; no other module keeps a tolerance or a budget of its own
    assert [_modules_holding(text, owner="numerics.py") for text in ("1e-10", "newton_max_iter")] == [[], []]


def test_no_tolerance_is_a_parameter():
    # the Newton tolerance numerics.NEWTON_TOL and the POD rank cutoff
    # pod.RANK_TOL are module constants: no config field, function parameter
    # or demo sets either
    assert [_modules_holding(text, owner=None) for text in ("newton_tol", "rank_tol")] == [[], []]


def _callers(name):
    """``module.function`` (``<module>`` at top level) of every call of ``name`` in src/flowrom and demos/."""
    callers = []
    for path in sorted([*(ROOT / "src" / "flowrom").rglob("*.py"), *(ROOT / "demos").rglob("*.py")]):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                           getattr(node.func, "attr", None))
                   for node in ast.walk(top)):
                callers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return callers


def test_only_pod_projects():
    # the projection that flowrom pod stores is the one source of ROM operators:
    # no other function under src/flowrom and demos/ calls rom.project_fields
    assert _callers("project_fields") == ["cli.cmd_pod"]


def test_only_the_cli_writes_archives():
    # every basis archive holds its coordinates and projection because its one
    # writer, flowrom pod, sets both; every snapshot archive is flowrom fom's
    assert _callers("write_basis") == ["cli.cmd_pod"]
    assert _callers("write_snapshots") == ["cli.cmd_fom"]


def test_only_fom_evaluates_the_drag():
    # a ROM's drag is read off that projection (rom.RomProjection.drag): only
    # the FOM evaluates fom.step_drag, a full-order residual
    assert _callers("step_drag") == ["fom.run_fom"]


def test_only_cached_touches_the_memo():
    # fem.cached is the one memo of what a space derives; besides it, only the
    # space and its node graph name their store, where they create it
    fem = ROOT / "src" / "flowrom" / "fem.py"
    memo = [range(node.lineno, node.end_lineno + 1) for node in ast.parse(fem.read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name == "cached"]
    creations = ("self._cache = {}", "_cache: dict = field(default_factory=dict, repr=False, compare=False)")
    hits = [f"{path.name}:{k}: {line.strip()}" for path in sorted((ROOT / "src" / "flowrom").rglob("*.py"))
            for k, line in enumerate(path.read_text().splitlines(), start=1)
            if "_cache" in line and line.strip() not in creations
            and not (path == fem and any(k in span for span in memo))]
    assert hits == []


def test_benchmark_hooks_are_called(tmp_path, monkeypatch):
    # perfbench/workloads.py rebinds or times these module attributes by name;
    # one renamed away would crash the benchmark or silently drop its ticks
    import flowrom.cli as cli
    import flowrom.fom as fom

    hooks = [(cli, "build_initial_condition"), (cli, "assemble_rom_operators"), (cli, "run_rom"),
             (fom, "advance_step"), (fom, "factorize")]
    calls = {}
    for module, name in hooks:
        def counted(*args, _original=getattr(module, name), _key=f"{module.__name__}.{name}", **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    common = ["--config", str(ROOT / "demos" / "configs" / "kh_micro.ini"), "--out", str(tmp_path)]
    archive = str(tmp_path / "micro_snapshots.bin")
    assert cli.main(["fom", *common]) == 0
    assert cli.main(["pod", archive, *common]) == 0
    assert cli.main(["rom", str(tmp_path / "micro_basis.bin"), "--archive", archive, *common]) == 0
    assert sorted(calls) == sorted(f"{module.__name__}.{name}" for module, name in hooks), calls
