"""Import budget and the lazy public API of the package.

`import vcre` loads none of its modules; each public name is imported from
its owning module on first access.  The budget checks run in fresh
interpreters, so modules loaded by other tests cannot hide an import.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcre

SRC = str(Path(vcre.__file__).resolve().parent.parent)
HEAVY_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.linalg", "scipy.optimize",
               "scipy.special")
# What scipy.interpolate would pull in; the spline path needs none of it.
SPLINE_SKIPS = ("scipy.interpolate", "scipy.integrate", "scipy.optimize", "scipy.sparse",
                "scipy.spatial", "scipy.fft")


def loaded_modules(code: str) -> list:
    """Names in sys.modules after running `code` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_import_vcre_loads_no_submodule_and_no_scipy():
    mods = loaded_modules("import vcre")
    assert [m for m in mods if m.startswith("vcre.")] == []
    assert [m for m in mods if m == "scipy" or m.startswith("scipy.")] == []


def test_import_cli_loads_no_scipy():
    mods = loaded_modules("import vcre.cli")
    assert [m for m in mods if m == "scipy" or m.startswith("scipy.")] == []


def test_fit_command_skips_heavy_scipy(tmp_path):
    ds = vcre.generate(vcre.ScenarioConfig(seed=4, m=30), 0)
    data = tmp_path / "demo.csv"
    vcre.write_dataset(ds, str(data))
    out = tmp_path / "out"
    mods = loaded_modules(
        "from vcre.cli import main\n"
        f"assert main(['fit', '--data', {str(data)!r}, '--bandwidth', '0.2', "
        f"'--out-dir', {str(out)!r}]) == 0"
    )
    assert (out / "diagnostics.json").exists()
    assert [m for m in HEAVY_SCIPY if m in mods] == []


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", "imp", "--reps", "2"],
    ["bench-reml", "--reps", "2"],
], ids=["simulate-imp", "bench-reml"])
def test_spline_commands_skip_interpolate_and_its_imports(tmp_path, command):
    argv = command + ["--seed", "1", "--out-dir", str(tmp_path)]
    mods = loaded_modules(f"from vcre.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "run_manifest.json").exists()
    assert [m for m in SPLINE_SKIPS if m in mods] == []


@pytest.mark.parametrize("command", [
    ["simulate", "--scenario", "gaussian", "--reps", "2"],
    ["bench-reml", "--reps", "2"],
], ids=["simulate-gaussian", "bench-reml"])
def test_normal_draws_and_reml_load_no_scipy(tmp_path, command):
    # the inverse normal CDF is a numpy port of scipy's, so these commands need no scipy
    argv = command + ["--seed", "1", "--out-dir", str(tmp_path)]
    mods = loaded_modules(f"from vcre.cli import main\nassert main({argv!r}) == 0")
    assert (tmp_path / "run_manifest.json").exists()
    assert [m for m in mods if m == "scipy" or m.startswith("scipy.")] == []


# Names dropped from the public API, by owning module; tests import them there.
PRIVATE = {
    "asymptotics": ("LeverageConstants",),
    "data": ("ValidationReport",),
    "neldermead": ("SimplexResult", "nelder_mead"),
    "reml": ("RemlFit", "RemlParams", "reml_negloglik"),
    "simulate": ("ImpTable", "MseTable"),
    "smoother": ("local_linear_fit",),
    "symmat": ("nearest_psd", "symmetrize", "vech"),
    "varcomp": ("EffectEstimates", "ProjectionSet"),
}
# Names deleted outright along with their code.
DELETED = {
    "data": ("Observation",),
    "splines": ("bspline_basis",),
    "symmat": ("DuplicationMap", "duplication_matrix", "unvech"),
    "varcomp": ("ClusterProjection",),
}


def test_public_names_resolve_to_their_owning_module():
    assert len(vcre.__all__) == 55
    assert len(set(vcre.__all__)) == 55
    for module, names in vcre._EXPORTS.items():
        owner = importlib.import_module(f"vcre.{module}")
        for name in names:
            assert getattr(vcre, name) is getattr(owner, name), name


def test_dir_covers_public_names():
    assert set(vcre.__all__) <= set(dir(vcre))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from vcre import *", namespace)
    for name in vcre.__all__:
        assert namespace[name] is getattr(vcre, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vcre.no_such_name  # noqa: B018


def test_dropped_names_are_not_public():
    for table in (PRIVATE, DELETED):
        for names in table.values():
            for name in names:
                assert name not in vcre.__all__, name
                with pytest.raises(AttributeError, match=name):
                    getattr(vcre, name)


def test_private_names_import_from_their_owning_module():
    for module, names in PRIVATE.items():
        owner = importlib.import_module(f"vcre.{module}")
        for name in names:
            assert hasattr(owner, name), name
    for module, names in DELETED.items():
        owner = importlib.import_module(f"vcre.{module}")
        for name in names:
            assert not hasattr(owner, name), name
