"""Import footprint: ``import ggmsep`` loads submodules on first use, and a
CLI command loads only the modules it runs. Without a bytecode cache every
loaded module is compiled on each call, so a module that a command does
not need is start-up time it should not pay."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ggmsep
from ggmsep import divergence
from ggmsep.serialization import edge_set_doc, matrix_doc, write_json

ROOT = Path(__file__).resolve().parents[1]


def printed_by(code):
    """The words code prints, run in a fresh interpreter at one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def loaded_after(code):
    """The ggmsep modules loaded by running code in a fresh interpreter."""
    return set(printed_by(code + "\nimport sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'ggmsep'))"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    theta = ggmsep.chain_precision(3)
    chain, empty = ggmsep.edge_set_of(theta), ggmsep.EdgeSet(3)
    return {
        "theta": write_json(folder / "theta.json", matrix_doc(theta)),
        "sigma": write_json(folder / "sigma.json", matrix_doc(ggmsep.invert(theta))),
        "graph": write_json(folder / "graph.json", edge_set_doc(chain)),
        "candidates": write_json(folder / "candidates.json", [edge_set_doc(chain), edge_set_doc(empty)]),
        "out": folder / "out.json",
    }


COMMANDS = {
    "kl": (["kl", "theta", "theta"], {"projection", "selection", "simulation"}),
    "bounds": (["bounds", "theta"], {"projection", "selection", "simulation"}),
    "project": (["project", "theta", "--edge", "0", "1"], {"selection", "simulation"}),
    "fit": (["fit", "sigma", "graph", "--gamma", "10"], {"selection", "simulation"}),
    "select": (["select", "sigma", "candidates", "--gamma", "10"], {"simulation"}),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_command_loads_only_the_modules_it_runs(inputs, command):
    words, unused = COMMANDS[command]
    argv = [str(inputs.get(word, word)) for word in words] + ["--out", str(inputs["out"])]
    loaded = loaded_after(f"from ggmsep.cli import main\nassert main({argv!r}) == 0")
    assert {f"ggmsep.{name}" for name in unused}.isdisjoint(loaded)
    assert "ggmsep.serialization" in loaded


def test_import_ggmsep_loads_no_submodule():
    assert loaded_after("import ggmsep") == {"ggmsep"}


class TestLazyNamespace:
    def test_every_public_name_is_its_defining_modules_current_object(self, monkeypatch):
        for module, names in ggmsep._EXPORTS.items():
            for name in names:
                value = getattr(ggmsep, name)
                assert value.__module__ == f"ggmsep.{module}", name
                assert value is getattr(importlib.import_module(value.__module__), name)
        assert sorted(name for names in ggmsep._EXPORTS.values() for name in names) == ggmsep.__all__
        original = divergence.kl_gaussian
        monkeypatch.setattr(divergence, "kl_gaussian", lambda *args: 0.0)
        assert ggmsep.kl_gaussian is divergence.kl_gaussian
        monkeypatch.undo()
        assert ggmsep.kl_gaussian is original

    def test_every_table_entry_is_its_modules_all(self):
        # each module reads its __all__ from the table; run_experiment and
        # EXPERIMENT_KINDS stay out of the package namespace, because the
        # CLI imports them from ggmsep.simulation
        module_only = {"simulation": {"run_experiment", "EXPERIMENT_KINDS"}}
        for module, names in ggmsep._EXPORTS.items():
            exported = getattr(importlib.import_module(f"ggmsep.{module}"), "__all__", None)
            if exported is not None:
                assert sorted(names) == sorted(set(exported) - module_only.get(module, set())), module

    def test_a_fetched_name_is_not_stored_in_the_package(self):
        ggmsep.kl_gaussian
        assert "kl_gaussian" not in vars(ggmsep)

    def test_dir_covers_all(self):
        assert set(ggmsep.__all__) <= set(dir(ggmsep))
        assert "__version__" in dir(ggmsep)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from ggmsep import *", namespace)
        assert {name: namespace[name] for name in ggmsep.__all__} == {
            name: getattr(ggmsep, name) for name in ggmsep.__all__
        }

    def test_an_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ggmsep.no_such_name


@pytest.mark.parametrize("first, then", [("ggmsep.core", "scipy.linalg"), ("scipy.linalg", "ggmsep.core")])
def test_scipy_linalg_keeps_its_flapack_and_shares_its_routines_in_either_import_order(first, then):
    # ggmsep.core loads scipy's LAPACK extension without scipy.linalg; a
    # later import of scipy.linalg must still bind the package attribute,
    # and both must call the same routine objects
    code = f"""
import {first}, {then}
import scipy.linalg.lapack
from ggmsep import core
print(hasattr(scipy.linalg, "_flapack"), scipy.linalg.lapack._flapack is scipy.linalg._flapack)
print(*(getattr(core.lapack, f) is getattr(scipy.linalg.lapack, f) for f in ("dpotrf", "dpotrs", "dtrtrs", "dtrtri")))
"""
    assert printed_by(code) == ["True"] * 6
