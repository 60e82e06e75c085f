"""What importing the package costs, and what its lazy exports resolve to.

decide and refute are integer work: they must not load NumPy or the
verifier.  Import state is per process, so those checks run in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spintable
from spintable import available_backends

# The package's public names; a typo in the lazy export table shows here.
EXPORTS = {
    "BenchResult", "CapExceeded", "GameSpec", "GeneratorSet", "Group", "ModVector",
    "Permutation", "SolvabilityVerdict", "SolvableSpec", "SpintableError", "Strategy",
    "TraceResult", "UnsolvabilityCertificate", "UnsolvableSpec", "Verdict", "Witness",
    "ZpBasis", "act", "adversary_move", "available_backends", "bench_verify",
    "binomial_basis", "build_certificate", "cauchy_element", "closure", "compose",
    "cyclic_blocks", "decide", "decode_config", "default_backend_name", "element_order",
    "encode_config", "enumeration_strategy", "fixed_chain_basis", "fixed_space",
    "generator_set", "identity", "initial_bad_config", "inverse", "is_semi_homogeneous",
    "lift_strategy", "mod_vector", "normalize_generators", "optimal_length", "perm",
    "project_strategy", "proves_win", "rotation", "rotation_generators", "simulate_trace",
    "solve_in_span", "subsample_strategy", "synth", "synth_mod_p", "verify_dense",
    "verify_strategy",
}


def _python(code: str, **env) -> str:
    """Run code in a fresh interpreter that imports this checkout's package;
    return its last line of standard output."""
    src = str(Path(spintable.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_export_table_matches_the_public_names():
    assert set(spintable.__all__) == EXPORTS
    assert EXPORTS <= set(dir(spintable))
    # Each name resolves to the object its defining module holds.
    for name in EXPORTS:
        value = getattr(spintable, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


@pytest.mark.parametrize(
    "first", ["import spintable.cli", "import spintable.perm", "import spintable", "import spintable.io"]
)
def test_perm_is_the_function_in_every_import_order(first):
    code = (
        f"{first}\n"
        "import json, types\n"
        "from spintable import perm, io\n"
        "print(json.dumps([callable(perm), isinstance(io, types.ModuleType)]))\n"
    )
    assert json.loads(_python(code)) == [True, True]


_GROUP_COMMANDS = [
    ["decide", "-n", "6", "-m", "2", "--rotations"],
    ["decide", "-n", "4", "-m", "2", "--gens", "[[1,0,2,3],[0,1,3,2]]"],
    ["decide", "-n", "1", "-m", "1", "--rotations"],
    ["refute", "-n", "6", "-m", "2", "--rotations", "--rounds", "50", "--seed", "7"],
    ["refute", "-n", "4", "-m", "3", "--gens", "[[1,0,2,3],[0,1,3,2]]", "--rounds", "50"],
]

_PROBE = """
import contextlib, io, json, sys
from spintable import cli

def loaded():
    return ["numpy" in sys.modules, "spintable.verify" in sys.modules]

def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run(argv)

codes = [run(argv) for argv in COMMANDS]
seen = {"group": loaded()}
codes.append(run(["synth", "-n", "4", "-m", "2", "--rotations", "-o", PATH]))
seen["synth"] = loaded()
codes.append(run(["verify", PATH]))
seen["verify"] = loaded()
print(json.dumps({"codes": codes, "seen": seen}))
"""


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_group_commands_load_neither_numpy_nor_the_verifier(backend, tmp_path):
    if backend not in available_backends():
        pytest.skip(f"{backend} backend not built")
    code = f"COMMANDS = {_GROUP_COMMANDS!r}\nPATH = {str(tmp_path / 's.json')!r}\n" + _PROBE
    out = json.loads(_python(code, SPINTABLE_BACKEND=backend))
    assert out["codes"] == [1, 0, 0, 0, 0, 0, 0]
    assert out["seen"]["group"] == [False, False]
    # synth and verify do load them, so the check above is not vacuous.
    assert out["seen"]["synth"][0]
    assert out["seen"]["verify"] == [True, True]

