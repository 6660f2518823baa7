import errno
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import raggio_kit
from raggio_kit import cli
from raggio_kit.cli import parse_algebra
from raggio_kit.errors import ResourceLimitError
from raggio_kit.harness import RaggioReport
from raggio_kit.serialize import pure_vector_to_dict, state_to_dict
from raggio_kit.states import singlet, werner


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_algebra_grammar():
    assert parse_algebra("M3").block_dims == (3,)
    assert parse_algebra("D4").block_dims == (1, 1, 1, 1)
    assert parse_algebra("M2+M3").block_dims == (2, 3)
    # tensor binds looser than sum
    alg = parse_algebra("M2+M1 x D2")
    assert alg.block_dims == (2, 2, 1, 1)
    assert alg.factors[0].block_dims == (2, 1)
    assert parse_algebra("M2xM2").block_dims == (4,)
    assert parse_algebra(" M2 x D2 x M2 ").factors is not None


def test_parse_algebra_rejects_garbage():
    for bad in ("Q2", "M", "M0", "M2++M3", "x M2", "M2 +", ""):
        with pytest.raises(cli.UsageError):
            parse_algebra(bad)


def test_parse_algebra_refuses_over_cap_algebras_before_building_them(monkeypatch):
    built = []

    def recorded(build):
        def wrapper(*args):
            built.append(build(*args))
            return built[-1]

        return wrapper

    for name in ("make_commutative", "tensor"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    for text in ("D65", "D4000000", "D9 x D8", "M2 x D40 x D2", "D8 x D8 x D2"):
        with pytest.raises(ResourceLimitError, match=r"blocks, which exceeds the cap 64$"):
            parse_algebra(text)
    assert built and max(alg.num_blocks for alg in built) <= 64
    # at the cap, and M<n> atoms whatever their size, still parse
    assert parse_algebra("D64").num_blocks == 64
    assert parse_algebra("D8 x D8").num_blocks == 64
    assert parse_algebra("M10 x M10").block_dims == (100,)


def test_over_cap_raggio_check_exits_1_at_once(capsys):
    for a, b in (("D4000000", "M2"), ("D5000", "D5000")):
        code, out, err = run(capsys, "raggio-check", "--a", a, "--b", b, "--seed", "0")
        assert (code, out) == (1, "")
        assert err == f"error: algebra '{a}' would have {a[1:]} blocks, which exceeds the cap 64\n"


def test_born_text(capsys):
    code, out, _ = run(capsys, "born", "--psi", "[[0.7071,0],[0.7071,0]]")
    assert code == 0
    assert out.splitlines() == ["p[0] = 0.5", "p[1] = 0.5"]


def test_born_json(capsys):
    code, out, _ = run(capsys, "born", "--psi", "[[1,0],[0,1]]", "--format", "json")
    assert code == 0
    probs = json.loads(out)["probabilities"]
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_born_from_file(capsys, tmp_path):
    psi = singlet()
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(pure_vector_to_dict(psi)))
    code, out, _ = run(capsys, "born", "--state", str(path), "--format", "json")
    assert code == 0
    np.testing.assert_allclose(
        json.loads(out)["probabilities"], [0.0, 0.5, 0.5, 0.0], atol=1e-12
    )


def test_born_bad_psi(capsys, tmp_path):
    code, _, err = run(capsys, "born", "--psi", "[[0.5,0],zebra]")
    assert code == 2
    assert "--psi" in err
    code, _, err = run(capsys, "born", "--psi", "[[1,2,3]]")
    assert code == 2
    assert "pair" in err
    for bad in ('[[true, 0]]', '[["1", 0]]', '[[1, null]]'):
        code, _, err = run(capsys, "born", "--psi", bad)
        assert code == 2
        assert "--psi" in err and "pair" in err
    # amplitudes whose squared norm overflows used to print p[0] = 0 and p[1] = 0, and
    # then to fail with "vector norm overflows"; their norm is finite, so they normalize
    code, out, err = run(capsys, "born", "--psi", "[[1e308,0],[1e308,0]]")
    assert (code, out.splitlines(), err) == (0, ["p[0] = 0.5", "p[1] = 0.5"], "")
    # a vector file with a non-number amplitude used to print a ValueError traceback
    payload = pure_vector_to_dict(singlet())
    path = tmp_path / "psi.json"
    for bad in ("x", None, [1], "1", True):
        payload["psi"][0] = [bad, 0]
        path.write_text(json.dumps(payload))
        for argv in (["born"], ["separability", "--seed", "0"]):
            code, out, err = run(capsys, *argv, "--state", str(path))
            assert code == 1
            assert out == ""
            assert err.startswith("error: psi: entry 0") and err.count("\n") == 1


def test_empty_psi_is_usage_error(capsys):
    code, out, err = run(capsys, "born", "--psi", "[]")
    assert (code, out) == (2, "")
    assert "--psi" in err and "nonempty" in err


def test_integers_beyond_the_float_range_are_refused(capsys, tmp_path):
    # a 400-digit integer used to pass as a number and end in an OverflowError traceback
    huge = "1" + "0" * 400
    code, out, err = run(capsys, "born", "--psi", f"[[{huge},0],[1,0]]")
    assert (code, out) == (2, "")
    assert "--psi" in err and "pair" in err
    payload = state_to_dict(werner(0.2))
    payload["entries"][0] = [int(huge), 0]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "separability", "--state", str(path), "--seed", "0")
    assert (code, out) == (1, "")
    assert err == "error: state entries: entry 0 is not a [re, im] pair of numbers\n"


def test_schmidt_singlet(capsys):
    code, out, _ = run(
        capsys,
        "schmidt",
        "--algebra",
        "M2 x M2",
        "--psi",
        "[[0,0],[0.70710678,0],[-0.70710678,0],[0,0]]",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["entangled"] is True
    assert payload["reduced_purity"] == pytest.approx(0.5, abs=1e-8)
    np.testing.assert_allclose(payload["coefficients"], [2**-0.5, 2**-0.5], atol=1e-8)


def test_schmidt_needs_algebra_with_psi(capsys):
    code, _, err = run(capsys, "schmidt", "--psi", "[[1,0],[0,0],[0,0],[0,0]]")
    assert code == 2
    assert "--algebra" in err


def test_separability_werner_json(capsys):
    code, out, _ = run(
        capsys, "separability", "--werner", "0.5", "--seed", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tag"] == "EntangledPPT"
    assert payload["negative_eigenvalue"] == pytest.approx(-0.125, abs=1e-9)


def test_separability_from_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(werner(0.2))))
    code, out, _ = run(capsys, "separability", "--state", str(path), "--seed", "3")
    assert code == 0
    assert "tag = Separable" in out
    assert "error = " in out


def test_separability_reports_realignment(capsys, tmp_path, horodecki_state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state_to_dict(horodecki_state(0.5))))
    code, out, _ = run(capsys, "separability", "--state", str(path), "--seed", "3")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.splitlines())
    assert lines["tag"] == "EntangledRealignment"
    assert lines["realignment"] == "1.002327"


def test_separability_missing_file(capsys):
    code, _, err = run(capsys, "separability", "--state", "/no/such/file.json", "--seed", "1")
    assert code == 1
    assert "cannot read" in err


@pytest.mark.parametrize(
    "content, says",
    [
        (b"not json", "is not valid JSON: Expecting value"),
        # these two used to end in a UnicodeDecodeError and a RecursionError traceback
        (b'\xff\xfe{"algebra": 1}', "is not valid JSON: 'utf-8' codec can't decode"),
        (b"[" * 100000, "is not valid JSON: maximum recursion depth exceeded"),
    ],
    ids=["not-json", "not-utf8", "nested"],
)
def test_state_file_that_does_not_parse_is_domain_error(capsys, tmp_path, content, says):
    path = tmp_path / "state.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "separability", "--state", str(path), "--seed", "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path} {says}") and err.count("\n") == 1


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_exits_141_without_a_traceback(capsys, monkeypatch):
    # the final print used to raise BrokenPipeError out of run
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.run(["born", "--psi", "[[1,0]]"]) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exit_code_reaches_the_process(unbuffered):
    # the read end is closed before the program writes, so its write fails with
    # EPIPE; with a buffered stdout, the interpreter's own flush at exit used to
    # fail a second time and turn the exit code into 120
    src = str(Path(raggio_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    proc = subprocess.Popen(
        [sys.executable, "-m", "raggio_kit.cli", "born", "--psi", "[[1,0]]"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


def test_separability_zero_budget(capsys):
    code, _, err = run(
        capsys, "separability", "--werner", "0.2", "--seed", "1", "--budget", "0"
    )
    assert code == 1
    assert "budget" in err


def test_separability_non_finite_tol(capsys):
    code, out, err = run(
        capsys, "separability", "--werner", "0.2", "--seed", "1", "--tol", "nan"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_separability_zero_tol(capsys):
    code, out, err = run(
        capsys, "separability", "--werner", "0.2", "--seed", "1", "--tol", "0"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "positive" in err


def test_chsh_singlet_text(capsys):
    code, out, _ = run(capsys, "chsh", "--singlet", "--seed", "4", "--restarts", "8")
    assert code == 0
    lines = dict(line.split(" = ") for line in out.splitlines())
    # text mode reports 7 significant digits
    assert lines["value"] == "2.828427"
    assert lines["converged"] == "true"


def test_chsh_from_state_file(capsys, tmp_path):
    path = tmp_path / "singlet.json"
    path.write_text(json.dumps(state_to_dict(singlet().state())))
    code, out, _ = run(
        capsys, "chsh", "--state", str(path), "--restarts", "16", "--seed", "7",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(2.8284271, abs=1e-6)
    assert set(payload) == {"value", "observables", "restarts", "converged"}


def test_vector_file_that_also_carries_entries_exits_1(capsys, tmp_path):
    # such a file used to load as a PureVector, and its entries were dropped without a word
    payload = {**pure_vector_to_dict(singlet()), "entries": state_to_dict(werner(0.5))["entries"]}
    path = tmp_path / "both.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "chsh", "--state", str(path), "--seed", "7")
    assert (code, out) == (1, "")
    assert err == "error: vector payload has unexpected key 'entries'\n"


def test_chsh_requires_seed(capsys):
    code, _, _ = run(capsys, "chsh", "--singlet")
    assert code == 2


def test_state_source_is_exclusive(capsys):
    code, _, _ = run(capsys, "chsh", "--singlet", "--werner", "0.5", "--seed", "1")
    assert code == 2


def test_raggio_check_json(capsys):
    code, out, _ = run(
        capsys,
        "raggio-check",
        "--a",
        "M2",
        "--b",
        "D2",
        "--seed",
        "9",
        "--samples",
        "4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ConsistentWithTheorem"
    assert payload["schema"] == 1
    assert payload["samples"] == 4
    assert payload["seed"] == 9


def test_raggio_check_inconsistent_exit_code(capsys, monkeypatch):
    # a genuinely inconsistent report would falsify the theorem, so the exit
    # path is exercised with a stubbed verifier
    def fake_verify(*args, **kwargs):
        return RaggioReport(
            algebra_a="M2",
            algebra_b="M2",
            a_commutative=False,
            b_commutative=False,
            samples=1,
            entangled_found=False,
            entangled_witness=None,
            max_chsh=0.0,
            max_chsh_witness="sample 0 (vector)",
            decomposition_success_rate=1.0,
            undetermined_count=0,
            verdict="InconsistentWithTheorem",
            seed=1,
        )

    monkeypatch.setattr(cli, "verify_equivalence", fake_verify)
    code, out, _ = run(capsys, "raggio-check", "--a", "M2", "--b", "M2", "--seed", "1")
    assert code == 3
    assert "InconsistentWithTheorem" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("separability", "--werner", "0.5"),
        ("chsh", "--singlet"),
        ("raggio-check", "--a", "M2", "--b", "D2"),
    ],
)
def test_negative_seed_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "nonnegative" in err
    assert "Traceback" not in err


def test_bad_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "raggio-check", "--a", "Q2", "--b", "D2", "--seed", "1")
    assert code == 2
    assert "Q2" in err


def test_dimension_cap_is_domain_error(capsys):
    code, _, err = run(capsys, "raggio-check", "--a", "M9", "--b", "M8", "--seed", "1")
    assert code == 1
    assert "cap" in err


def test_unknown_command(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_no_command(capsys):
    assert run(capsys)[0] == 2


def test_domain_error_exit_code_reaches_the_process(tmp_path):
    # every other test calls cli.run in-process; this one runs the module as a
    # program, so the code must survive sys.exit and no traceback may escape
    src = str(Path(raggio_kit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # a density whose Hermitian part overflows used to print two RuntimeWarnings first
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"algebra": {"block_dims": [2]},
                                "entries": [[1e308, 0], [0, 0], [0, 0], [1e308, 0]]}))
    for argv in (["separability", "--werner", "2", "--seed", "0"],
                 ["chsh", "--state", str(path), "--seed", "1"]):
        proc = subprocess.run(
            [sys.executable, "-m", "raggio_kit.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr


def test_werner_out_of_range_is_domain_error(capsys):
    code, _, err = run(capsys, "separability", "--werner", "1.5", "--seed", "1")
    assert code == 1
    assert "[0, 1]" in err


def test_schmidt_runs_one_svd(capsys, monkeypatch):
    # the verdict carries the coefficients it was decided from, so the
    # command does not decompose the same coefficient matrix twice
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    code, out, _ = run(
        capsys, "schmidt", "--algebra", "M2 x M2",
        "--psi", "[[0,0],[0.70710678,0],[-0.70710678,0],[0,0]]",
    )
    assert code == 0
    assert out.startswith("s[0] = 0.7071068\n")
    assert len(calls) == 1


def test_parser_defaults_are_the_library_defaults():
    def defaults(func):
        return {k: p.default for k, p in inspect.signature(func).parameters.items()}

    parser = cli.build_parser()
    sep = parser.parse_args(["separability", "--singlet", "--seed", "0"])
    chsh = parser.parse_args(["chsh", "--singlet", "--seed", "0"])
    check = parser.parse_args(["raggio-check", "--a", "M2", "--b", "D2", "--seed", "0"])
    lib = defaults(cli.separability_test)
    assert (sep.budget, sep.tol) == (lib["budget"], lib["tol"])
    assert chsh.restarts == defaults(cli.chsh_optimize)["restarts"]
    lib = defaults(cli.verify_equivalence)
    assert (check.samples, check.restarts) == (lib["samples"], lib["restarts"])


# text output is the JSON payload as ``key = value`` lines; the documented
# exceptions are p[k] / s[k] (one line per entry), ``terms`` for the
# decomposition, chsh's omitted observables and the ``; ``-joined notes
_INDEXED = {"p": "probabilities", "s": "coefficients"}


@pytest.mark.parametrize(
    "argv",
    [
        ("born", "--psi", "[[0.6,0],[0,0.8],[0,0]]"),
        ("schmidt", "--algebra", "M2 x M2", "--psi", "[[0.8,0],[0,0],[0,0],[0.6,0]]"),
        ("separability", "--werner", "0.2", "--seed", "1"),
        ("separability", "--singlet", "--seed", "0"),
        ("chsh", "--singlet", "--seed", "4", "--restarts", "2"),
        ("raggio-check", "--a", "M2", "--b", "M2", "--seed", "1", "--samples", "2"),
    ],
    ids=["born", "schmidt", "separability-mixed", "separability-pure", "chsh", "raggio-check"],
)
def test_text_lines_are_the_json_payload(capsys, argv):
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    shown = set()
    for line in text.splitlines():
        key, value = line.split(" = ", 1)
        indexed = re.fullmatch(r"([ps])\[(\d+)\]", key)
        if indexed:
            key = _INDEXED[indexed.group(1)]
            expected = payload[key][int(indexed.group(2))]
        elif key == "terms":
            key = "decomposition"
            expected = len(payload[key]["weights"])
        elif key == "notes":
            expected = "; ".join(payload[key])
        else:
            expected = payload[key]
        assert value == cli._fmt(expected), key
        shown.add(key)
    for key in set(payload) - shown:
        assert (key == "observables" and argv[0] == "chsh") or (key == "notes" and not payload[key])
