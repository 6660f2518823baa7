"""The public boundary: every callable that ``raggio_kit`` exports, and the six JSON
loaders of ``serialize``, called with valid small arguments (M2, D2, two samples,
one restart, a search budget of 5) except for one required argument, which takes a
wrong-typed or extreme value drawn by hypothesis.  Each such call must return or
raise a RaggioKitError, never a raw AttributeError, TypeError or ValueError.  The
five CLI subcommands get the same treatment through ``cli.run``, one option value
swapped for an empty, non-finite, negative, huge or malformed string."""

import contextlib
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import raggio_kit as rk
from conftest import maximally_mixed
from raggio_kit import cli, serialize

M2, D2 = rk.make_full(2), rk.make_commutative(2)
PAIR = rk.tensor(M2, M2)
U2 = rk.unit(M2)
WERNER = rk.werner(0.5)
CLASSICAL = rk.random_mixed(rk.tensor(M2, D2), 0)
VECTOR = rk.PureVector(M2, [1.0, 0.0])
DEC = rk.Decomposition(PAIR, [(0, 0, [1.0], [[1.0, 0.0]], [[0.0, 1.0]])])
OBS = rk.canonical_qubit_observables(M2, M2)
REPORT = rk.verify_equivalence(M2, D2, samples=2, seed=0, restarts=1)

# per callable: the valid values of its required arguments, in order, and the valid
# small settings it is called with
CALLS = {
    "AlgebraElement": ((M2, [np.eye(2)]), {}),
    "BellScan": ((True, 2.0, 2, 2), {}),
    "ChshObservables": ((U2, U2, U2, U2), {}),
    "ChshResult": ((2.0, OBS, 1, 1, True), {}),
    "Decomposition": ((PAIR, DEC.rows), {}),
    "FdAlgebra": (((2, 1),), {}),
    "PureVector": ((M2, [1.0, 0.0]), {}),
    "PureVerdict": ((True, 0.5), {}),
    "RaggioReport": (tuple(vars(REPORT).values())[:13], {}),
    "SeparabilityVerdict": ((rk.SEPARABLE,), {}),
    "State": ((M2, [np.eye(2) / 2]), {}),
    "bell_one_side_classical": ((M2, D2), {"samples": 2, "settings": 2, "seed": 0}),
    "canonical_qubit_observables": ((M2, M2), {}),
    "chsh_optimize": ((WERNER,), {"restarts": 1, "seed": 0}),
    "chsh_value": ((WERNER, OBS), {}),
    "classical_decompose": ((CLASSICAL,), {}),
    "direct_sum": ((M2, D2), {}),
    "element": ((M2, [np.eye(2)]), {}),
    "embedded_singlet": ((M2, M2), {}),
    "embedded_werner": ((0.5, M2, M2), {}),
    "expectation": ((WERNER, rk.unit(PAIR)), {}),
    "horodecki_two_qubit": ((WERNER,), {}),
    "is_entangled_pure": ((rk.singlet(),), {}),
    "make_commutative": ((2,), {}),
    "make_full": ((2,), {}),
    "mixture": (([1.0], [WERNER]), {}),
    "operator_norm": ((U2,), {}),
    "ppt_check": ((WERNER,), {}),
    "product_state": ((maximally_mixed(M2), maximally_mixed(D2)), {}),
    "purity": ((WERNER,), {}),
    "random_dichotomic": ((M2,), {"rng": 0}),
    "random_mixed": ((M2,), {"rng": 0}),
    "random_observables": ((M2, D2), {"rng": 0}),
    "random_pure": ((M2,), {"rng": 0}),
    "random_vector_state": ((M2,), {"rng": 0}),
    "realignment_check": ((WERNER,), {}),
    "reconstruct": ((DEC,), {}),
    "restrict_to_diagonal": ((VECTOR,), {}),
    "restrict_to_factor": ((WERNER, "a"), {}),
    "schmidt": ((rk.singlet(),), {}),
    "seesaw": ((WERNER, U2, U2), {}),
    "separability_test": ((WERNER,), {"budget": 5, "seed": 0}),
    "sign_operator": ((U2,), {}),
    "tensor": ((M2, D2), {}),
    "tensor_element": ((U2, U2), {}),
    "trace_distance": ((WERNER, WERNER), {}),
    "unit": ((M2,), {}),
    "verify_equivalence": ((M2, D2), {"samples": 2, "seed": 0, "restarts": 1}),
    "werner": ((0.5,), {}),
}
LOADS = {
    "algebra_from_dict": serialize.algebra_to_dict(rk.tensor(M2, D2)),
    "element_from_dict": serialize.element_to_dict(U2),
    "state_from_dict": serialize.state_to_dict(WERNER),
    "pure_vector_from_dict": serialize.pure_vector_to_dict(VECTOR),
    "decomposition_from_dict": serialize.decomposition_to_dict(DEC),
    "observables_from_dict": serialize.observables_to_dict(OBS),
}
CALLS.update({name: ((data,), {}) for name, data in LOADS.items()})

BAD_VALUES = (
    None,
    "s",
    np.zeros(3),
    7,
    True,
    float("nan"),
    float("inf"),
    [[1]],
    object(),
    maximally_mixed(M2),
    VECTOR,
    DEC,
    OBS,
)


def _function(name):
    return getattr(serialize, name) if name in LOADS else getattr(rk, name)


def _required(fn) -> list[str]:
    """The parameters of ``fn`` that a call must give."""
    params = inspect.signature(fn).parameters.values()
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in params if p.kind in kinds and p.default is inspect.Parameter.empty]


def test_every_exported_callable_with_a_required_argument_is_probed():
    exported = {
        name
        for name in dir(rk)
        if not name.startswith("_")
        and callable(getattr(rk, name))
        and not (isinstance(getattr(rk, name), type) and issubclass(getattr(rk, name), Exception))
    }
    takes_none = {name for name in exported if not _required(getattr(rk, name))}
    assert takes_none == {"qubit_pair", "singlet"}
    assert set(CALLS) == exported - takes_none | set(LOADS)
    for name, (args, _) in CALLS.items():
        assert len(args) == len(_required(_function(name))), name


@pytest.mark.parametrize("name", sorted(CALLS))
def test_valid_small_calls_return(name):
    args, kwargs = CALLS[name]
    _function(name)(*args, **kwargs)


@pytest.mark.parametrize("name", sorted(CALLS))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_bad_argument_returns_or_raises_a_domain_error(name, data):
    args, kwargs = CALLS[name]
    position = data.draw(st.integers(0, len(args) - 1), label="position")
    bad = data.draw(st.sampled_from(BAD_VALUES), label="value")
    call = list(args)
    call[position] = bad
    try:
        _function(name)(*call, **kwargs)
    except rk.RaggioKitError:
        pass


@pytest.mark.parametrize("name", sorted(name for name, (_, kw) in CALLS.items() if "seed" in kw))
@pytest.mark.parametrize("seed", [10**400, -1, True], ids=["huge", "negative", "bool"])
def test_an_int_seed_follows_the_count_rule(name, seed):
    args, kwargs = CALLS[name]
    with pytest.raises(rk.InvalidArgumentError, match="^seed (has|must be an integer >= 0)"):
        _function(name)(*args, **{**kwargs, "seed": seed})


# per subcommand: a valid small command line, its option values at odd positions
COMMANDS = {
    "born": ["born", "--state", "{vector}", "--format", "json"],
    "schmidt": ["schmidt", "--psi", "[[0,0],[1,0],[-1,0],[0,0]]", "--algebra", "M2 x M2"],
    "separability": ["separability", "--state", "{state}", "--seed", "0", "--budget", "5",
                     "--tol", "1e-6"],
    "chsh": ["chsh", "--werner", "0.9", "--seed", "0", "--restarts", "1"],
    "raggio-check": ["raggio-check", "--a", "M2", "--b", "D2", "--seed", "0", "--samples", "1",
                     "--restarts", "1"],
}
HUGE = "1" * 400  # an integer beyond the float range, which no seed or count may be
BAD_OPTION_VALUES = ("", "nan", "inf", "-1", "0", HUGE, "{", "[]", "M2 x Q3", "D65",
                     "{missing}", "{directory}")
COUNT_OPTIONS = ("--seed", "--budget", "--restarts", "--samples")


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """The paths that the command lines' ``{name}`` placeholders stand for: a vector
    file, a state file, a path with no file and a directory."""
    root = tmp_path_factory.mktemp("cli")
    (root / "vector.json").write_text(json.dumps(serialize.pure_vector_to_dict(VECTOR)))
    (root / "state.json").write_text(json.dumps(serialize.state_to_dict(WERNER)))
    names = {"vector": "vector.json", "state": "state.json", "missing": "missing.json"}
    return {"{directory}": str(root), **{f"{{{k}}}": str(root / v) for k, v in names.items()}}


def _run_cli(argv, files) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.run([files.get(a, a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_valid_small_command_lines_exit_0(command, cli_files):
    assert _run_cli(COMMANDS[command], cli_files) == (0, "")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_bad_option_value_exits_with_one_error_line(command, cli_files, data):
    argv = list(COMMANDS[command])
    position = data.draw(st.sampled_from(range(2, len(argv), 2)), label="position")
    argv[position] = data.draw(st.sampled_from(BAD_OPTION_VALUES), label="value")
    code, err = _run_cli(argv, cli_files)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1
    if argv[position] == HUGE and argv[position - 1] in COUNT_OPTIONS:
        assert code == 1 and err.endswith(" has 1326 bits, beyond the float range\n")


@pytest.mark.parametrize(
    "command, option",
    [(name, opt) for name, argv in sorted(COMMANDS.items()) for opt in argv if opt in COUNT_OPTIONS],
)
def test_over_large_seeds_and_counts_get_one_answer(command, option, cli_files):
    # a seed follows the count rule in every subcommand: an integer beyond the float
    # range exits 1 with one line that gives its size, not its digits
    argv = list(COMMANDS[command])
    argv[argv.index(option) + 1] = HUGE
    code, err = _run_cli(argv, cli_files)
    name = {"--seed": "seed", "--budget": "search budget"}.get(option, option[2:])
    assert (code, err) == (1, f"error: {name} has 1326 bits, beyond the float range\n")
