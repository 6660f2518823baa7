import copy
import json
import urllib.request
import warnings
from dataclasses import dataclass, fields
from importlib import resources

import jsonschema
import numpy as np
import pytest

from raggio_kit.algebra import direct_sum, element, make_commutative, make_full, tensor
from raggio_kit.bell import ChshResult, chsh_optimize, random_observables
from raggio_kit.entanglement import SeparabilityVerdict, classical_decompose, separability_test
from raggio_kit.errors import InvalidArgumentError, InvalidDimensionError, RaggioKitError
from raggio_kit.harness import verify_equivalence
from raggio_kit.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    chsh_result_to_dict,
    decomposition_from_dict,
    decomposition_to_dict,
    element_from_dict,
    element_to_dict,
    load_schema,
    observables_from_dict,
    observables_to_dict,
    pure_vector_from_dict,
    pure_vector_to_dict,
    report_to_dict,
    state_from_dict,
    state_to_dict,
    verdict_to_dict,
)
from raggio_kit.states import random_mixed, random_pure, singlet, trace_distance, werner

M2 = make_full(2)
SCHEMA_DIR = resources.files("raggio_kit") / "schemas"
SCHEMA_NAMES = sorted(p.name.removesuffix(".schema.json") for p in SCHEMA_DIR.iterdir())


@pytest.fixture(autouse=True)
def _offline(monkeypatch):
    """Fail, rather than download, when a validator cannot resolve a $ref from the schema
    that load_schema returns (jsonschema fetches an unknown remote $ref by default)."""

    def refuse(request, *args, **kwargs):
        raise AssertionError(f"a validator tried to download {request.full_url}")

    monkeypatch.setattr(urllib.request, "urlopen", refuse)


def _validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))
    # payloads must also survive an actual JSON round trip
    assert json.loads(json.dumps(payload)) == payload


def test_algebra_roundtrip_plain_and_factored():
    for alg in (
        make_full(3),
        make_commutative(4),
        direct_sum(M2, make_commutative(2)),
        tensor(M2, make_commutative(2)),
        tensor(tensor(M2, M2), make_full(3)),
    ):
        payload = algebra_to_dict(alg)
        _validate(payload, "algebra")
        back = algebra_from_dict(payload)
        assert back == alg
        assert back.factors == alg.factors


def test_algebra_from_dict_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        algebra_from_dict({"block_dims": []})
    with pytest.raises(InvalidArgumentError):
        algebra_from_dict({"block_dims": [0]})
    with pytest.raises(InvalidArgumentError):
        algebra_from_dict({"block_dims": [2.5]})
    with pytest.raises(InvalidArgumentError):  # JSON true used to load as MTrue+M2
        algebra_from_dict(json.loads('{"block_dims": [true, 2]}'))
    with pytest.raises(InvalidArgumentError):
        algebra_from_dict([2, 2])
    with pytest.raises(InvalidArgumentError):
        algebra_from_dict(
            {"block_dims": [5], "factors": [{"block_dims": [2]}, {"block_dims": [2]}]}
        )
    with pytest.raises(InvalidArgumentError, match="pair of algebras"):
        algebra_from_dict({"block_dims": [2], "factors": [{"block_dims": [2]}]})


def test_element_roundtrip():
    rng = np.random.default_rng(0)
    alg = direct_sum(M2, make_commutative(2))
    x = element(
        alg,
        [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in alg.block_dims],
    )
    payload = element_to_dict(x)
    _validate(payload, "element")
    back = element_from_dict(payload)
    assert back.algebra == alg
    for b1, b2 in zip(back.blocks, x.blocks):
        np.testing.assert_allclose(b1, b2, atol=1e-15)


def test_element_from_dict_rejects_bad_blocks():
    payload = element_to_dict(element(M2, [np.eye(2)]))
    payload["blocks"].append(payload["blocks"][0])
    with pytest.raises(InvalidArgumentError, match="expected 1 blocks"):
        element_from_dict(payload)
    payload = element_to_dict(element(M2, [np.eye(2)]))
    payload["blocks"][0]["dim"] = 3
    with pytest.raises(InvalidArgumentError):
        element_from_dict(payload)
    payload = element_to_dict(element(M2, [np.eye(2)]))
    payload["blocks"][0]["entries"] = payload["blocks"][0]["entries"][:-1]
    with pytest.raises(InvalidArgumentError):
        element_from_dict(payload)
    # entries must be JSON numbers: "1" and true used to load through float(),
    # and "x", null and [1] ended in a raw ValueError or TypeError
    for bad in ("1", True, "x", None, [1]):
        payload = element_to_dict(element(M2, [np.eye(2)]))
        payload["blocks"][0]["entries"][1] = [0.0, bad]
        with pytest.raises(InvalidArgumentError, match="pair of numbers"):
            element_from_dict(payload)
    # dim must be an integer: true and 1.0 used to pass as 1, since True == 1.0 == 1
    for bad in (True, 1.0):
        payload = element_to_dict(element(make_commutative(2), [np.eye(1), np.eye(1)]))
        payload["blocks"][0]["dim"] = bad
        with pytest.raises(InvalidArgumentError, match="^block 0 dim must be an integer >= 1"):
            element_from_dict(payload)


def test_state_roundtrip():
    rng = np.random.default_rng(1)
    alg = tensor(M2, make_commutative(2))
    st = random_mixed(alg, rng)
    payload = state_to_dict(st)
    _validate(payload, "state")
    back = state_from_dict(payload)
    assert trace_distance(back, st) < 1e-12
    assert back.algebra.factors == alg.factors


def test_state_from_dict_rejects_off_block_mass():
    alg = make_commutative(2)
    payload = {
        "algebra": algebra_to_dict(alg),
        "entries": [[0.5, 0.0], [0.2, 0.0], [0.2, 0.0], [0.5, 0.0]],
    }
    with pytest.raises(InvalidArgumentError):
        state_from_dict(payload)
    payload["entries"][1] = payload["entries"][2] = [float("nan"), 0.0]
    with pytest.raises(InvalidArgumentError):
        state_from_dict(payload)


def test_pure_vector_roundtrip():
    psi = singlet()
    payload = pure_vector_to_dict(psi)
    _validate(payload, "pure_vector")
    back = pure_vector_from_dict(payload)
    np.testing.assert_allclose(back.vector, psi.vector, atol=1e-15)
    assert back.algebra.factors == psi.algebra.factors


def test_decomposition_roundtrip():
    rng = np.random.default_rng(2)
    prod = tensor(M2, make_commutative(3))
    dec = classical_decompose(random_mixed(prod, rng))
    payload = decomposition_to_dict(dec)
    _validate(payload, "decomposition")
    back = decomposition_from_dict(payload)
    assert back.num_terms == dec.num_terms
    np.testing.assert_allclose(back.weights, dec.weights, atol=1e-15)


def test_decomposition_from_dict_rejects_non_finite_weights():
    dec = classical_decompose(random_mixed(tensor(M2, make_commutative(2)), 4))
    payload = decomposition_to_dict(dec)
    payload["rows"][0]["weights"][0] = float("nan")
    payload = json.loads(json.dumps(payload))  # written as NaN, which json parses back
    with pytest.raises(InvalidArgumentError, match="finite"):
        decomposition_from_dict(payload)
    # weights: [null] and weights: 5 used to end in a raw TypeError
    for key, bad in (("weights", [None]), ("weights", 5), ("weights", ["0.5", "0.5"]),
                     ("weights", [True]), ("a", 5), ("a", [[[1.0]]]), ("a_block", 7),
                     ("b_block", "0"), ("b", [[[1.0, 0.0], [0.0, 0.0]]])):
        garbage = json.loads(json.dumps(decomposition_to_dict(dec)))
        garbage["rows"][0][key] = bad
        with pytest.raises(InvalidArgumentError):
            decomposition_from_dict(garbage)


def test_verdict_payloads_validate(tiles_state):
    for state, seed in ((werner(0.5), 0), (werner(0.2), 1)):
        payload = verdict_to_dict(separability_test(state, seed=seed))
        _validate(payload, "verdict")
    payload = verdict_to_dict(separability_test(singlet(), seed=2))
    _validate(payload, "verdict")
    assert payload["tag"] == "EntangledPure"
    payload = verdict_to_dict(separability_test(tiles_state(), seed=3))
    _validate(payload, "verdict")
    assert payload["tag"] == "EntangledRealignment"
    assert payload["realignment"] == pytest.approx(1.087412, abs=1e-6)


def _raw_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def _refs(node):
    """Every ``$ref`` string in a schema."""
    if isinstance(node, dict):
        own = [node["$ref"]] if isinstance(node.get("$ref"), str) else []
        return own + [ref for value in node.values() for ref in _refs(value)]
    if isinstance(node, list):
        return [ref for value in node for ref in _refs(value)]
    return []


@pytest.mark.parametrize("name", SCHEMA_NAMES)
def test_shipped_schemas_are_valid_under_their_metaschema(name):
    for schema in (_raw_schema(name), load_schema(name)):
        jsonschema.validators.validator_for(schema).check_schema(schema)


def test_each_document_type_is_defined_in_one_file():
    files = {f"{name}.schema.json" for name in SCHEMA_NAMES}
    documents = {frozenset(_raw_schema(name)["properties"]) for name in SCHEMA_NAMES}
    for name in SCHEMA_NAMES:
        raw = _raw_schema(name)
        assert raw["$id"] == f"https://raggio-kit.invalid/schemas/{name}.schema.json"
        for key, definition in raw.get("$defs", {}).items():
            assert key not in SCHEMA_NAMES
            assert frozenset(definition.get("properties", ())) not in documents
        # a $ref is local ("#...") or names a shipped file, so none needs a download
        for ref in _refs(raw):
            assert ref.startswith("#") or ref.partition("#")[0] in files, (name, ref)
        if name != "algebra":
            assert '"block_dims"' not in (SCHEMA_DIR / f"{name}.schema.json").read_text()
    # the [re, im] pair is written out once, in state.schema.json
    pairs = [name for name in SCHEMA_NAMES if "complex" in _raw_schema(name).get("$defs", {})]
    assert pairs == ["state"]


def test_load_schema_embeds_the_files_it_refers_to_unchanged():
    # bench/workloads.py reads the report schema, which refers to no other file
    assert load_schema("report") == _raw_schema("report")
    assert load_schema("algebra") == _raw_schema("algebra")
    compound = load_schema("verdict")
    embedded = set(compound["$defs"])
    assert embedded == {"decomposition.schema.json", "state.schema.json", "algebra.schema.json"}
    for key in embedded:
        assert compound["$defs"][key] == _raw_schema(key.removesuffix(".schema.json"))


def test_load_schema_takes_only_a_bundled_name():
    # each used to end in FileNotFoundError, or to read a file by its relative path
    for bad in ("nope", None, 3, "", "../schemas/report", "report.schema.json", np.array([0, 1])):
        with pytest.raises(InvalidArgumentError, match="choose from algebra, chsh_result, decomp"):
            load_schema(bad)
    assert sorted(SCHEMA_NAMES) == ["algebra", "chsh_result", "decomposition", "element",
                                    "pure_vector", "report", "state", "verdict"]


def _valid_payload(name):
    if name == "state":
        return state_to_dict(random_mixed(tensor(M2, make_commutative(2)), 6))
    if name == "chsh_result":
        return chsh_result_to_dict(chsh_optimize(werner(0.9), restarts=2, seed=3))
    verdict = verdict_to_dict(separability_test(werner(0.2), seed=1))
    return verdict if name == "verdict" else verdict["decomposition"]


@pytest.mark.parametrize(
    "name, path",
    [
        ("state", ("algebra",)),
        ("chsh_result", ("observables", "a1", "blocks", 0)),
        ("verdict", ("decomposition",)),
        ("decomposition", ("algebra",)),
        ("decomposition", ("rows", 0)),
    ],
    ids=["state-algebra", "chsh_result-element_block", "verdict-decomposition",
         "decomposition-algebra", "decomposition-row"],
)
def test_nested_documents_obey_their_own_schema(name, path):
    # the nested copies of algebra, element, state and decomposition used to lack their
    # file's additionalProperties: false, so a nested document with an extra key passed
    payload = _valid_payload(name)
    drifted = json.loads(json.dumps(payload))
    node = drifted
    for step in path:
        node = node[step]
    node["extra"] = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        jsonschema.validate(payload, load_schema(name))
        with pytest.raises(jsonschema.ValidationError, match="'extra' was unexpected"):
            jsonschema.validate(drifted, load_schema(name))


def _loader_cases():
    """(id, loader, schema, payload, path): ``loader`` reads ``payload``, which
    ``schema`` validates, and ``path`` leads to the object that gets a stray key."""
    factored = tensor(M2, make_commutative(2))
    state = state_to_dict(random_mixed(factored, 6))
    dec = decomposition_to_dict(classical_decompose(random_mixed(factored, 4)))
    unit = element_to_dict(element(M2, [np.eye(2)]))
    chsh = chsh_result_to_dict(chsh_optimize(werner(0.9), restarts=2, seed=3))

    def observables(data):
        return observables_from_dict(data["observables"])

    return [
        ("algebra", algebra_from_dict, "algebra", algebra_to_dict(factored), ()),
        ("algebra-factor", algebra_from_dict, "algebra", algebra_to_dict(factored), ("factors", 1)),
        ("element", element_from_dict, "element", unit, ()),
        ("element-block", element_from_dict, "element", unit, ("blocks", 0)),
        ("state", state_from_dict, "state", state, ()),
        ("state-algebra", state_from_dict, "state", state, ("algebra",)),
        ("pure_vector", pure_vector_from_dict, "pure_vector", pure_vector_to_dict(singlet()), ()),
        ("decomposition", decomposition_from_dict, "decomposition", dec, ()),
        ("decomposition-row", decomposition_from_dict, "decomposition", dec, ("rows", 0)),
        ("observables", observables, "chsh_result", chsh, ("observables",)),
        ("observables-element", observables, "chsh_result", chsh, ("observables", "a2")),
    ]


@pytest.mark.parametrize("case", _loader_cases(), ids=lambda case: case[0])
def test_loaders_reject_the_keys_that_their_schemas_reject(case):
    # state_from_dict used to load a document with an extra key that load_schema("state")
    # rejects; every loader now names the stray key, and the first missing one
    _, loader, schema, payload, path = case
    node = drifted = json.loads(json.dumps(payload))
    for step in path:
        node = node[step]
    loader(payload)
    node["stray"] = 1
    with pytest.raises(jsonschema.ValidationError, match="'stray' was unexpected"):
        jsonschema.validate(drifted, load_schema(schema))
    with pytest.raises(InvalidArgumentError, match="unexpected key 'stray'"):
        loader(drifted)
    first = next(iter(node))
    del node[first], node["stray"]
    with pytest.raises(InvalidArgumentError, match=f"misses '{first}'"):
        loader(drifted)


def test_chsh_result_payload_validates():
    res = chsh_optimize(werner(0.9), restarts=4, seed=3)
    payload = chsh_result_to_dict(res)
    _validate(payload, "chsh_result")
    assert set(payload) == {"value", "observables", "restarts", "converged"}
    back = observables_from_dict(payload["observables"])
    assert back.a1.algebra == res.observables.a1.algebra


def test_records_write_their_own_fields():
    # the dataclass is the one list of what a record writes: a field added to it is
    # written, in declaration order, with no edit to the serializer
    @dataclass(frozen=True)
    class Verdict(SeparabilityVerdict):
        rounds: tuple[int, ...] | None = None

    @dataclass(frozen=True)
    class Result(ChshResult):
        winner: int = 0

    verdict = Verdict("Separable", error=0.5, rounds=(3, 4))
    assert verdict_to_dict(verdict) == {"tag": "Separable", "error": 0.5, "rounds": [3, 4]}
    res = chsh_optimize(werner(0.9), restarts=2, seed=3)
    payload = chsh_result_to_dict(Result(*(getattr(res, f.name) for f in fields(res)), winner=1))
    assert list(payload) == ["value", "observables", "restarts", "converged", "winner"]


def test_observables_roundtrip():
    obs = random_observables(M2, make_full(3), np.random.default_rng(4))
    back = observables_from_dict(observables_to_dict(obs))
    np.testing.assert_allclose(back.b1.blocks[0], obs.b1.blocks[0], atol=1e-15)


def test_report_payload_validates():
    for pair in ((M2, make_commutative(2)), (M2, M2)):
        rep = verify_equivalence(pair[0], pair[1], samples=4, seed=5)
        payload = report_to_dict(rep)
        _validate(payload, "report")
        assert payload["schema"] == 1
        assert payload["verdict"] == "ConsistentWithTheorem"
        assert payload["samples"] == 4
        assert payload["seed"] == 5


def test_dimension_errors_are_argument_errors():
    # the loaders let the constructors' dimension errors through as they are
    assert issubclass(InvalidDimensionError, InvalidArgumentError)
    payload = element_to_dict(element(M2, [np.eye(2)]))
    with pytest.raises(InvalidDimensionError, match="expected 1 blocks, got 2"):
        element_from_dict({**payload, "blocks": payload["blocks"] * 2})


# values that a mutated payload may hold in place of a valid one
_JUNK = (None, True, False, 0, -1, 2.5, 2**63, 10**400, "", "x", {}, [], [1], [[0.0, 0.0]] * 40)


def _mutated(payload, rng):
    """A copy of ``payload`` with one node, reached by a random walk down from the
    root, replaced by junk, deleted, or, in a list, duplicated."""
    doc = copy.deepcopy(payload)
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.7):
        keys = list(node) if isinstance(node, dict) else range(len(node))
        key = keys[rng.integers(len(keys))]
        parent, node = node, node[key]
    junk = copy.deepcopy(_JUNK[rng.integers(len(_JUNK))])
    if parent is None:
        return junk
    how = rng.integers(3)
    if how == 0:
        parent[key] = junk
    elif how == 1:
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[key] = [parent[key]] * 2
    return doc


def _fuzz_cases():
    factored = tensor(direct_sum(M2, make_commutative(1)), M2)
    classical = tensor(M2, make_commutative(2))
    obs = random_observables(M2, make_commutative(2), np.random.default_rng(8))
    dec = classical_decompose(random_mixed(classical, 4))
    return [
        ("algebra", algebra_from_dict, algebra_to_dict(factored)),
        ("element", element_from_dict, element_to_dict(obs.a1)),
        ("state", state_from_dict, state_to_dict(random_mixed(factored, 2))),
        ("pure_vector", pure_vector_from_dict, pure_vector_to_dict(random_pure(tensor(M2, M2), 3))),
        ("decomposition", decomposition_from_dict, decomposition_to_dict(dec)),
        ("observables", observables_from_dict, observables_to_dict(obs)),
    ]


@pytest.mark.parametrize("case", _fuzz_cases(), ids=lambda case: case[0])
def test_loaders_end_mutated_payloads_in_a_domain_error(case):
    _, loader, payload = case
    loader(payload)
    rng = np.random.default_rng(23)
    for _ in range(200):
        doc = _mutated(payload, rng)
        try:
            loader(doc)
        except RaggioKitError:
            pass
