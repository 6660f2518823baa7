"""JSON round-trips for algebras, elements, states, and test results.

Complex numbers are encoded as [re, im] pairs and matrices as row-major
entry lists, so payloads stay valid JSON with no custom parsing on the
other side.  Matching JSON Schemas ship in ``raggio_kit/schemas``.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from importlib import resources

import numpy as np

from .algebra import AlgebraElement, FdAlgebra, _is_count, _is_real, element, split_dense
from .bell import ChshObservables, ChshResult
from .entanglement import Decomposition, SeparabilityVerdict
from .errors import InvalidArgumentError
from .harness import RaggioReport
from .states import _STATES, PureVector, State, _as_state

REPORT_SCHEMA_VERSION = 1
STATE_OFF_BLOCK_TOL = 1e-9  # largest entry state_from_dict lets lie off the blocks
_ROW_KEYS = ("a_block", "b_block", "weights", "a", "b")  # a decomposition row, as (i, j, w, a, b)


def _pairs(values: np.ndarray) -> list[list[float]]:
    flat = np.asarray(values, dtype=complex).reshape(-1)
    return [[float(z.real), float(z.imag)] for z in flat]


def _unpairs(entries, count: int, what: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != count:
        raise InvalidArgumentError(f"{what}: expected {count} [re, im] pairs")
    out = np.empty(count, dtype=complex)
    for k, pair in enumerate(entries):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_real, pair))):
            raise InvalidArgumentError(f"{what}: entry {k} is not a [re, im] pair of numbers")
        out[k] = complex(pair[0], pair[1])
    return out


def _fields(data, what: str, required, optional=()) -> dict:
    """``data`` itself, once it is an object with every key of ``required`` and no
    key outside ``required`` and ``optional``, as its schema demands; otherwise
    InvalidArgumentError names the first missing or unexpected key."""
    if not isinstance(data, dict):
        raise InvalidArgumentError(f"{what} payload must be an object")
    missing = [key for key in required if key not in data]
    extra = [key for key in data if key not in (*required, *optional)]
    if missing or extra:
        how, key = ("misses", missing[0]) if missing else ("has unexpected key", extra[0])
        raise InvalidArgumentError(f"{what} payload {how} {key!r}")
    return data


def algebra_to_dict(alg: FdAlgebra) -> dict:
    alg = _as_state(alg, (FdAlgebra,))
    out: dict = {"block_dims": list(alg.block_dims)}
    if alg.factors is not None:
        out["factors"] = [algebra_to_dict(alg.factors[0]), algebra_to_dict(alg.factors[1])]
    return out


def algebra_from_dict(data) -> FdAlgebra:
    _fields(data, "algebra", ("block_dims",), ("factors",))
    factors = None
    if "factors" in data:
        if not isinstance(data["factors"], list):
            raise InvalidArgumentError("factors must be a pair of algebras")
        factors = tuple(map(algebra_from_dict, data["factors"]))
    return FdAlgebra(data["block_dims"], factors=factors)


def element_to_dict(x: AlgebraElement) -> dict:
    x = _as_state(x, (AlgebraElement,))
    return {
        "algebra": algebra_to_dict(x.algebra),
        "blocks": [
            {"dim": int(d), "entries": _pairs(blk)}
            for d, blk in zip(x.algebra.block_dims, x.blocks)
        ],
    }


def element_from_dict(data) -> AlgebraElement:
    _fields(data, "element", ("algebra", "blocks"))
    alg = algebra_from_dict(data["algebra"])
    if not isinstance(data["blocks"], list):
        raise InvalidArgumentError("element blocks must be a list")
    mats = []
    for k, item in enumerate(data["blocks"]):
        dim = _fields(item, f"block {k}", ("dim", "entries"))["dim"]
        if not _is_count(dim):
            raise InvalidArgumentError(f"block {k} must declare dim as a positive integer")
        mats.append(_unpairs(item["entries"], dim * dim, f"block {k}").reshape(dim, dim))
    return element(alg, mats)


def state_to_dict(state: State) -> dict:
    state = _as_state(state, _STATES)
    return {
        "algebra": algebra_to_dict(state.algebra),
        "entries": _pairs(state.matrix),
    }


def state_from_dict(data) -> State:
    _fields(data, "state", ("algebra", "entries"))
    alg = algebra_from_dict(data["algebra"])
    n = alg.total_dim
    dense = _unpairs(data["entries"], n * n, "state entries").reshape(n, n)
    return State(alg, split_dense(alg, dense, STATE_OFF_BLOCK_TOL))


def pure_vector_to_dict(psi: PureVector) -> dict:
    psi = _as_state(psi, (PureVector,))
    return {
        "algebra": algebra_to_dict(psi.algebra),
        "psi": _pairs(psi.vector),
    }


def pure_vector_from_dict(data) -> PureVector:
    _fields(data, "vector", ("algebra", "psi"))
    alg = algebra_from_dict(data["algebra"])
    vec = _unpairs(data["psi"], alg.total_dim, "psi")
    return PureVector(alg, vec)


def decomposition_to_dict(dec: Decomposition) -> dict:
    rows = [dict(zip(_ROW_KEYS, (i, j, w.tolist(), *([_pairs(v) for v in x] for x in (a, b)))))
            for i, j, w, a, b in _as_state(dec, (Decomposition,)).rows]
    return {"algebra": algebra_to_dict(dec.algebra), "rows": rows}


def decomposition_from_dict(data) -> Decomposition:
    """Each row's vectors are decoded at the dimension of the block that the row names;
    every other check is Decomposition's."""
    alg = algebra_from_dict(_fields(data, "decomposition", ("algebra", "rows"))["algebra"])
    dims = [f.block_dims for f in alg.factors or ()]  # no factors: Decomposition refuses alg
    if not isinstance(data["rows"], list):
        raise InvalidArgumentError("decomposition rows must be a list")
    rows = []
    for r, item in enumerate(data["rows"]):
        row = list(map(_fields(item, f"row {r}", _ROW_KEYS).get, _ROW_KEYS))
        for side, (k, d) in enumerate(zip(row, dims)):  # row[3 + side]: vectors on block k of d
            if not (_is_count(k, 0) and k < len(d) and isinstance(row[3 + side], list)):
                raise InvalidArgumentError(f"row {r}: expected a list of vectors on a block of {d}")
            vectors = [_unpairs(v, d[k], f"row {r}") for v in row[3 + side]]
            row[3 + side] = np.reshape(vectors, (-1, d[k]))
        rows.append(row)
    return Decomposition(alg, rows)


def verdict_to_dict(v: SeparabilityVerdict) -> dict:
    v = _as_state(v, (SeparabilityVerdict,))
    out: dict = {"tag": v.tag}
    if v.decomposition is not None:
        out["decomposition"] = decomposition_to_dict(v.decomposition)
    if v.error is not None:
        out["error"] = float(v.error)
    if v.schmidt_coefficients is not None:
        out["schmidt_coefficients"] = [float(c) for c in v.schmidt_coefficients]
    if v.negative_eigenvalue is not None:
        out["negative_eigenvalue"] = float(v.negative_eigenvalue)
    if v.realignment is not None:
        out["realignment"] = float(v.realignment)
    if v.details:
        out["details"] = v.details
    return out


_OBSERVABLES = ("a1", "a2", "b1", "b2")


def observables_to_dict(obs: ChshObservables) -> dict:
    obs = _as_state(obs, (ChshObservables,))
    return {key: element_to_dict(getattr(obs, key)) for key in _OBSERVABLES}


def observables_from_dict(data) -> ChshObservables:
    _fields(data, "observables", _OBSERVABLES)
    return ChshObservables(*(element_from_dict(data[key]) for key in _OBSERVABLES))


def chsh_result_to_dict(res: ChshResult) -> dict:
    res = _as_state(res, (ChshResult,))
    return {
        "value": float(res.value),
        "observables": observables_to_dict(res.observables),
        "restarts": int(res.restarts),
        "converged": bool(res.converged),
    }


def report_to_dict(rep: RaggioReport) -> dict:
    """The report's fields in declaration order, after the schema version."""
    rep = _as_state(rep, (RaggioReport,))
    return {"schema": REPORT_SCHEMA_VERSION, **asdict(rep), "notes": list(rep.notes)}


def _file_refs(node) -> set[str]:
    """The sibling file names that the ``$ref``s in a schema point at."""
    if isinstance(node, dict):
        file = node.get("$ref", "").partition("#")[0]
        return set().union({file} - {""}, *map(_file_refs, node.values()))
    if isinstance(node, list):
        return set().union(*map(_file_refs, node))
    return set()


def load_schema(name: str) -> dict:
    """One of the bundled JSON Schemas (by bare name, e.g. 'state') as a self-contained
    2020-12 compound document.  Every sibling file that it refers to, directly or through
    another sibling, is embedded unchanged under ``$defs`` by file name, keeping its own
    ``$id``; so a validator resolves each ``$ref`` offline, with no registry.  Any other
    ``name`` (a path included) raises InvalidArgumentError."""
    folder = resources.files("raggio_kit") / "schemas"
    names = sorted(f.name.removesuffix(".schema.json") for f in folder.iterdir())
    if not (isinstance(name, str) and name in names):
        raise InvalidArgumentError(f"no bundled schema {name!r}; choose from {', '.join(names)}")
    own = f"{name}.schema.json"
    found = {own: json.loads((folder / own).read_text())}
    while missing := set().union(*map(_file_refs, found.values())) - set(found):
        found.update((file, json.loads((folder / file).read_text())) for file in missing)
    schema = found.pop(own)
    if found:
        schema["$defs"] = {**schema.get("$defs", {}), **dict(sorted(found.items()))}
    return schema
