"""Model persistence.

Every fitted model serializes to a single JSON document with a schema
version, the model kind, and reproducibility metadata (the config seed and
a sha256 fingerprint of the input data). Fusion artifacts embed their
component models and the imputation constants so a saved model is
sufficient to score raw CSV exports on its own. A model's body is its
dataclass fields by name (``_encode_value``): an array as a list, with
``null`` for a vector's value that is not finite (a leaf's threshold).
Floats survive the round trip bit for bit: ``json`` emits the shortest
repr that parses back to the identical double.

Artifacts are written at schema version 2: a forest's leaves store only
their ensemble mortality, and the document is one line of compact JSON
with sorted keys (``json.dumps`` without ``indent`` runs CPython's C
encoder), which ``python -m json.tool`` lays out for reading. Version 1
artifacts, whose leaves also hold their ``leaf_times`` and ``leaf_chf``
curves and which were indented, still load and score the same: the
decoder does not read those two keys.

``load_model`` checks everything scoring relies on (every shape, finite
numbers, a tree's preorder node layout), so that a bad artifact is
refused when it is loaded, not part way through scoring.

A body type's model code is imported where that type is first encoded or
decoded (``_model_class`` and the decoders), not with this module: a
network's body imports ``deep_survival`` alone, a forest's ``rsf`` alone,
and a fusion's ``fusion`` and ``cox_linear`` (its head is a Cox model)
with its components' modules. So ``survfuse score`` compiles and loads
only the model code that its artifact holds.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .dataset import BINARY_FIELDS, ImputationStats
from .errors import IoError, SchemaMismatchError, UnknownModelKindError
from .kinds import ARTIFACTS, TAGS

if TYPE_CHECKING:
    from .cox_linear import CoxModel
    from .deep_survival import MlpSurvModel
    from .fusion import FusionModel
    from .rsf import ForestModel, SurvivalTree

SCHEMA_VERSION = 2
# versions load_model reads; v1 differs only in two forest keys it ignores
_READABLE_VERSIONS = (1, 2)

MODEL_KINDS = tuple(ARTIFACTS)


@dataclass(eq=False)
class FusionBundle:
    """A fusion head together with the component models it consumes."""

    fusion: FusionModel
    components: dict[str, object]  # component tag -> the model fitted under it


@dataclass(eq=False)
class ModelArtifact:
    kind: str
    model: object
    imputation: ImputationStats | None
    metadata: dict


def file_fingerprint(*paths) -> str:
    """sha256 over the given files' bytes, in argument order."""
    # imported here: hashlib loads OpenSSL, which ``score`` never uses
    import hashlib

    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise IoError(f"cannot read {p}: {exc}") from exc
    return h.hexdigest()


# --- encoding and decoding --------------------------------------------------


def _encode_value(value):
    """The JSON form of a model value: an array as a list, ``None`` for each
    value of a 1-D float array that is not finite (a leaf's threshold); a
    dataclass as its fields by name; a list or tuple item by item; anything
    else as it is."""
    if isinstance(value, np.ndarray):
        items = value.tolist()
        # the sum is not finite where a value is NaN or infinite, or where
        # finite values overflow it, and then each value is checked
        if value.dtype.kind == "f" and value.ndim == 1 and not math.isfinite(sum(items)):
            return [v if math.isfinite(v) else None for v in items]
        return items
    if dataclasses.is_dataclass(value):
        return {name: _encode_value(v) for name, v in vars(value).items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


def _dec_mlp(doc: dict) -> MlpSurvModel:
    """A network whose ``layer_dims`` are positive, end in 1 and give every
    weight and bias shape, with finite parameters; anything else raises
    ``ValueError``."""
    from .deep_survival import MlpSurvModel

    dims = tuple(int(d) for d in doc["layer_dims"])
    weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
    biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    if len(dims) < 2 or dims[-1] != 1 or min(dims) < 1:
        raise ValueError(f"layer_dims {list(dims)} must be positive and end in 1")
    if ([w.shape for w in weights] != list(zip(dims[:-1], dims[1:]))
            or [b.shape for b in biases] != [(d,) for d in dims[1:]]):
        raise ValueError(
            f"layer_dims {list(dims)} do not match the weight shapes"
            f" {[w.shape for w in weights]} and bias shapes {[b.shape for b in biases]}")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ValueError("the network's weights and biases must be finite")
    return MlpSurvModel(layer_dims=dims, weights=weights, biases=biases,
                        seed=int(doc["seed"]), modality_tag=doc["modality_tag"])


def _check_preorder(tree: SurvivalTree, n_features: int) -> None:
    """Raises ``ValueError`` unless the nodes are in preorder, as
    ``rsf._grow_tree`` lays them out, so that routing a patient from the root
    ends at a leaf: an internal node ``i`` splits a feature below
    ``n_features`` at a finite threshold, its left child is node ``i + 1``
    and its right child starts where its left subtree ends; a leaf has
    ``left == right == -1`` and the next leaf slot; each leaf has one finite
    mortality, and every node belongs to the tree rooted at node 0."""
    feature, left, right, slot = (a.tolist() for a in
                                  (tree.feature, tree.left, tree.right, tree.leaf_slot))
    n = len(feature)
    if n == 0 or not n == len(tree.threshold) == len(left) == len(right) == len(slot):
        raise ValueError("a tree's node arrays must have one length, at least 1")
    threshold_ok = np.isfinite(tree.threshold).tolist()
    waiting = []  # internal nodes whose right child is still to come
    leaves = 0
    for i in range(n):
        if feature[i] >= 0:
            if feature[i] >= n_features or not threshold_ok[i] or not left[i] == i + 1 < n:
                raise ValueError(f"internal node {i} must split one of {n_features} features"
                                 f" at a finite threshold, with node {i + 1} its left child")
            waiting.append(i)
            continue
        if left[i] != -1 or right[i] != -1 or slot[i] != leaves:
            raise ValueError(f"leaf {i} must have left = right = -1 and leaf_slot {leaves}")
        leaves += 1
        if not waiting:
            if i + 1 < n:
                raise ValueError(f"node {i + 1} is not in the tree rooted at node 0")
        elif right[waiting[-1]] == i + 1 < n:
            waiting.pop()
        else:
            raise ValueError(f"the right child of node {waiting[-1]} must be node {i + 1},"
                             " where its left subtree ends")
    mortality = tree.leaf_mortality
    if mortality.shape != (leaves,) or not np.isfinite(mortality).all():
        raise ValueError(f"a tree of {leaves} leaves must have {leaves} finite leaf mortalities")


def _dec_tree(doc: dict, n_features: int) -> SurvivalTree:
    from .rsf import SurvivalTree

    tree = SurvivalTree(
        feature=np.asarray(doc["feature"], dtype=np.int64),
        threshold=np.asarray([math.nan if v is None else v for v in doc["threshold"]], dtype=float),
        left=np.asarray(doc["left"], dtype=np.int64),
        right=np.asarray(doc["right"], dtype=np.int64),
        leaf_slot=np.asarray(doc["leaf_slot"], dtype=np.int64),
        leaf_mortality=np.asarray(doc["leaf_mortality"], dtype=float),
    )
    _check_preorder(tree, n_features)
    return tree


def _dec_forest(doc: dict) -> ForestModel:
    from .rsf import ForestModel, RsfOptions

    opts = doc["options"]
    n_features = int(doc["n_features"])
    if not doc["trees"]:
        raise ValueError("a forest must have at least one tree")
    return ForestModel(
        trees=[_dec_tree(t, n_features) for t in doc["trees"]],
        event_time_grid=np.asarray(doc["event_time_grid"], dtype=float),
        n_features=n_features,
        options=RsfOptions(
            n_trees=int(opts["n_trees"]),
            mtry=None if opts["mtry"] is None else int(opts["mtry"]),
            min_leaf_size=int(opts["min_leaf_size"]),
            seed=int(opts["seed"]),
        ),
    )


def _dec_cox(doc: dict) -> CoxModel:
    from .cox_linear import CoxModel

    return CoxModel(
        beta=np.asarray(doc["beta"], dtype=float),
        covariate_names=tuple(doc["covariate_names"]),
        baseline_times=np.asarray(doc["baseline_times"], dtype=float),
        baseline_cumhaz=np.asarray(doc["baseline_cumhaz"], dtype=float),
        log_likelihood=float(doc["log_likelihood"]),
        converged=bool(doc["converged"]),
        n_iterations=int(doc["n_iterations"]),
        tie_method=doc["tie_method"],
    )


def _check_components(sources, tags) -> None:
    """A fusion's components are exactly its sources' networks and forests."""
    fitted = sorted(tag for tag in sources if TAGS[tag][0])
    if sorted(tags) != fitted:
        raise SchemaMismatchError(
            f"components {sorted(tags)} are not the fusion's fitted sources {fitted}")


def _body_type(held: str) -> str:
    """A component tag's model type, or "fusion" for a fused model kind."""
    return TAGS[held][0] if held in TAGS else "fusion"


def _check_tag(held: str, model):
    """``model``, if it is not a network or stores the tag it is held under."""
    if _body_type(held) == "mlp" and model.modality_tag != held:
        raise SchemaMismatchError(
            f"the network held under {held!r} has modality_tag {model.modality_tag!r}")
    return model


def _model_class(body_type: str) -> type:
    """The class of a body type's model, its module imported here."""
    if body_type == "mlp":
        from .deep_survival import MlpSurvModel
        return MlpSurvModel
    if body_type == "forest":
        from .rsf import ForestModel
        return ForestModel
    return FusionBundle


def _encode(held: str, model, what: str):
    body_type = _body_type(held)
    model_class = _model_class(body_type)
    if not isinstance(model, model_class):
        raise SchemaMismatchError(
            f"{what} must be a {model_class.__name__}, got {type(model).__name__}")
    model = _check_tag(held, model)
    if body_type == "mlp" and not all(np.isfinite(a).all() for a in model.weights + model.biases):
        raise SchemaMismatchError(f"{what}: the network's weights and biases must be finite")
    return _enc_fusion(model) if body_type == "fusion" else _encode_value(model)


def _decode(held: str, doc):
    return _check_tag(held, _DECODERS[_body_type(held)](doc))


def _enc_fusion(b: FusionBundle) -> dict:
    _check_components(b.fusion.sources, b.components)
    return {**_encode_value(b.fusion),
            "components": {tag: {"type": TAGS[tag][0],
                                 "model": _encode(tag, model, f"component {tag!r}")}
                           for tag, model in b.components.items()}}


def _dec_fusion(doc: dict) -> FusionBundle:
    from .fusion import FusionModel

    entries = doc["components"]
    _check_components(doc["sources"], entries)
    components = {}
    for tag, entry in entries.items():
        if entry["type"] != TAGS[tag][0]:
            raise SchemaMismatchError(
                f"component {tag!r} has type {entry['type']!r}, not {TAGS[tag][0]!r}")
        components[tag] = _decode(tag, entry["model"])
    fusion = FusionModel(
        cox=_dec_cox(doc["cox"]),
        sources=tuple(doc["sources"]),
        means=np.asarray(doc["means"], dtype=float),
        stds=np.asarray(doc["stds"], dtype=float),
    )
    # one coefficient, mean and std per source, as ``fit_fusion`` writes them
    k = len(fusion.sources)
    head = (fusion.cox.beta, fusion.means, fusion.stds)
    if any(a.shape != (k,) or not np.isfinite(a).all() for a in head) or (fusion.stds <= 0).any():
        raise ValueError(f"a fusion of {k} sources must have {k} finite coefficients, means and"
                         " positive stds")
    return FusionBundle(fusion=fusion, components=components)


def _dec_imputation(doc: dict) -> ImputationStats:
    """The constants as ``compute_imputation_stats`` writes them: a true or
    false median for each of ``BINARY_FIELDS`` and no other key, finite age
    constants, and a positive ``age_std`` and ``age_median`` (ingest
    rejects ages that are not positive); anything else raises
    ``ValueError``."""
    medians = doc["binary_medians"]
    if not isinstance(medians, dict) or sorted(medians) != sorted(BINARY_FIELDS):
        raise ValueError(f"binary_medians must have the keys {', '.join(BINARY_FIELDS)}")
    if not all(isinstance(v, bool) for v in medians.values()):
        raise ValueError("binary_medians must be true or false")
    stats = ImputationStats(
        binary_medians=dict(medians),
        age_median=float(doc["age_median"]),
        age_mean=float(doc["age_mean"]),
        age_std=float(doc["age_std"]),
    )
    for name in ("age_median", "age_mean", "age_std"):
        if not math.isfinite(getattr(stats, name)):
            raise ValueError(f"{name} must be finite, got {getattr(stats, name)}")
    for name in ("age_median", "age_std"):
        if not getattr(stats, name) > 0:
            raise ValueError(f"{name} must be positive, got {getattr(stats, name)}")
    return stats


# the decoder of each body type: a component's tag's, or "fusion"
_DECODERS = {"mlp": _dec_mlp, "forest": _dec_forest, "fusion": _dec_fusion}


# --- public API -------------------------------------------------------------


def save_model(path, kind: str, model, *, imputation: ImputationStats | None = None,
               seed: int | None = None, data_fingerprint: str | None = None) -> None:
    """Write one fitted model (with metadata) as a JSON artifact; a model
    that ``load_model`` would refuse as ``kind``'s body raises
    ``SchemaMismatchError``."""
    if kind not in MODEL_KINDS:
        raise UnknownModelKindError(f"unknown model kind {kind!r}")
    body = _encode(ARTIFACTS[kind], model, f"a {kind} artifact's model")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "metadata": {"seed": seed, "data_fingerprint": data_fingerprint},
        "imputation": _encode_value(imputation),
        "model": body,
    }
    text = json.dumps(doc, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _refuse_constant(name: str):
    # json.load parses NaN, Infinity and -Infinity, which no fitted model holds
    raise SchemaMismatchError(f"{name} is not a JSON number")


def load_model(path) -> ModelArtifact:
    """Read an artifact back; the inverse of :func:`save_model`. A fusion whose
    components are not exactly its sources' networks and forests, each stored
    with its tag's type (``kinds.TAGS``), a network whose ``modality_tag`` is
    not the tag it is held under or whose ``layer_dims`` do not give its
    weight and bias shapes, a tree whose nodes are not in preorder (see
    ``_check_preorder``), a fusion head without one coefficient, mean and
    positive std per source, or a ``NaN`` or ``Infinity`` anywhere in the
    file, raises ``SchemaMismatchError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_constant=_refuse_constant)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, SchemaMismatchError) as exc:
        raise SchemaMismatchError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "schema_version" not in doc:
        raise SchemaMismatchError(f"{path} lacks a schema_version field")
    version = doc["schema_version"]
    if type(version) is not int or version not in _READABLE_VERSIONS:
        raise SchemaMismatchError(
            f"unsupported schema_version {version!r}"
            f" (supported: {', '.join(map(str, _READABLE_VERSIONS))})"
        )
    missing = [k for k in ("kind", "model", "metadata") if k not in doc]
    if missing:
        raise SchemaMismatchError(f"{path} lacks required field(s) {missing}")
    kind = doc["kind"]
    if kind not in MODEL_KINDS:
        raise UnknownModelKindError(f"unknown model kind {kind!r} in {path}")
    try:
        model = _decode(ARTIFACTS[kind], doc["model"])
    except (KeyError, TypeError, ValueError, SchemaMismatchError) as exc:
        raise SchemaMismatchError(f"{path} has a malformed {kind} body: {exc}") from exc
    try:
        imputation = None if doc.get("imputation") is None else _dec_imputation(doc["imputation"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatchError(f"{path} has malformed imputation constants: {exc}") from exc
    return ModelArtifact(kind=kind, model=model, imputation=imputation, metadata=doc["metadata"])
