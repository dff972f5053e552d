"""Model persistence.

Every fitted model serializes to a single JSON document with a schema
version, the model kind, and reproducibility metadata (the config seed and
a sha256 fingerprint of the input data). Fusion artifacts embed their
component models and the imputation constants so a saved model is
sufficient to score raw CSV exports on its own. Floats survive the round
trip bit for bit: ``json`` emits the shortest repr that parses back to
the identical double. Non-finite thresholds (leaf markers) are stored as
null.

Artifacts are written at schema version 2: a forest's leaves store only
their ensemble mortality, and the document is one line of compact JSON
with sorted keys (``json.dumps`` without ``indent`` runs CPython's C
encoder), which ``python -m json.tool`` lays out for reading. Version 1
artifacts, whose leaves also hold their ``leaf_times`` and ``leaf_chf``
curves and which were indented, still load and score the same: the
decoder does not read those two keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .cox_linear import CoxModel
from .dataset import BINARY_FIELDS, ImputationStats
from .deep_survival import MlpSurvModel
from .errors import IoError, SchemaMismatchError, UnknownModelKindError
from .fusion import FusionModel
from .kinds import ARTIFACTS, TAGS
from .rsf import ForestModel, RsfOptions, SurvivalTree

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
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                h.update(fh.read())
        except OSError as exc:
            raise IoError(f"cannot read {p}: {exc}") from exc
    return h.hexdigest()


# --- encoders ---------------------------------------------------------------


def _enc_floats(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _enc_mlp(m: MlpSurvModel) -> dict:
    return {
        "layer_dims": list(m.layer_dims),
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "seed": m.seed,
        "modality_tag": m.modality_tag,
    }


def _dec_mlp(doc: dict) -> MlpSurvModel:
    return MlpSurvModel(
        layer_dims=tuple(int(d) for d in doc["layer_dims"]),
        weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
        biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
        seed=int(doc["seed"]),
        modality_tag=doc["modality_tag"],
    )


def _enc_tree(t: SurvivalTree) -> dict:
    return {
        "feature": t.feature.tolist(),
        "threshold": [None if not math.isfinite(v) else float(v) for v in t.threshold],
        "left": t.left.tolist(),
        "right": t.right.tolist(),
        "leaf_slot": t.leaf_slot.tolist(),
        "leaf_mortality": _enc_floats(t.leaf_mortality),
    }


def _dec_tree(doc: dict) -> SurvivalTree:
    return SurvivalTree(
        feature=np.asarray(doc["feature"], dtype=np.int64),
        threshold=np.asarray([math.nan if v is None else v for v in doc["threshold"]], dtype=float),
        left=np.asarray(doc["left"], dtype=np.int64),
        right=np.asarray(doc["right"], dtype=np.int64),
        leaf_slot=np.asarray(doc["leaf_slot"], dtype=np.int64),
        leaf_mortality=np.asarray(doc["leaf_mortality"], dtype=float),
    )


def _enc_forest(f: ForestModel) -> dict:
    return {
        "event_time_grid": _enc_floats(f.event_time_grid),
        "n_features": f.n_features,
        "options": dataclasses.asdict(f.options),
        "trees": [_enc_tree(t) for t in f.trees],
    }


def _dec_forest(doc: dict) -> ForestModel:
    opts = doc["options"]
    return ForestModel(
        trees=[_dec_tree(t) for t in doc["trees"]],
        event_time_grid=np.asarray(doc["event_time_grid"], dtype=float),
        n_features=int(doc["n_features"]),
        options=RsfOptions(
            n_trees=int(opts["n_trees"]),
            mtry=None if opts["mtry"] is None else int(opts["mtry"]),
            min_leaf_size=int(opts["min_leaf_size"]),
            seed=int(opts["seed"]),
        ),
    )


def _enc_cox(c: CoxModel) -> dict:
    return {
        "beta": _enc_floats(c.beta),
        "covariate_names": list(c.covariate_names),
        "baseline_times": _enc_floats(c.baseline_times),
        "baseline_cumhaz": _enc_floats(c.baseline_cumhaz),
        "log_likelihood": c.log_likelihood,
        "converged": c.converged,
        "n_iterations": c.n_iterations,
        "tie_method": c.tie_method,
    }


def _dec_cox(doc: dict) -> CoxModel:
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


def _encode(held: str, model, what: str):
    model_class, encode, _ = _CODECS[_body_type(held)]
    if not isinstance(model, model_class):
        raise SchemaMismatchError(
            f"{what} must be a {model_class.__name__}, got {type(model).__name__}")
    return encode(_check_tag(held, model))


def _decode(held: str, doc):
    return _check_tag(held, _CODECS[_body_type(held)][2](doc))


def _enc_fusion(b: FusionBundle) -> dict:
    _check_components(b.fusion.sources, b.components)
    return {
        "cox": _enc_cox(b.fusion.cox),
        "sources": list(b.fusion.sources),
        "means": _enc_floats(b.fusion.means),
        "stds": _enc_floats(b.fusion.stds),
        "components": {tag: {"type": TAGS[tag][0],
                             "model": _encode(tag, model, f"component {tag!r}")}
                       for tag, model in b.components.items()},
    }


def _dec_fusion(doc: dict) -> FusionBundle:
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
    return FusionBundle(fusion=fusion, components=components)


def _enc_imputation(s: ImputationStats) -> dict:
    return {
        "binary_medians": {k: bool(v) for k, v in s.binary_medians.items()},
        "age_median": s.age_median,
        "age_mean": s.age_mean,
        "age_std": s.age_std,
    }


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


# the model class, encoder and decoder of each body type: a component's tag's, or "fusion"
_CODECS = {
    "mlp": (MlpSurvModel, _enc_mlp, _dec_mlp),
    "forest": (ForestModel, _enc_forest, _dec_forest),
    "fusion": (FusionBundle, _enc_fusion, _dec_fusion),
}


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
        "imputation": None if imputation is None else _enc_imputation(imputation),
        "model": body,
    }
    text = json.dumps(doc, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def load_model(path) -> ModelArtifact:
    """Read an artifact back; the inverse of :func:`save_model`. A fusion whose
    components are not exactly its sources' networks and forests, each stored
    with its tag's type (``kinds.TAGS``), or a network whose ``modality_tag``
    is not the tag it is held under, raises ``SchemaMismatchError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
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
