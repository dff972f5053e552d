"""The study's settings: defaults, validation and fingerprint of a config.

A config is a JSON object, as a ``--config`` file holds it. Its defaults
are written once, in ``_TOP_DEFAULTS``. ``effective_config`` merges a
partial config (and the CLI's flag overrides) into them and checks every
field, naming the first bad one in an :class:`InvalidConfigError`; it is
idempotent, so a checked config passes through it unchanged. The CLI and
``analysis.run_study`` both read the checked dict directly.

Importing this module imports no numpy.
"""

from __future__ import annotations

import copy
import json
import math

from .errors import InvalidConfigError
from .kinds import MODEL_KINDS

_DEEP_CLIN_DEFAULTS = {
    "hidden_dims": [32],
    "learning_rate": 1e-3,
    "epochs": 500,
    "weight_decay": 1e-4,
    "patience": 50,
}
_DEEP_IMG_DEFAULTS = {**_DEEP_CLIN_DEFAULTS, "hidden_dims": [64]}
_RSF_DEFAULTS = {"n_trees": 100, "mtry": None, "min_leaf_size": 15}
_STRAT_DEFAULTS = {"method": "median", "threshold": None}
_GEN_DEFAULTS = {
    "n": 1000,
    "img_dim": 32,
    "latent_weights": [1.0, 1.0],
    "noise_scale": 0.5,
    "baseline_rate": 0.004,
    "censor_rate": 0.003,
    "max_acquisitions": 3,
    "missing_rate": 0.0,
}

_TOP_DEFAULTS = {
    "seed": 0,
    "clinical": None,
    "features": None,
    "out": None,
    "split": [0.7, 0.1, 0.2],
    "models": list(MODEL_KINDS),
    "bootstrap_resamples": 1000,
    "nri_threshold": 0.7,
    "stratification": dict(_STRAT_DEFAULTS),
    "deep_clinical": dict(_DEEP_CLIN_DEFAULTS),
    "deep_imaging": dict(_DEEP_IMG_DEFAULTS),
    "rsf": dict(_RSF_DEFAULTS),
    # fusion sits on already-regularized learners; the tiny ridge only
    # guards against degenerate (constant) score columns
    "fusion_ridge": 1e-8,
    "generate": dict(_GEN_DEFAULTS),
}

# the part of the effective config that determines analysis results
_FINGERPRINT_KEYS = (
    "seed",
    "split",
    "models",
    "bootstrap_resamples",
    "nri_threshold",
    "stratification",
    "deep_clinical",
    "deep_imaging",
    "rsf",
    "fusion_ridge",
)


def _require(cond: bool, path: str, reason: str) -> None:
    if not cond:
        raise InvalidConfigError(path, reason)


def _is_num(x) -> bool:
    # json.load parses NaN and Infinity; no setting takes them
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return isinstance(x, int) or math.isfinite(x)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _merge_section(name: str, defaults: dict, given) -> dict:
    _require(isinstance(given, dict), name, "must be a JSON object")
    merged = dict(defaults)
    for key, value in given.items():
        _require(key in defaults, f"{name}.{key}", "unknown field")
        merged[key] = value
    return merged


def load_config(path) -> dict:
    """Read a JSON config file; the result still needs ``effective_config``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError("", f"cannot read config file: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidConfigError("", f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfigError("", "config must be a JSON object")
    return doc


def effective_config(raw: dict, args=None) -> dict:
    """Merge defaults, file values, and flag overrides, then validate.

    Raises :class:`InvalidConfigError` with the offending field path on the
    first problem found.
    """
    # a deep copy: a caller that edits the result must not edit the defaults
    cfg = copy.deepcopy(_TOP_DEFAULTS)
    for key, value in raw.items():
        _require(key in _TOP_DEFAULTS, key, "unknown field")
        if key in ("stratification", "deep_clinical", "deep_imaging", "rsf", "generate"):
            cfg[key] = _merge_section(key, cfg[key], value)
        else:
            cfg[key] = value

    if args is not None:
        for key in ("seed", "out", "clinical", "features"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        if getattr(args, "models", None) is not None:
            cfg["models"] = [m.strip() for m in args.models.split(",") if m.strip()]
        if getattr(args, "n", None) is not None:
            cfg["generate"]["n"] = args.n

    _require(_is_int(cfg["seed"]), "seed", "must be an integer")
    _require(0 <= cfg["seed"] < 2 ** 64, "seed", "must fit in an unsigned 64-bit integer")

    split = cfg["split"]
    _require(isinstance(split, list) and len(split) == 3 and all(_is_num(v) for v in split),
             "split", "must be a list of three numbers")
    _require(all(v > 0 for v in split), "split", "ratios must be positive")
    _require(abs(sum(split) - 1.0) <= 1e-9, "split", "ratios must sum to 1")

    models = cfg["models"]
    _require(isinstance(models, list) and models, "models", "must be a non-empty list")
    for m in models:
        _require(m in MODEL_KINDS, "models", f"unknown model kind {m!r}")
    _require(len(set(models)) == len(models), "models", "contains duplicates")

    _require(_is_int(cfg["bootstrap_resamples"]) and cfg["bootstrap_resamples"] >= 100,
             "bootstrap_resamples", "must be an integer >= 100")
    _require(_is_num(cfg["nri_threshold"]) and 0.0 < cfg["nri_threshold"] < 1.0,
             "nri_threshold", "must be a number in (0, 1)")

    strat = cfg["stratification"]
    _require(strat["method"] in ("median", "fixed"),
             "stratification.method", "must be 'median' or 'fixed'")
    if strat["method"] == "fixed":
        _require(_is_num(strat["threshold"]),
                 "stratification.threshold", "must be a finite number for fixed stratification")
    else:
        _require(strat["threshold"] is None or _is_num(strat["threshold"]),
                 "stratification.threshold", "must be a number or null")

    for name in ("deep_clinical", "deep_imaging"):
        sec = cfg[name]
        dims = sec["hidden_dims"]
        _require(isinstance(dims, list) and dims
                 and all(_is_int(d) and d >= 1 for d in dims),
                 f"{name}.hidden_dims", "must be a non-empty list of positive integers")
        _require(_is_num(sec["learning_rate"]) and sec["learning_rate"] > 0,
                 f"{name}.learning_rate", "must be a positive number")
        _require(_is_int(sec["epochs"]) and sec["epochs"] >= 1,
                 f"{name}.epochs", "must be a positive integer")
        _require(_is_num(sec["weight_decay"]) and sec["weight_decay"] >= 0,
                 f"{name}.weight_decay", "must be a non-negative number")
        _require(_is_int(sec["patience"]) and sec["patience"] >= 0,
                 f"{name}.patience", "must be a non-negative integer")

    rsf_sec = cfg["rsf"]
    _require(_is_int(rsf_sec["n_trees"]) and rsf_sec["n_trees"] >= 1,
             "rsf.n_trees", "must be a positive integer")
    _require(rsf_sec["mtry"] is None or (_is_int(rsf_sec["mtry"]) and rsf_sec["mtry"] >= 1),
             "rsf.mtry", "must be a positive integer or null")
    _require(_is_int(rsf_sec["min_leaf_size"]) and rsf_sec["min_leaf_size"] >= 1,
             "rsf.min_leaf_size", "must be a positive integer")

    _require(_is_num(cfg["fusion_ridge"]) and cfg["fusion_ridge"] >= 0,
             "fusion_ridge", "must be a non-negative number")

    gen = cfg["generate"]
    _require(_is_int(gen["n"]) and gen["n"] >= 10, "generate.n",
             "must be an integer >= 10")
    _require(_is_int(gen["img_dim"]) and gen["img_dim"] >= 1,
             "generate.img_dim", "must be a positive integer")
    lw = gen["latent_weights"]
    _require(isinstance(lw, list) and len(lw) == 2 and all(_is_num(v) for v in lw),
             "generate.latent_weights", "must be a list of two numbers")
    _require(_is_num(gen["noise_scale"]) and gen["noise_scale"] >= 0,
             "generate.noise_scale", "must be a non-negative number")
    _require(_is_num(gen["baseline_rate"]) and gen["baseline_rate"] > 0,
             "generate.baseline_rate", "must be a positive number")
    _require(_is_num(gen["censor_rate"]) and gen["censor_rate"] >= 0,
             "generate.censor_rate", "must be a non-negative number")
    _require(_is_int(gen["max_acquisitions"]) and gen["max_acquisitions"] >= 1,
             "generate.max_acquisitions", "must be a positive integer")
    _require(_is_num(gen["missing_rate"]) and 0.0 <= gen["missing_rate"] < 1.0,
             "generate.missing_rate", "must be a number in [0, 1)")

    for key in ("clinical", "features", "out"):
        _require(cfg[key] is None or isinstance(cfg[key], str), key, "must be a string path")
    return cfg


def config_fingerprint(cfg: dict) -> str:
    """sha256 over the canonical JSON form of the analysis-relevant config."""
    # imported here, not at the top: hashlib loads OpenSSL (about 3.6 MB of
    # resident memory), which only ``run`` uses
    import hashlib

    part = {k: cfg[k] for k in _FINGERPRINT_KEYS}
    blob = json.dumps(part, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
