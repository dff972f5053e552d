"""The study's model panel, importable without numpy.

Three tables, each described where it is defined, say what the panel is
made of. ``analysis``, ``fusion``, ``artifacts``, ``cli`` and
``deep_survival`` decode a component tag by ``TAGS`` alone; ``analysis``
fits the panel from ``COMPONENTS``, and ``cli`` saves and scores artifacts
from ``ARTIFACTS``. The CLI validates a config against ``MODEL_KINDS``
before it imports anything numeric. The 30-day table's kinds and the NRI
pairs are ``analysis``'s.
"""

# each component tag's model type ("mlp" or "forest", the "type" a fusion
# artifact stores for it) and input matrix, in fusion's covariate order
TAGS = {
    "clin": ("mlp", "clin"),
    "img": ("mlp", "img"),
    "pesi": (None, None),
    "rsf_clin": ("forest", "clin"),
    "rsf_img": ("forest", "img"),
}

# each model kind's component tags: one tag is the model's own score, several
# are fused by ``fusion.fit_fusion``. The key order is the report's, and a
# kind's position seeds its bootstrap resamples: append only
COMPONENTS = {
    "pesi": ("pesi",),
    "rsf_fused": ("rsf_clin", "rsf_img"),
    "deep_imaging": ("img",),
    "deep_clinical": ("clin",),
    "deep_multimodal": ("clin", "img"),
    "deep_pesi_fused": ("clin", "img", "pesi"),
}

MODEL_KINDS = tuple(COMPONENTS)

# each saved artifact kind, in write order, and what it holds: a component
# tag (one fitted network or forest) or a fused model kind (its fusion head
# together with the fitted components it reads)
ARTIFACTS = {
    "deep_clinical": "clin",
    "deep_imaging": "img",
    "rsf_clinical": "rsf_clin",
    "rsf_imaging": "rsf_img",
    "fusion_multimodal": "deep_multimodal",
    "fusion_pesi_fused": "deep_pesi_fused",
    "fusion_rsf": "rsf_fused",
}

# the model kind whose high-risk stratum the RV analysis reads
RV_MODEL = "deep_multimodal"


def reads_imaging(kinds) -> bool:
    """Whether any of ``kinds``, model or artifact kinds, reads the imaging
    features (``deep_clinical`` and ``deep_imaging`` name one network as
    either)."""
    for kind in kinds:
        held = ARTIFACTS.get(kind, kind)
        if any(TAGS[tag][1] == "img" for tag in COMPONENTS.get(held, (held,))):
            return True
    return False
