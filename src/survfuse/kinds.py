"""The study's model panel, importable without numpy.

Two tables say what the panel is made of. ``COMPONENTS`` says which
component scores each model kind uses; ``ARTIFACTS`` says which fitted
component or fusion each saved artifact holds. ``analysis`` fits the panel
from the first, ``cli`` saves and scores artifacts from the second and
``artifacts`` reads its kinds from it. The CLI validates a config against
``MODEL_KINDS`` before it imports anything numeric. The 30-day table's
kinds, the NRI pairs and the RV analysis's model are ``analysis``'s.

Component tags: ``pesi`` is the severity index, ``clin`` and ``img`` the
clinical and imaging networks, ``rsf_clin`` and ``rsf_img`` the clinical
and imaging forests.
"""

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


def reads_imaging(kinds) -> bool:
    """Whether any of ``kinds``, model or artifact kinds, reads the imaging
    features (``deep_clinical`` and ``deep_imaging`` name one network as
    either)."""
    for kind in kinds:
        held = ARTIFACTS.get(kind, kind)
        if any(tag.endswith("img") for tag in COMPONENTS.get(held, (held,))):
            return True
    return False
