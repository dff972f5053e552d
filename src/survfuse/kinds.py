"""The study's model kinds, importable without numpy.

``analysis`` runs these kinds and re-exports the tuple; the CLI validates a
config against it before it imports anything numeric.
"""

MODEL_KINDS = (
    "pesi",
    "rsf_fused",
    "deep_imaging",
    "deep_clinical",
    "deep_multimodal",
    "deep_pesi_fused",
)
