"""Engine configuration: constants + the declarative PipelineConfig.

Mirrors the reference's config surface (reference:
src/pipeline/micasense/core/config.py:16-100 — per-index toggles, QC
thresholds, processing knobs) as a frozen dataclass; the numeric constants are
the exact values the reference hardcodes (cited per field).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# --- Geodesy (reference: processor.py:107-111) ---
EARTH_RADIUS_M = 6371000.0

# --- Camera defaults (reference: processor.py:94-97) ---
DEFAULT_FOCAL_LENGTH_MM = 5.4
DEFAULT_SENSOR_WIDTH_MM = 4.8
DEFAULT_SENSOR_HEIGHT_MM = 3.6

# --- Netherlands post-run geo-validation bbox (reference: main.py:477-482) ---
NL_LON_MIN, NL_LON_MAX = 3.0, 7.3
NL_LAT_MIN, NL_LAT_MAX = 50.7, 53.6

# --- Quality validation thresholds (reference: main.py:165-175,
#     validation.py:172-236) ---
MIN_WIDTH, MIN_HEIGHT = 100, 100
ALLOWED_DTYPES = ("uint16", "uint8")
VALUE_MIN, VALUE_MAX = 0, 65535
MAX_ZERO_RATIO = 0.5
# georeference sanity (reference: main.py:494-507, processor.py:643-656)
PIXEL_SIZE_DEG_MIN, PIXEL_SIZE_DEG_MAX = 1e-5, 0.01
ALLOWED_EPSG = (4326, 28992)

# --- MicaSense band layout (reference: tests/conftest.py wavelengths
#     475/560/668/840/717; processor.py:406-411 band order) ---
BAND_BLUE, BAND_GREEN, BAND_RED, BAND_NIR, BAND_REDEDGE = 1, 2, 3, 4, 5
N_BANDS = 5
REFERENCE_BAND = 3  # alignment reference (processor.py:303)

# --- Vegetation index set (reference: processor.py:401-477) ---
ALL_INDICES = ("ndvi", "ndre", "gndvi", "savi", "msavi", "evi", "osavi", "ndwi")

# --- Synthetic-fixture scale: rows per unit scale factor (FIXTURES.md:
#     bench "≈200k+, driver may scale"). 5M/sf ⇒ smoke ≈ 5k @ sf0.001,
#     correctness ≈ 50k @ sf0.01, bench ≈ 500k @ sf0.1 — sized so the bench
#     job runs minutes, not seconds: scaling efficiency measured on a job
#     where compute dominates cluster bootstrap, as at real scale. ---
IMAGES_PER_SF = 5_000_000

# --- Grid tiling used by the elevation layer and the bucketed kNN ---
GRID_CELL_DEG = 0.05  # ~3.5 km N-S

# --- Skew control: max rows per output partition (north_rule size budget) ---
DEFAULT_PARTITION_ROW_BUDGET = 50_000


@dataclass(frozen=True)
class PipelineConfig:
    """Declarative config for the flagship pipeline.

    Same toggle surface as the reference's ``create_default``
    (core/config.py:16-100): per-index selection, QC on/off, partitioning
    knobs. There are no worker-count knobs (the reference's max_workers):
    Ray Data sizes the one fused task stage to the cluster. There are no
    per-layer enrichment or caption toggles either: every run joins all
    three layers and keeps the caption (BASELINE.json per-row invariant).
    """

    # vegetation index toggles (all on by default, like main.py:141-150)
    indices: tuple = ALL_INDICES
    # NDVI semantics: 'processor' = canonical processor.py:479-486
    # (0 where denom==0); 'eps' = processing/indices.py:77-100 variant
    # (ε denominator, clip [−1,1], −1 fill where denom ≤ ε) — the last
    # reference semantic corner, off by default (SURVEY §7.4-4)
    ndvi_variant: str = "processor"
    # skew / partitioning
    partition_row_budget: int = DEFAULT_PARTITION_ROW_BUDGET
    cell_partition_res: int = 5  # coarse hex res used as the output partition key
    # validation
    validate: bool = True
    # --- multi-node storage contract -------------------------------------
    # The flagship's side-channel parquet (orphan spill) and the
    # rename-committed output trees are written by WORKER tasks via
    # filesystem paths, so on a real cluster out_dir MUST be shared
    # storage (NFS/FUSE-mounted object store) reachable from every node —
    # run_flagship probes this with a worker-side visibility check before
    # writing anything. side_channel_dir relocates the orphan spill (e.g.
    # to fast shared scratch); None keeps it beside the captures tree.
    # The enriched/captures .tmp trees CANNOT move: they commit via
    # os.replace, which requires the same filesystem as the final dir.
    side_channel_dir: str | None = None

    # --- file-driven config (reference core/config.py:104-152: JSON
    #     load/save + deep merge of user config over defaults) ---

    def to_dict(self) -> dict:
        from dataclasses import asdict

        d = asdict(self)
        d["indices"] = list(d["indices"])
        return d

    def config_hash(self) -> str:
        """Deterministic 16-hex digest of the full toggle surface — the
        audit/versioning stamp written into every manifest partition row
        (reference create-tables.sql:226-243 keeps versioned
        ``pipeline.configuration`` rows; :168-186 audit-logs changes). Any
        toggle change changes the hash, so lineage records say exactly
        which configuration produced each partition."""
        import hashlib
        import json

        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, user: dict) -> "PipelineConfig":
        """Defaults deep-merged with ``user`` (user wins); unknown keys are
        an error (the reference's validate_config analogue)."""
        base = cls().to_dict()
        merged = merge_configs(base, user)
        unknown = set(merged) - set(base)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged["indices"] = tuple(merged["indices"])
        return cls(**merged)

    @classmethod
    def from_file(cls, path: str,
                  overrides: dict | None = None) -> "PipelineConfig":
        """Load JSON (reference core/config.py:104-127) or YAML (reference
        ships config/dev/settings.yml) by extension; ``overrides`` deep-merge
        over the file contents (file over defaults, overrides over file —
        the reference's merge precedence)."""
        if path.endswith((".yml", ".yaml")):
            import yaml

            with open(path) as f:
                user = yaml.safe_load(f) or {}
        else:
            import json

            with open(path) as f:
                user = json.load(f)
        if overrides:
            user = merge_configs(user, overrides)
        return cls.from_dict(user)

    def save(self, path: str) -> str:
        import json

        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)
        return path


def merge_configs(base: dict, user: dict) -> dict:
    """Deep merge: nested dicts merge key-wise, user values win (exact
    reference semantics, core/config.py:140-152)."""
    out = dict(base)
    for k, v in user.items():
        if k in out and isinstance(out[k], dict) and isinstance(v, dict):
            out[k] = merge_configs(out[k], v)
        else:
            out[k] = v
    return out
