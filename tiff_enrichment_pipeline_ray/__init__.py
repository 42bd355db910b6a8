"""tiff_enrichment_pipeline_ray — a Ray-Data-native spatial-join + tiling engine.

Brand-new engine with the query/data-processing capabilities of the reference
``casper-aurai/tiff-enrichment-pipeline`` (geotagged TIFF enrichment: EXIF/GPS
extraction, georeferencing, band alignment, radiometric calibration, vegetation
indices, quality validation, and point enrichment with elevation / weather /
land-cover), re-expressed Ray-Data-first:

- every logical table is a ``ray.data.Dataset`` of Arrow blocks;
- per-record transforms are vectorized ``map_batches`` stages
  (``batch_format="pyarrow"`` / numpy kernels);
- stateful enrichment (STRtree land-cover join, elevation tile sampling,
  per-cell kNN weather-station matching) runs in one plain task,
  ``stages.enrich.enrich_batch_cached``, fused into the map chain; its
  indexes are built once per worker process from ``ray.put`` broadcast
  layers and cached there;
- wide steps (capture-set assembly, dedup, per-cell census) are
  ``groupby``/``map_groups`` shuffles with explicit skew salting;
- output is partitioned parquet plus a checkpoint manifest with per-partition
  lineage, enabling exact resume.

No code is copied from the reference; formulas are re-implemented from the
cited file:line semantics (see docstrings).
"""

__version__ = "0.1.0"
