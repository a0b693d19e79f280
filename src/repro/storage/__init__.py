"""Persistence: BGP dump files, matrix archives, the artifact cache.

The paper's workflow is file-driven — collected BGP tables, measured
RTT datasets, analysis outputs.  This package gives the library the
same shape: scenarios can export their BGP feed and measured matrices
to disk and reload them later.  (Experiment records serialize to CSV
next to their type, in :mod:`repro.evaluation.metrics`.)
"""

from repro.storage.dumps import (
    read_asgraph_file,
    read_rib_file,
    read_update_file,
    write_asgraph_file,
    write_rib_file,
    write_update_file,
)
from repro.storage.artifacts import load_matrices, save_matrices
from repro.storage.cache import (
    SCHEMA_VERSION,
    ScenarioCache,
    resolve_cache_dir,
    scenario_cache_key,
)
from repro.storage.columns import COLUMN_STORE_SCHEMA, ColumnStore

__all__ = [
    "COLUMN_STORE_SCHEMA",
    "ColumnStore",
    "SCHEMA_VERSION",
    "ScenarioCache",
    "load_matrices",
    "read_asgraph_file",
    "read_rib_file",
    "read_update_file",
    "resolve_cache_dir",
    "save_matrices",
    "scenario_cache_key",
    "write_asgraph_file",
    "write_rib_file",
    "write_update_file",
]
