"""Persistence: BGP dump files, matrix archives, experiment records.

The paper's workflow is file-driven — collected BGP tables, measured
RTT datasets, analysis outputs.  This package gives the library the
same shape: scenarios can export their BGP feed and measured matrices
to disk and reload them later, and experiment records serialize to
CSV for external analysis.
"""

from repro.storage.dumps import (
    read_asgraph_file,
    read_rib_file,
    read_update_file,
    write_asgraph_file,
    write_rib_file,
    write_update_file,
)
from repro.storage.artifacts import (
    load_matrices,
    load_records_csv,
    save_matrices,
    save_records_csv,
)
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
    "load_records_csv",
    "read_asgraph_file",
    "read_rib_file",
    "read_update_file",
    "resolve_cache_dir",
    "save_matrices",
    "scenario_cache_key",
    "save_records_csv",
    "write_asgraph_file",
    "write_rib_file",
    "write_update_file",
]
