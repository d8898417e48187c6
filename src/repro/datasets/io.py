"""Dataset persistence: save/load raw datasets as portable ``.npz`` files.

Lets users generate a synthetic dataset once and share it — the role the
PeMS HDF extracts play for the original pipelines.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.sparse as sp

from repro.datasets.base import SpatioTemporalDataset
from repro.datasets.catalog import DatasetSpec
from repro.graph.adjacency import SensorGraph


def save_dataset(path: str, dataset: SpatioTemporalDataset) -> None:
    """Write signals, graph and spec to one ``.npz``-format archive at
    exactly ``path``, whatever its suffix."""
    w = dataset.graph.weights.tocsr()
    spec_json = json.dumps({
        "name": dataset.spec.name,
        "domain": dataset.spec.domain,
        "feature_names": list(dataset.spec.feature_names),
        "num_nodes": dataset.spec.num_nodes,
        "num_entries": dataset.spec.num_entries,
        "raw_features": dataset.spec.raw_features,
        "horizon": dataset.spec.horizon,
        "interval_minutes": dataset.spec.interval_minutes,
    })
    # Through a file handle: given a path, NumPy appends ".npz" to any other
    # suffix and load_dataset_file(path) would not find the file.
    with open(path, "wb") as f:
        np.savez_compressed(
            f,
            signals=dataset.signals,
            timestamps=dataset.timestamps,
            coords=dataset.graph.coords,
            adj_data=w.data, adj_indices=w.indices, adj_indptr=w.indptr,
            adj_shape=np.array(w.shape),
            graph_name=np.frombuffer(dataset.graph.name.encode(),
                                     dtype=np.uint8),
            spec=np.frombuffer(spec_json.encode(), dtype=np.uint8))


def load_dataset_file(path: str) -> SpatioTemporalDataset:
    """Inverse of :func:`save_dataset`."""
    with np.load(path) as a:
        spec_dict = json.loads(bytes(a["spec"]).decode())
        spec = DatasetSpec(
            name=spec_dict["name"], domain=spec_dict["domain"],
            feature_names=tuple(spec_dict["feature_names"]),
            num_nodes=spec_dict["num_nodes"],
            num_entries=spec_dict["num_entries"],
            raw_features=spec_dict["raw_features"],
            horizon=spec_dict["horizon"],
            interval_minutes=spec_dict["interval_minutes"])
        weights = sp.csr_matrix(
            (a["adj_data"], a["adj_indices"], a["adj_indptr"]),
            shape=tuple(a["adj_shape"]))
        graph = SensorGraph(coords=a["coords"], weights=weights,
                            name=bytes(a["graph_name"]).decode())
        return SpatioTemporalDataset(signals=a["signals"], graph=graph,
                                     spec=spec, timestamps=a["timestamps"])
