"""Cluster hardware model: GPUs, nodes, NICs, and testbed topologies."""

from .calibration import DEFAULT_CALIBRATION, Calibration
from .cluster import Cluster, cluster_a, cluster_b, make_cluster
from .faults import FaultyLink, LinkDownError, MessageDropped, TransportFault
from .gpu import GPUDevice, GPUSpec, K20X, K80, OutOfMemoryError, P100
from .node import NICSpec, Node, NodeSpec
from .topology import (acquisition_order, cut_through_time, hold_time,
                       multi_link_transfer)

__all__ = [
    "Calibration", "DEFAULT_CALIBRATION",
    "Cluster", "cluster_a", "cluster_b", "make_cluster",
    "FaultyLink", "LinkDownError", "MessageDropped", "TransportFault",
    "GPUDevice", "GPUSpec", "K80", "K20X", "P100", "OutOfMemoryError",
    "NICSpec", "Node", "NodeSpec",
    "acquisition_order", "cut_through_time", "hold_time",
    "multi_link_transfer",
]
