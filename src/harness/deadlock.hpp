// DeadlockMonitor — global-state observer building the wait-for graph of
// a cluster across ALL its locks (DESIGN.md: diagnostic substrate for
// application-level lock-ordering bugs the protocol itself cannot
// prevent).
//
// A node WAITS if it has a pending request on some lock, or a request of
// its sits queued anywhere; it waits FOR every node currently holding an
// incompatible mode on that lock, and for every node whose incompatible
// request sits ahead of its own in the same queue (queues are served in
// order and Rule 6 freezes the modes a queued request conflicts with, so
// a request can be stuck behind a waiter while every holder is
// compatible with it). A cycle in this graph is a genuine application
// deadlock (the protocol serves each single lock FIFO, so only
// cross-lock hold-and-wait can close a cycle).
//
// The forest harness spans MANY disjoint lock trees, each with its own
// 0-based node-id space: add_wait_edges() therefore takes a rename
// function mapping tree-local ids into one global namespace, and the
// harness layers its own cross-tree edges (a transaction waiting on a
// remote tree's gateway) on top — see ManyLocksCluster::wait_graph().
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/hls_node.hpp"
#include "harness/cluster.hpp"
#include "lockmgr/waitgraph.hpp"

namespace hlock::harness {

/// Scan the *materialized* engines of `nodes` (one lock service: every
/// node of one tree or one classic cluster) and add a waiter -> holder
/// edge for every incompatible (pending-or-queued, held) pair and a
/// later -> earlier edge for every incompatible pair in one queue, with both
/// endpoints passed through `rename` (identity for a single cluster,
/// tree-global ids for a forest).
void add_wait_edges(lockmgr::WaitForGraph& graph,
                    const std::vector<const core::HlsNode*>& nodes,
                    const std::function<NodeId(NodeId)>& rename);

/// Build the instantaneous wait-for graph of the cluster.
lockmgr::WaitForGraph build_wait_graph(HlsCluster& cluster);

/// Convenience: detect and pretty-print a deadlock cycle, empty if none.
std::string describe_deadlock(HlsCluster& cluster);

}  // namespace hlock::harness
