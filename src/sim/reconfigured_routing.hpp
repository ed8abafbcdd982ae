// Routing on a reconfigured machine: the paper's embeddings are dilation-1
// (every logical edge maps to one physical link), so any logical routing
// algorithm — BFS tables, de Bruijn shift routing, SE routing — runs on the
// reconfigured machine by translating its hops through the embedding, with
// zero stretch. These helpers perform that translation and validate it
// against the physical fabric.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"

namespace ftdb::sim {

/// Maps a logical route to the physical nodes hosting it. Throws
/// std::out_of_range if the route mentions nodes outside the machine.
std::vector<NodeId> physical_route(const Machine& machine, const std::vector<NodeId>& logical);

/// True when every consecutive pair of the *physical* route is a healthy
/// physical link (both endpoints alive, edge present).
bool physical_route_is_live(const Machine& machine, const std::vector<NodeId>& physical);

/// de Bruijn shift routing executed on a reconfigured machine: computes the
/// logical route in B_{m,h} label space and returns the physical node
/// sequence. The returned route is guaranteed live on a correctly
/// reconfigured FT machine (Theorem 1/2).
std::vector<NodeId> debruijn_route_on_machine(const Machine& machine, std::uint64_t m,
                                              unsigned h, NodeId logical_src,
                                              NodeId logical_dst);

/// Shuffle-exchange routing executed on a reconfigured machine.
std::vector<NodeId> se_route_on_machine(const Machine& machine, unsigned h,
                                        NodeId logical_src, NodeId logical_dst);

/// The routing engine a machine carrying `target` actually runs:
/// make_router() over the live logical graph. On a large machine this
/// composes the implicit digit-shift algebra with the monotone
/// logical->physical relabeling — the implicit backend is selected exactly
/// when the realized machine still presents an intact de Bruijn /
/// shuffle-exchange shape (the dilation-1 case of Theorems 1/2).
std::unique_ptr<Router> machine_logical_router(const Machine& machine, const Graph& target);

/// Route-stretch audit: compares the deployed routing engine's logical route
/// length against the shortest path in the *physical* survivor graph, which
/// may cut through spare nodes the logical machine does not use. The logical
/// route is never shorter than the physical shortest path; the maximum ratio
/// quantifies the price of routing in logical space (1.0 = the logical engine
/// is physically optimal everywhere). Pairs with no live logical route and
/// self-pairs are skipped.
///
/// `router` supplies the logical route lengths and the machine the physical
/// survivor graph. It must route the machine's live logical graph —
/// machine_logical_router(machine, target), or any router built over an
/// equal graph, such as the healthy target's router when
/// machine.presents(target). `pairs` == nullptr audits every ordered pair;
/// otherwise only the listed (logical src, logical dst) pairs, which is
/// deterministic for a fixed list (returns 1.0 for an empty one), so campaign
/// reports stay byte-identical across thread counts and checkpoint/resume as
/// long as the pairs are drawn from the trial's counter-based RNG.
double max_route_stretch_with_router(const Machine& machine, const Router& router,
                                     const std::vector<std::pair<NodeId, NodeId>>* pairs = nullptr);

/// The sampled audit of a machine carrying B_{m,h}: max_route_stretch_with_router
/// over machine_logical_router(machine, B_{m,h}) and `pairs`.
double max_route_stretch_sampled(const Machine& machine, std::uint64_t m, unsigned h,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace ftdb::sim
