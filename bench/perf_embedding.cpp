// PERF11: the subgraph-monomorphism search behind
// ft_shuffle_exchange_via_debruijn: SE_h into B_{2,h} for h = 5, 6, plus an
// infeasible instance (SE_5 into B_{2,5} minus the edge (1, 2)) that the
// search must exhaust. Steps are deterministic, wall time is the regression
// signal.
#include "analysis/bench_registry.hpp"
#include "graph/embedding.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace {

using ftdb::analysis::BenchContext;

void run_search(BenchContext& ctx, const ftdb::Graph& pattern, const ftdb::Graph& host) {
  ftdb::EmbeddingSearchStats stats;
  const auto phi = ftdb::find_subgraph_embedding(pattern, host, {}, &stats);
  ctx.report("found", phi.has_value() ? 1.0 : 0.0);
  ctx.report("steps", static_cast<double>(stats.steps));
  ctx.report("aborted", stats.aborted ? 1.0 : 0.0);
  ctx.report("valid", phi && ftdb::is_valid_embedding(pattern, host, *phi) ? 1.0 : 0.0);
}

FTDB_BENCH(embedding_h5, "perf_embedding/se_in_debruijn_h5") {
  run_search(ctx, ftdb::shuffle_exchange_graph(5), ftdb::debruijn_base2(5));
}

FTDB_BENCH(embedding_h6, "perf_embedding/se_in_debruijn_h6") {
  run_search(ctx, ftdb::shuffle_exchange_graph(6), ftdb::debruijn_base2(6));
}

FTDB_BENCH(embedding_infeasible_h5, "perf_embedding/se_in_debruijn_minus_edge_h5") {
  const ftdb::Graph db = ftdb::debruijn_base2(5);
  ftdb::GraphBuilder b(db.num_nodes());
  for (ftdb::NodeId u = 0; u < db.num_nodes(); ++u) {
    for (const ftdb::NodeId w : db.neighbors(u)) {
      if (u < w && !(u == 1 && w == 2)) b.add_edge(u, w);
    }
  }
  run_search(ctx, ftdb::shuffle_exchange_graph(5), b.build());
}

}  // namespace
