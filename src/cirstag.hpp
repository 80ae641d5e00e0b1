#pragma once

/// Umbrella header: the full public API of the CirSTAG library.
///
/// Layering (each header can also be included individually):
///   obs     -> metrics registry, trace spans, wall timers
///   util    -> stats, tables, CSV
///   linalg  -> dense/sparse matrices, solvers, eigensolvers, RNG
///   graphs  -> graphs, Laplacians, effective resistance, sparsifiers, kNN
///   circuit -> cell library, netlists, STA, generators, variation, I/O
///   gnn     -> trainable GNN surrogates (timing predictor, RE classifier)
///   core    -> the CirSTAG pipeline (Phases 1-3) and baselines
///   io      -> binary circuit snapshots (warm-state save/restore)

#include "circuit/cell_library.hpp"   // IWYU pragma: export
#include "circuit/generator.hpp"      // IWYU pragma: export
#include "circuit/io.hpp"             // IWYU pragma: export
#include "circuit/modules.hpp"        // IWYU pragma: export
#include "circuit/netlist.hpp"        // IWYU pragma: export
#include "circuit/perturb.hpp"        // IWYU pragma: export
#include "circuit/slack.hpp"          // IWYU pragma: export
#include "circuit/sta.hpp"            // IWYU pragma: export
#include "circuit/variation.hpp"      // IWYU pragma: export
#include "circuit/views.hpp"          // IWYU pragma: export
#include "core/baselines.hpp"         // IWYU pragma: export
#include "core/cirstag.hpp"           // IWYU pragma: export
#include "core/manifold.hpp"          // IWYU pragma: export
#include "core/spectral_embedding.hpp"  // IWYU pragma: export
#include "core/stability.hpp"         // IWYU pragma: export
#include "gnn/re_gat.hpp"             // IWYU pragma: export
#include "gnn/timing_gnn.hpp"         // IWYU pragma: export
#include "graphs/effective_resistance.hpp"  // IWYU pragma: export
#include "io/snapshot.hpp"            // IWYU pragma: export
#include "graphs/graph.hpp"           // IWYU pragma: export
#include "graphs/knn.hpp"             // IWYU pragma: export
#include "graphs/laplacian.hpp"       // IWYU pragma: export
#include "graphs/sgl.hpp"             // IWYU pragma: export
#include "graphs/sparsify.hpp"        // IWYU pragma: export
#include "obs/metrics.hpp"            // IWYU pragma: export
#include "obs/trace.hpp"              // IWYU pragma: export
#include "util/ascii.hpp"             // IWYU pragma: export
#include "util/csv.hpp"               // IWYU pragma: export
#include "util/stats.hpp"             // IWYU pragma: export
