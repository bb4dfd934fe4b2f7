#pragma once
/// \file service.hpp
/// The sharded serving plane's former entry point, kept as a constructor
/// adapter: a ShardedEmbeddingService *is* the one serve::EmbeddingService,
/// built over a substrate from the former option set, with the inner
/// solver HierOptions::inner names. New code constructs
/// serve::EmbeddingService(substrate, inner, region_paths, options)
/// directly.
///
/// Header-only on purpose: the shard library sits below the serve library
/// (serve's commit domain is shard::ShardedLedger), so this adapter needs
/// dagsfc::serve at link time, like any other serve::EmbeddingService user.

#include <memory>

#include "serve/service.hpp"
#include "shard/hier.hpp"

namespace dagsfc::shard {

using ShardMetricsSnapshot = serve::MetricsSnapshot;

namespace detail {
/// Owns the adapter's inner solver. A base listed before
/// serve::EmbeddingService, so the solver is built before the service
/// starts its workers and destroyed after it joins them.
struct InnerSolver {
  std::unique_ptr<const core::Embedder> inner;
};
}  // namespace detail

class ShardedEmbeddingService : private detail::InnerSolver,
                                public serve::EmbeddingService {
 public:
  struct Options {
    std::size_t workers_per_shard = 1;
    serve::AdmissionPolicy admission;  ///< queue_capacity is per shard
    HierOptions hier;                  ///< region_paths + inner algorithm
    std::uint64_t seed = 0x5eedbeefULL;
    serve::TracingOptions tracing;
  };

  /// The substrate must outlive the service.
  ShardedEmbeddingService(const ShardedSubstrate& substrate,
                          const Options& options)
      : detail::InnerSolver{make_inner_embedder(options.hier.inner)},
        serve::EmbeddingService(substrate, *inner, options.hier.region_paths,
                                service_options(options)) {}

 private:
  static serve::EmbeddingService::Options service_options(const Options& o) {
    serve::EmbeddingService::Options s;
    s.workers = o.workers_per_shard;
    s.admission = o.admission;
    s.seed = o.seed;
    s.tracing = o.tracing;
    return s;
  }
};

}  // namespace dagsfc::shard
