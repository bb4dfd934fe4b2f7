/// Golden closed-loop rows of the serving plane
/// (tests/corpus/serve_golden.txt): the flat service under RANV, MINV, BBE,
/// MBBE and LAYERED at 1 and 4 workers, and the three-region sharded
/// service under HIER with inner BBE, MBBE and LAYERED at 1 and 2 workers
/// per region. The rows were recorded from the flat and sharded services
/// before they became one service; every counter, the cost histogram bit
/// for bit, the final ledger epoch (per region), the last arrival instant
/// and conservation must replay exactly through the one closed-loop driver.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/backtracking.hpp"
#include "core/baselines.hpp"
#include "core/layered.hpp"
#include "serve/driver.hpp"
#include "shard/hier.hpp"

namespace dagsfc::serve {
namespace {

constexpr std::array<double, 4> kRates = {0.3, 0.7, 1.0, 1.3};
constexpr std::uint64_t kSeed = 0x5eed;

std::string hex(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(x)));
  return buf;
}

/// count:sum:min:max:bucket=count,... with doubles as IEEE-754 bits.
std::string hist(const Histogram& h) {
  std::ostringstream os;
  os << h.count() << ":" << hex(h.sum()) << ":" << hex(h.min()) << ":"
     << hex(h.max()) << ":";
  bool first = true;
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    if (h.bucket_count(b) == 0) continue;
    os << (first ? "" : ",") << b << "=" << h.bucket_count(b);
    first = false;
  }
  return os.str();
}

/// The counter fields every row starts with.
std::string counters(const MetricsSnapshot& m, std::uint64_t conflicts) {
  std::ostringstream os;
  os << " submitted=" << m.submitted << " accepted=" << m.accepted
     << " rejected_infeasible=" << m.rejected_infeasible
     << " rejected_queue_full=" << m.rejected_queue_full
     << " shed_deadline=" << m.shed_deadline
     << " lost_conflict=" << m.lost_conflict
     << " commit_conflicts=" << conflicts << " retries=" << m.retries
     << " fast=" << m.fast_commits << " stamp=" << m.stamp_commits
     << " validated=" << m.validated_commits << " releases=" << m.releases;
  return os.str();
}

template <class Arrivals>
void cycle_rates(Arrivals& arrivals) {
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i].request.flow.rate = kRates[i % kRates.size()];
  }
}

std::map<std::string, std::string> golden_rows() {
  std::ifstream in(std::string(DAGSFC_CORPUS_DIR) + "/serve_golden.txt");
  EXPECT_TRUE(in.good()) << "missing tests/corpus/serve_golden.txt";
  std::map<std::string, std::string> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    rows.emplace(line.substr(0, line.find(' ')), line);
  }
  return rows;
}

TEST(ServeGolden, FlatRowsReplayBitForBit) {
  const auto rows = golden_rows();
  sim::DynamicConfig cfg;
  cfg.base.network_size = 16;
  cfg.base.network_connectivity = 4.0;
  cfg.base.catalog_size = 6;
  cfg.base.sfc_size = 3;
  cfg.base.vnf_capacity = 3.0;
  cfg.base.link_capacity = 4.0;
  cfg.base.trials = 1;
  cfg.arrival_rate = 3.0;
  cfg.mean_holding_time = 10.0;
  cfg.num_arrivals = 60;
  Workload w = make_workload(cfg, 0x901d);
  cycle_rates(w.arrivals);

  const core::RanvEmbedder ranv;
  const core::MinvEmbedder minv;
  const core::BbeEmbedder bbe;
  const core::MbbeEmbedder mbbe;
  const core::LayeredEmbedder layered;
  const std::pair<const char*, const core::Embedder*> algos[] = {
      {"RANV", &ranv}, {"MINV", &minv}, {"BBE", &bbe}, {"MBBE", &mbbe},
      {"LAYERED", &layered}};
  std::size_t replayed = 0;
  for (const auto& [name, algo] : algos) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
      const std::string key =
          std::string("flat_") + name + "_w" + std::to_string(workers);
      EmbeddingService::Options opts;
      opts.workers = workers;
      opts.seed = kSeed;
      EmbeddingService service(w.scenario.network, *algo, opts);
      const DriverResult r = run_closed_loop(service, w.arrivals);
      const MetricsSnapshot& m = r.metrics;
      std::ostringstream row;
      row << key << counters(m, m.commit_conflicts)
          << " slow_solves=" << m.slow_solves << " cost=" << hist(m.cost)
          << " epoch=" << r.final_epoch << " sim_time=" << hex(r.simulated_time)
          << " conserved=" << r.conserved;
      ASSERT_TRUE(rows.count(key)) << key;
      EXPECT_EQ(row.str(), rows.at(key));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, 10u);
}

TEST(ServeGolden, HierRowsReplayBitForBit) {
  const auto rows = golden_rows();
  RegionalWorkloadConfig cfg;
  cfg.regional.base.catalog_size = 8;
  cfg.regional.base.sfc_size = 3;
  cfg.regional.base.trials = 1;
  cfg.regional.base.vnf_capacity = 3.0;
  cfg.regional.base.link_capacity = 4.0;
  cfg.regional.regions.regions = 3;
  cfg.regional.regions.nodes_per_region = 8;
  cfg.arrival_rate = 3.0;
  cfg.mean_holding_time = 10.0;
  cfg.num_arrivals = 60;
  RegionalWorkload w = make_regional_workload(cfg, 0x901e);
  cycle_rates(w.arrivals);
  const shard::ShardedSubstrate substrate(
      w.scenario.network,
      shard::RegionPartition::from_labels(w.scenario.region_of));

  std::size_t replayed = 0;
  for (const shard::InnerAlgorithm inner :
       {shard::InnerAlgorithm::kBbe, shard::InnerAlgorithm::kMbbe,
        shard::InnerAlgorithm::kLayered}) {
    for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
      std::string name = shard::to_string(inner);
      for (char& c : name) c = static_cast<char>(std::toupper(c));
      const std::string key = "hier_" + name + "_w" + std::to_string(workers);
      const auto solver = shard::make_inner_embedder(inner);
      EmbeddingService::Options opts;
      opts.workers = workers;
      opts.seed = kSeed;
      EmbeddingService service(substrate, *solver, /*region_paths=*/4, opts);
      const DriverResult r = run_closed_loop(service, w.arrivals);
      const MetricsSnapshot& m = r.metrics;
      EXPECT_EQ(m.total_conflicts(), m.commit_conflicts) << key;
      std::string shards, epochs;
      for (std::size_t s = 0; s < m.shards.size(); ++s) {
        shards += (s ? "," : "") + std::to_string(m.shards[s].commits) + "/" +
                  std::to_string(m.shards[s].conflicts);
        epochs += (s ? "," : "") +
                  std::to_string(service.ledger().shard_epoch(
                      static_cast<shard::RegionId>(s)));
      }
      std::ostringstream row;
      row << key << counters(m, m.total_conflicts())
          << " cross_region=" << m.cross_region_requests
          << " shards=" << shards << " cost=" << hist(m.cost)
          << " epochs=" << epochs << " sim_time=" << hex(r.simulated_time)
          << " conserved=" << r.conserved;
      ASSERT_TRUE(rows.count(key)) << key;
      EXPECT_EQ(row.str(), rows.at(key));
      ++replayed;
    }
  }
  EXPECT_EQ(replayed, 6u);
}

}  // namespace
}  // namespace dagsfc::serve
