#include "serve/driver.hpp"

#include <cmath>
#include <deque>
#include <future>
#include <queue>
#include <thread>
#include <utility>

namespace dagsfc::serve {

namespace {

double exponential(Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform_real(0.0, 1.0));
}

/// Virtual departure: ordered by time, ties broken by request id so the
/// release order is total and reproducible.
struct Departure {
  double at = 0.0;
  RequestId id = 0;

  bool operator>(const Departure& other) const {
    return at != other.at ? at > other.at : id > other.id;
  }
};

}  // namespace

std::vector<TimedRequest> make_arrivals(Rng& rng, const net::Network& network,
                                        const sim::ExperimentConfig& base,
                                        double arrival_rate,
                                        double mean_holding_time,
                                        std::size_t count) {
  const std::size_t n = network.num_nodes();
  std::vector<TimedRequest> arrivals;
  arrivals.reserve(count);
  double now = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    now += exponential(rng, 1.0 / arrival_rate);
    TimedRequest t;
    t.at = now;
    sfc::DagSfc dag = sim::make_sfc(rng, network.catalog(), base);
    auto src = static_cast<graph::NodeId>(rng.index(n));
    auto dst = static_cast<graph::NodeId>(rng.index(n));
    if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % n);
    t.holding = exponential(rng, mean_holding_time);
    t.request.id = static_cast<RequestId>(i + 1);
    t.request.sfc = std::move(dag);
    t.request.flow = core::Flow{src, dst, base.flow_rate, base.flow_size};
    arrivals.push_back(std::move(t));
  }
  return arrivals;
}

Workload make_workload(const sim::DynamicConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  Workload w{sim::make_scenario(rng, cfg.base), {}};
  w.arrivals = make_arrivals(rng, w.scenario.network, cfg.base,
                             cfg.arrival_rate, cfg.mean_holding_time,
                             cfg.num_arrivals);
  return w;
}

void RegionalWorkloadConfig::validate() const {
  regional.validate();
  DAGSFC_CHECK(arrival_rate > 0.0);
  DAGSFC_CHECK(mean_holding_time > 0.0);
  DAGSFC_CHECK(num_arrivals >= 1);
}

RegionalWorkload make_regional_workload(const RegionalWorkloadConfig& cfg,
                                        std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  RegionalWorkload w{sim::make_regional_scenario(rng, cfg.regional), {}};
  w.arrivals = make_arrivals(rng, w.scenario.network, cfg.regional.base,
                             cfg.arrival_rate, cfg.mean_holding_time,
                             cfg.num_arrivals);
  return w;
}

DriverResult run_closed_loop(EmbeddingService& service,
                             std::span<const TimedRequest> arrivals) {
  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  DriverResult result;

  for (const TimedRequest& t : arrivals) {
    while (!departures.empty() && departures.top().at <= t.at) {
      service.release(departures.top().id);
      departures.pop();
    }
    // Closed loop: wait for this request before admitting the next, so the
    // ledger-state sequence is independent of the worker count.
    const Response resp = service.submit(t.request).get();
    if (resp.accepted()) {
      departures.push(Departure{t.at + t.holding, t.request.id});
    }
    result.simulated_time = t.at;
  }

  while (!departures.empty()) {
    service.release(departures.top().id);
    departures.pop();
  }

  result.final_epoch = service.epoch();
  result.conserved = service.ledger().residuals_nominal();
  result.metrics = service.metrics();
  return result;
}

OpenLoopResult run_open_loop(EmbeddingService& service,
                             std::span<const TimedRequest> arrivals,
                             const OpenLoopConfig& cfg) {
  DAGSFC_CHECK(cfg.producers >= 1);
  DAGSFC_CHECK(cfg.window >= 1);
  const std::size_t per_producer_load =
      std::max<std::size_t>(1, cfg.target_load / cfg.producers);

  const auto t0 = Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(cfg.producers);
  for (std::size_t p = 0; p < cfg.producers; ++p) {
    producers.emplace_back([&, p] {
      // All state is thread-local: each producer submits its stride of the
      // schedule, settles its own futures, and releases its own flows.
      std::deque<std::pair<RequestId, std::future<Response>>> pending;
      std::deque<RequestId> in_service;
      auto settle_one = [&] {
        auto [id, fut] = std::move(pending.front());
        pending.pop_front();
        const Response r = fut.get();
        if (r.accepted()) in_service.push_back(id);
        while (in_service.size() > per_producer_load) {
          service.release(in_service.front());
          in_service.pop_front();
        }
      };
      for (std::size_t i = p; i < arrivals.size(); i += cfg.producers) {
        Request req = arrivals[i].request;
        if (cfg.deadline.count() > 0) {
          req.deadline = Clock::now() + cfg.deadline;
        }
        const RequestId id = req.id;
        pending.emplace_back(id, service.submit(std::move(req)));
        if (pending.size() > cfg.window) settle_one();
      }
      while (!pending.empty()) settle_one();
      for (RequestId id : in_service) service.release(id);
    });
  }
  for (std::thread& t : producers) t.join();
  service.drain();

  OpenLoopResult result;
  result.wall_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  result.metrics = service.metrics();
  result.conserved = service.ledger().residuals_nominal();
  return result;
}

}  // namespace dagsfc::serve
