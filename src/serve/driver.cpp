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

bool residuals_nominal(const net::CapacityLedger& ledger,
                       const net::Network& net) {
  for (graph::EdgeId e = 0; e < net.num_links(); ++e) {
    if (std::abs(ledger.link_residual(e) - net.link_capacity(e)) > 1e-6) {
      return false;
    }
  }
  for (net::InstanceId i = 0; i < net.num_instances(); ++i) {
    if (std::abs(ledger.instance_residual(i) - net.instance(i).capacity) >
        1e-6) {
      return false;
    }
  }
  return true;
}

}  // namespace

Workload make_workload(const sim::DynamicConfig& cfg, std::uint64_t seed) {
  cfg.validate();
  Rng rng(seed);
  Workload w{sim::make_scenario(rng, cfg.base), {}};
  w.arrivals.reserve(cfg.num_arrivals);
  double now = 0.0;
  for (std::size_t i = 0; i < cfg.num_arrivals; ++i) {
    now += exponential(rng, 1.0 / cfg.arrival_rate);
    TimedRequest t;
    t.at = now;
    sfc::DagSfc dag =
        sim::make_sfc(rng, w.scenario.network.catalog(), cfg.base);
    auto src = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    auto dst = static_cast<graph::NodeId>(rng.index(cfg.base.network_size));
    if (dst == src) {
      dst = static_cast<graph::NodeId>((dst + 1) % cfg.base.network_size);
    }
    t.holding = exponential(rng, cfg.mean_holding_time);
    t.request.id = static_cast<RequestId>(i + 1);
    t.request.sfc = std::move(dag);
    t.request.flow =
        core::Flow{src, dst, cfg.base.flow_rate, cfg.base.flow_size};
    w.arrivals.push_back(std::move(t));
  }
  return w;
}

DriverResult run_closed_loop(const Workload& workload,
                             const core::Embedder& embedder,
                             std::size_t workers,
                             const AdmissionPolicy& admission,
                             std::uint64_t seed, const ServiceTuning& tuning) {
  EmbeddingService::Options opts;
  opts.workers = workers;
  opts.admission = admission;
  opts.seed = seed;
  opts.slow_solve_threshold = tuning.slow_solve_threshold;
  opts.watchdog_period = tuning.watchdog_period;
  opts.tracing = tuning.tracing;
  EmbeddingService service(workload.scenario.network, embedder, opts);
  if (tuning.on_start) tuning.on_start(service);

  std::priority_queue<Departure, std::vector<Departure>, std::greater<>>
      departures;
  DriverResult result;

  for (const TimedRequest& t : workload.arrivals) {
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

  const net::CapacityLedger drained = service.ledger_snapshot();
  result.final_epoch = drained.epoch();
  result.conserved =
      residuals_nominal(drained, workload.scenario.network);
  result.metrics = service.metrics();
  if (tuning.on_finish) tuning.on_finish(service);
  return result;
}

OpenLoopResult run_open_loop(const Workload& workload,
                             const core::Embedder& embedder,
                             const OpenLoopConfig& cfg) {
  DAGSFC_CHECK(cfg.producers >= 1);
  DAGSFC_CHECK(cfg.window >= 1);
  EmbeddingService::Options opts;
  opts.workers = cfg.workers;
  opts.admission = cfg.admission;
  opts.seed = cfg.seed;
  opts.slow_solve_threshold = cfg.tuning.slow_solve_threshold;
  opts.watchdog_period = cfg.tuning.watchdog_period;
  opts.tracing = cfg.tuning.tracing;
  EmbeddingService service(workload.scenario.network, embedder, opts);
  if (cfg.tuning.on_start) cfg.tuning.on_start(service);

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
      for (std::size_t i = p; i < workload.arrivals.size();
           i += cfg.producers) {
        Request req = workload.arrivals[i].request;
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
  result.conserved =
      residuals_nominal(service.ledger_snapshot(), workload.scenario.network);
  if (cfg.tuning.on_finish) cfg.tuning.on_finish(service);
  return result;
}

}  // namespace dagsfc::serve
