// One node of the simulated multiprocessor: cache controller + home
// controller behind a single network sink.
#pragma once

#include "obs/host_perf.hpp"
#include "proto/protocol.hpp"

#include <memory>

namespace ccsim::proto {

class Node final : public net::MessageSink {
public:
  Node(Protocol p, NodeId id, ProtocolContext& ctx, std::size_t cache_bytes)
      : cache_ctrl_(make_cache_controller(p, id, ctx, cache_bytes)),
        home_ctrl_(make_home_controller(p, id, ctx)),
        host_(ctx.host) {}

  void deliver(const net::Message& msg) override {
    // Host telemetry: everything below is protocol-handler work.
    obs::ScopedHostCat t(host_, obs::HostCat::Protocol);
    if (is_home_bound(msg.type))
      home_ctrl_->on_message(msg);
    else
      cache_ctrl_->on_message(msg);
  }

  [[nodiscard]] CacheController& cache_ctrl() noexcept { return *cache_ctrl_; }

private:
  std::unique_ptr<CacheController> cache_ctrl_;
  std::unique_ptr<HomeController> home_ctrl_;
  obs::HostPerfCollector* host_;  ///< null unless host metrics are on
};

} // namespace ccsim::proto
