/**
 * @file
 * Composition of multiple Elastic Routers into larger on-chip topologies
 * (Section V-B: "multiple ERs can be composed to form a larger on-chip
 * network topology, e.g., a ring or a 2-D mesh").
 *
 * Inter-router links carry their own credit loop: a link forwards a flit
 * into the downstream router only when that input port has a credit,
 * buffering (bounded by the upstream output's wormhole) otherwise — the
 * same one-credit-per-flit discipline the paper's ER uses.
 */
#pragma once

#include <memory>
#include <vector>

#include "router/elastic_router.hpp"
#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"

namespace ccsim::router {

/**
 * A credit-respecting unidirectional connection from one router's output
 * port into another router's input port.
 */
class ErLink : public FlitSink
{
  public:
    ErLink(sim::EventQueue &eq, ElasticRouter &downstream, int in_port)
        : queue(eq), er(downstream), inPort(in_port)
    {
        er.setCreditReturnFn(inPort, [this](int) { pump(); });
    }

    void acceptFlit(const Flit &flit) override
    {
        pending.push_back(flit);
        pump();
    }

    std::size_t backlog() const { return pending.size(); }

  private:
    sim::EventQueue &queue;
    ElasticRouter &er;
    int inPort;
    sim::Fifo<Flit> pending;
    bool retryArmed = false;

    void pump()
    {
        while (!pending.empty() && er.canAccept(inPort, pending.front().vc))
        {
            er.injectFlit(inPort, std::move(pending.front()));
            pending.pop_front();
        }
        if (!pending.empty() && !retryArmed) {
            // Poll at the router clock until credits free (stands in
            // for the RTL credit wire edge).
            retryArmed = true;
            queue.scheduleAfter(sim::cyclePeriod(er.config().clockMhz),
                                [this] {
                                    retryArmed = false;
                                    pump();
                                });
        }
    }
};

/**
 * A network of Elastic Routers with endpoint attachment and automatic
 * routing-table construction.
 *
 * Endpoint ids are global and dense: router r exposes endpoint slots
 * [r * endpointsPerRouter, (r+1) * endpointsPerRouter).
 */
class ErNetwork
{
  public:
    /**
     * Build a ring of @p routers routers, each with
     * @p endpoints_per_router local endpoint ports. Flits travel the
     * shorter direction around the ring.
     */
    static std::unique_ptr<ErNetwork> ring(sim::EventQueue &eq,
                                           int routers,
                                           int endpoints_per_router,
                                           ErConfig base = ErConfig{});

    /**
     * Build a @p width x @p height 2-D mesh (no wraparound) with
     * dimension-order (X then Y) routing.
     */
    static std::unique_ptr<ErNetwork> mesh(sim::EventQueue &eq, int width,
                                           int height,
                                           int endpoints_per_router,
                                           ErConfig base = ErConfig{});

    int numRouters() const { return static_cast<int>(routers.size()); }
    int numEndpoints() const
    {
        return numRouters() * endpointsPerRouter;
    }

    /** The endpoint object for a global endpoint id. */
    ErEndpoint &endpoint(int global_id)
    {
        return *endpoints.at(global_id);
    }

    ElasticRouter &router(int index) { return *routers.at(index); }

    /** Total flits currently buffered in inter-router links. */
    std::size_t linkBacklog() const;

  private:
    int endpointsPerRouter = 0;
    std::vector<std::unique_ptr<ElasticRouter>> routers;
    std::vector<std::unique_ptr<ErEndpoint>> endpoints;
    std::vector<std::unique_ptr<ErLink>> links;

    ErNetwork() = default;

    /** Wire a unidirectional link: src router port -> dst router port. */
    void connect(sim::EventQueue &eq, int src_router, int src_port,
                 int dst_router, int dst_port);
    void attachEndpoints(sim::EventQueue &eq, int endpoints_per_router);
};

}  // namespace ccsim::router
