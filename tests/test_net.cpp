// Neighbor tables, hello delivery, network integration on fixed topologies.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/presets.h"
#include "helpers.h"
#include "metrics/relative_mobility.h"
#include "mobility/mobility_model.h"
#include "net/neighbor_table.h"
#include "net/network.h"
#include "util/assert.h"
#include "util/rng.h"

namespace manet::net {
namespace {

HelloPacket hello(NodeId sender, std::uint32_t seq = 1, double weight = 0.0,
                  AdvertRole role = AdvertRole::kUndecided,
                  NodeId head = kInvalidNode) {
  HelloPacket p;
  p.sender = sender;
  p.seq = seq;
  p.weight = weight;
  p.role = role;
  p.cluster_head = head;
  return p;
}

TEST(HelloPacketTest, SerializedBytesIncludesMobilityField) {
  HelloPacket p = hello(1);
  const std::size_t base = p.serialized_bytes();
  p.neighbors = {2, 3, 4};
  EXPECT_EQ(p.serialized_bytes(), base + 12);
  // The paper: "byte overhead of the hello packets is increased by 8 bytes
  // only" — the M field.
  EXPECT_GE(base, 8u);
}

TEST(NeighborTableTest, RecordsSuccessiveReceptions) {
  NeighborTable t;
  t.on_hello(0.0, hello(3, 1), 1e-9);
  const NeighborEntry* e = t.find(3);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->has_prev);
  EXPECT_DOUBLE_EQ(e->last_rx_w, 1e-9);

  t.on_hello(2.0, hello(3, 2), 2e-9);
  e = t.find(3);
  EXPECT_TRUE(e->has_prev);
  EXPECT_DOUBLE_EQ(e->prev_rx_w, 1e-9);
  EXPECT_DOUBLE_EQ(e->last_rx_w, 2e-9);
  EXPECT_TRUE(e->has_successive_pair(3.0));
}

TEST(NeighborTableTest, GapExceedingMaxIsNotSuccessive) {
  NeighborTable t;
  t.on_hello(0.0, hello(3, 1), 1e-9);
  t.on_hello(4.0, hello(3, 3), 2e-9);  // missed a beacon: 4 s gap
  EXPECT_FALSE(t.find(3)->has_successive_pair(3.0));
  EXPECT_TRUE(t.find(3)->has_successive_pair(5.0));
}

TEST(NeighborTableTest, StoresAdvertisedState) {
  NeighborTable t;
  auto p = hello(7, 1, 12.5, AdvertRole::kHead, 7);
  p.neighbors = {1, 2, 3, 4};
  t.on_hello(1.0, p, 1e-9);
  const auto* e = t.find(7);
  EXPECT_DOUBLE_EQ(e->weight, 12.5);
  EXPECT_EQ(e->role, AdvertRole::kHead);
  EXPECT_EQ(e->cluster_head, 7u);
  EXPECT_EQ(e->degree, 4u);
}

TEST(NeighborTableTest, PurgeDropsStaleEntries) {
  NeighborTable t;
  t.on_hello(0.0, hello(1), 1e-9);
  t.on_hello(5.0, hello(2), 1e-9);
  EXPECT_EQ(t.purge(6.0, 3.0), 1u);  // node 1 last heard 6 s ago
  EXPECT_FALSE(t.contains(1));
  EXPECT_TRUE(t.contains(2));
}

TEST(NeighborTableTest, IdsAreSorted) {
  NeighborTable t;
  for (const NodeId id : {9u, 2u, 5u, 1u}) {
    t.on_hello(0.0, hello(id), 1e-9);
  }
  EXPECT_EQ(t.ids(), (std::vector<NodeId>{1, 2, 5, 9}));
  const auto entries = t.entries_by_id();
  ASSERT_EQ(entries.size(), 4u);
  EXPECT_EQ(entries.front()->id, 1u);
  EXPECT_EQ(entries.back()->id, 9u);
}

TEST(NeighborTableTest, EraseAndRejects) {
  NeighborTable t;
  t.on_hello(0.0, hello(1), 1e-9);
  EXPECT_TRUE(t.erase(1));
  EXPECT_FALSE(t.erase(1));
  EXPECT_THROW(t.on_hello(0.0, hello(kInvalidNode), 1e-9), util::CheckError);
  EXPECT_THROW(t.on_hello(0.0, hello(1), 0.0), util::CheckError);
}

TEST(NeighborTableTest, RandomOpsMatchReference) {
  struct Ref {
    sim::Time last_heard = 0.0;
    sim::Time prev_heard = 0.0;
    double last_rx_w = 0.0;
    bool has_prev = false;
    std::uint32_t seq = 0;
  };
  util::Rng rng(2024);
  NeighborTable t;
  t.reserve(40);
  std::map<NodeId, Ref> ref;
  std::vector<NodeId> ids;
  sim::Time now = 0.0;
  for (int op = 0; op < 20000; ++op) {
    now += rng.uniform(0.0, 0.2);
    const auto id = static_cast<NodeId>(rng.index(40));
    const std::size_t kind = rng.index(100);
    if (kind < 80) {
      const auto seq = static_cast<std::uint32_t>(op + 1);
      const double rx_w = rng.uniform(1e-10, 1e-8);
      t.on_hello(now, hello(id, seq), rx_w);
      auto [it, fresh] = ref.try_emplace(id);
      Ref& r = it->second;
      if (!fresh) {
        r.prev_heard = r.last_heard;
        r.has_prev = true;
      }
      r.last_heard = now;
      r.last_rx_w = rx_w;
      r.seq = seq;
    } else if (kind < 92) {
      const double timeout = rng.uniform(0.5, 4.0);
      std::size_t stale = 0;
      for (auto it = ref.begin(); it != ref.end();) {
        if (it->second.last_heard < now - timeout) {
          it = ref.erase(it);
          ++stale;
        } else {
          ++it;
        }
      }
      EXPECT_EQ(t.purge(now, timeout), stale);
    } else if (kind < 99) {
      EXPECT_EQ(t.erase(id), ref.erase(id) == 1);
    } else {
      t.clear();
      ref.clear();
    }

    ASSERT_EQ(t.size(), ref.size()) << "op " << op;
    std::vector<NodeId> want;
    auto it = ref.begin();
    for (const NeighborEntry& e : t.entries()) {
      ASSERT_EQ(e.id, it->first) << "op " << op;
      EXPECT_EQ(e.last_heard, it->second.last_heard);
      EXPECT_EQ(e.last_rx_w, it->second.last_rx_w);
      EXPECT_EQ(e.has_prev, it->second.has_prev);
      if (e.has_prev) {
        EXPECT_EQ(e.prev_heard, it->second.prev_heard);
      }
      EXPECT_EQ(e.last_seq, it->second.seq);
      want.push_back(e.id);
      ++it;
    }
    t.ids_into(ids);
    ASSERT_EQ(ids, want) << "op " << op;
    for (NodeId probe = 0; probe < 41; ++probe) {
      const NeighborEntry* e = t.find(probe);
      ASSERT_EQ(e != nullptr, ref.count(probe) == 1) << "id " << probe;
      EXPECT_EQ(t.contains(probe), e != nullptr);
      if (e != nullptr) {
        EXPECT_EQ(e->id, probe);
      }
    }
  }
}

// --- Network integration on a static pair --------------------------------

TEST(NetworkTest, NodesWithinRangeHearEachOther) {
  auto world = test::make_static_world(
      {{100.0, 100.0}, {150.0, 100.0}},  // 50 m apart
      100.0, cluster::lowest_id_lcc_options());
  world->run(10.0);
  auto& network = *world->network;
  EXPECT_TRUE(network.node(0).table().contains(1));
  EXPECT_TRUE(network.node(1).table().contains(0));
  EXPECT_GT(network.stats().hellos_delivered, 8u);
  EXPECT_DOUBLE_EQ(network.stats().mean_degree(), 1.0);
}

TEST(NetworkTest, NodesOutOfRangeDoNot) {
  auto world = test::make_static_world(
      {{100.0, 100.0}, {350.0, 100.0}},  // 250 m apart, range 100
      100.0, cluster::lowest_id_lcc_options());
  world->run(10.0);
  EXPECT_FALSE(world->network->node(0).table().contains(1));
  EXPECT_EQ(world->network->stats().hellos_delivered, 0u);
}

TEST(NetworkTest, ReceivedPowerMatchesFriis) {
  auto world = test::make_static_world(
      {{100.0, 100.0}, {180.0, 100.0}},  // 80 m
      200.0, cluster::lowest_id_lcc_options());
  world->run(6.0);
  const auto* e = world->network->node(1).table().find(0);
  ASSERT_NE(e, nullptr);
  EXPECT_NEAR(e->last_rx_w, world->network->medium().median_rx_power_w(80.0),
              1e-18);
  // Static topology: successive powers identical -> relative mobility 0.
  ASSERT_TRUE(e->has_successive_pair(3.0));
  EXPECT_DOUBLE_EQ(
      metrics::relative_mobility_db(e->last_rx_w, e->prev_rx_w), 0.0);
}

TEST(NetworkTest, TrueAdjacencyMatchesGeometry) {
  auto world = test::make_static_world(
      {{0.0, 0.0}, {90.0, 0.0}, {220.0, 0.0}}, 100.0,
      cluster::lowest_id_lcc_options());
  const auto adj = world->network->true_adjacency(0.0);
  EXPECT_EQ(adj[0], (std::vector<NodeId>{1}));
  EXPECT_EQ(adj[1], (std::vector<NodeId>{0}));  // 1-2 are 130 m apart
  EXPECT_TRUE(adj[2].empty());
  EXPECT_NEAR(world->network->distance(0, 1, 0.0), 90.0, 1e-12);
}

TEST(NetworkTest, FailedNodeIsSilentAndDeaf) {
  auto world = test::make_static_world(
      {{0.0, 0.0}, {50.0, 0.0}}, 100.0, cluster::lowest_id_lcc_options());
  world->run(6.0);
  EXPECT_TRUE(world->network->node(1).table().contains(0));

  world->network->node(0).fail();
  EXPECT_FALSE(world->network->node(0).alive());
  const auto heard_before = world->network->node(0).hellos_received();
  world->run(10.0);
  // Node 1 purged the dead neighbor; node 0 heard nothing while down.
  EXPECT_FALSE(world->network->node(1).table().contains(0));
  EXPECT_EQ(world->network->node(0).hellos_received(), heard_before);

  world->network->node(0).recover();
  world->run(10.0);
  EXPECT_TRUE(world->network->node(1).table().contains(0));
  EXPECT_GT(world->network->node(0).hellos_received(), heard_before);
}

TEST(NetworkTest, PacketLossReducesDeliveries) {
  sim::Simulator sim;
  util::Rng root(3);
  net::NetworkParams params;
  params.packet_loss = 0.5;
  net::Network network(sim, radio::make_paper_medium(100.0),
                       geom::Rect(200.0, 200.0), params,
                       root.substream("net"));
  for (NodeId i = 0; i < 2; ++i) {
    auto node = std::make_unique<Node>(
        i,
        std::make_unique<mobility::StaticModel>(
            geom::Vec2{50.0 + 20.0 * i, 50.0}),
        root.substream("node", i));
    node->set_agent(std::make_unique<cluster::WeightedClusterAgent>(
        cluster::lowest_id_lcc_options()));
    network.add_node(std::move(node));
  }
  network.start();
  sim.run_until(200.0);
  const auto& s = network.stats();
  const double loss_rate =
      static_cast<double>(s.hellos_lost) /
      static_cast<double>(s.hellos_lost + s.hellos_delivered);
  EXPECT_NEAR(loss_rate, 0.5, 0.12);
}

TEST(NetworkTest, CollisionWindowDestroysOverlappingArrivals) {
  // Three senders around one receiver with an (absurdly large) 1 s
  // collision window: only arrivals spaced > 1 s apart survive.
  sim::Simulator sim;
  util::Rng root(9);
  net::NetworkParams params;
  params.collision_window = 1.0;
  params.per_beacon_jitter = 0.2;
  net::Network network(sim, radio::make_paper_medium(100.0),
                       geom::Rect(300.0, 300.0), params,
                       root.substream("net"));
  const std::vector<geom::Vec2> pos = {
      {150.0, 150.0}, {150.0, 100.0}, {100.0, 150.0}, {200.0, 150.0}};
  for (NodeId i = 0; i < 4; ++i) {
    auto node = std::make_unique<Node>(
        i, std::make_unique<mobility::StaticModel>(pos[i]),
        root.substream("node", i));
    node->set_agent(std::make_unique<cluster::WeightedClusterAgent>(
        cluster::lowest_id_lcc_options()));
    network.add_node(std::move(node));
  }
  network.start();
  sim.run_until(100.0);
  EXPECT_GT(network.stats().hellos_collided, 10u);
  // With the window off, the same setup never collides.
  EXPECT_GT(network.stats().hellos_delivered,
            network.stats().hellos_collided);
}

TEST(NetworkTest, NoCollisionsWithIdealMac) {
  auto world = test::make_static_world(
      {{0.0, 0.0}, {30.0, 0.0}, {60.0, 0.0}}, 100.0,
      cluster::lowest_id_lcc_options());
  world->run(50.0);
  EXPECT_EQ(world->network->stats().hellos_collided, 0u);
}

TEST(NetworkTest, BeaconCadenceMatchesBroadcastInterval) {
  auto world = test::make_static_world(
      {{0.0, 0.0}, {50.0, 0.0}}, 100.0, cluster::lowest_id_lcc_options());
  world->run(20.0);
  // BI = 2 s: each node sends ~10 beacons in 20 s (plus the phase offset).
  for (NodeId i = 0; i < 2; ++i) {
    EXPECT_NEAR(world->network->node(i).beacons_sent(), 10.0, 1.0);
  }
  EXPECT_EQ(world->network->stats().beacons_sent,
            world->network->node(0).beacons_sent() +
                world->network->node(1).beacons_sent());
  EXPECT_GT(world->network->stats().bytes_sent, 0u);
}

TEST(NetworkTest, RejectsBadConfig) {
  sim::Simulator sim;
  util::Rng rng(1);
  net::NetworkParams bad;
  bad.broadcast_interval = 0.0;
  EXPECT_THROW(net::Network(sim, radio::make_paper_medium(100.0),
                            geom::Rect(10.0, 10.0), bad, rng),
               util::CheckError);
  net::NetworkParams params;
  net::Network network(sim, radio::make_paper_medium(100.0),
                       geom::Rect(10.0, 10.0), params, rng);
  // Node ids must be dense starting at 0.
  auto node = std::make_unique<Node>(
      5, std::make_unique<mobility::StaticModel>(geom::Vec2{1.0, 1.0}),
      rng.substream("n"));
  EXPECT_THROW(network.add_node(std::move(node)), util::CheckError);
  EXPECT_THROW(network.start(), util::CheckError);  // no nodes
}

TEST(NetworkTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    auto world = test::make_static_world(
        {{10.0, 10.0}, {60.0, 10.0}, {110.0, 10.0}}, 80.0,
        cluster::mobic_options(), 99);
    world->run(30.0);
    return world->network->stats().hellos_delivered;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace manet::net
