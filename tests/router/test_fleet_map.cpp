// FleetMap: construction validation, deterministic placement, replica-set
// shape, distribution quality, and the minimal-disruption property that
// justifies consistent hashing in the first place.
#include "router/fleet_map.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using hsw::router::FleetMap;
using hsw::router::FleetMapConfig;
using hsw::router::ShardEndpoint;

namespace {

std::vector<ShardEndpoint> make_shards(unsigned n) {
    std::vector<ShardEndpoint> out;
    for (unsigned i = 0; i < n; ++i) {
        out.push_back({"shard" + std::to_string(i), "127.0.0.1",
                       static_cast<std::uint16_t>(7000 + i)});
    }
    return out;
}

}  // namespace

TEST(FleetMapTest, ConstructionRejectsDegenerateFleets) {
    EXPECT_THROW(FleetMap({}, {}), std::invalid_argument);

    auto dup_name = make_shards(2);
    dup_name[1].name = dup_name[0].name;
    EXPECT_THROW(FleetMap(dup_name, {}), std::invalid_argument);

    auto dup_addr = make_shards(2);
    dup_addr[1].port = dup_addr[0].port;
    EXPECT_THROW(FleetMap(dup_addr, {}), std::invalid_argument);

    FleetMapConfig no_vnodes;
    no_vnodes.vnodes = 0;
    EXPECT_THROW(FleetMap(make_shards(2), no_vnodes), std::invalid_argument);
}

TEST(FleetMapTest, ReplicasClampToShardCount) {
    FleetMapConfig cfg;
    cfg.replicas = 5;
    const FleetMap map{make_shards(2), cfg};
    EXPECT_EQ(map.replicas(), 2u);
    EXPECT_EQ(map.replica_set("anything").size(), 2u);

    cfg.replicas = 0;  // clamped up: a key always has at least its primary
    const FleetMap one{make_shards(3), cfg};
    EXPECT_EQ(one.replicas(), 1u);
}

TEST(FleetMapTest, PlacementIsDeterministicAcrossInstances) {
    // Ring placement is effectively an on-disk format: two routers built
    // from the same shard list must agree on every key, or a fleet with
    // redundant routers would split its cache locality.
    const FleetMap a{make_shards(5), {}};
    const FleetMap b{make_shards(5), {}};
    for (int i = 0; i < 500; ++i) {
        const std::string key = "key-" + std::to_string(i);
        EXPECT_EQ(a.replica_set(key), b.replica_set(key)) << key;
    }
}

TEST(FleetMapTest, ReplicaSetIsDistinctWithPrimaryFirst) {
    const FleetMap map{make_shards(4), {}};
    for (int i = 0; i < 500; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const auto set = map.replica_set(key);
        ASSERT_EQ(set.size(), 2u);
        EXPECT_NE(set[0], set[1]);
        EXPECT_EQ(set[0], map.primary(key));
        EXPECT_LT(set[0], 4u);
        EXPECT_LT(set[1], 4u);
    }
}

TEST(FleetMapTest, PrimaryDistributionIsRoughlyUniform) {
    // 150 vnodes/shard keeps per-shard key share near 1/N; the assertion
    // band (±40% of fair share) is loose enough to be hash-stable forever
    // while still catching a broken ring (all keys on one shard).
    const unsigned shards = 4;
    const FleetMap map{make_shards(shards), {}};
    std::map<std::size_t, int> owned;
    const int keys = 10000;
    for (int i = 0; i < keys; ++i) {
        owned[map.primary("spec-sha-" + std::to_string(i))]++;
    }
    ASSERT_EQ(owned.size(), shards);
    const int fair = keys / static_cast<int>(shards);
    for (const auto& [shard, count] : owned) {
        EXPECT_GT(count, fair * 6 / 10) << "shard " << shard << " starved";
        EXPECT_LT(count, fair * 14 / 10) << "shard " << shard << " overloaded";
    }
}

TEST(FleetMapTest, RemovingAShardOnlyMovesItsOwnKeys) {
    // The consistent-hashing contract: dropping shard K from the fleet
    // must not move any key whose primary was not K. (Everything K owned
    // redistributes; nothing else churns.)
    const auto five = make_shards(5);
    auto four = five;
    four.pop_back();
    const FleetMap before{five, {}};
    const FleetMap after{four, {}};

    int moved = 0, kept = 0;
    for (int i = 0; i < 2000; ++i) {
        const std::string key = "key-" + std::to_string(i);
        const std::size_t p_before = before.primary(key);
        if (p_before == 4) {
            ++moved;  // owned by the removed shard; must land elsewhere
            EXPECT_LT(after.primary(key), 4u);
        } else {
            ++kept;
            EXPECT_EQ(after.primary(key), p_before) << key;
        }
    }
    // Sanity: the removed shard owned a real share of the key space.
    EXPECT_GT(moved, 100);
    EXPECT_GT(kept, 1000);
}

TEST(FleetMapTest, PinnedRouteKeysKeepTheirReplicaSets) {
    // The keys of ProtocolTest.RouteKeyBytesArePinned, placed on a fixed
    // 3-shard ring with 2 replicas: where a query lands is part of what a
    // fleet's caches remember, so these sets never move either.
    FleetMapConfig cfg;
    cfg.replicas = 2;
    const FleetMap map{make_shards(3), cfg};
    const std::vector<std::pair<std::string, std::vector<std::size_t>>> pins = {
        {"3a86674712f769e96fa93169d1f9168a5cf26f323974df0fe2d12f35afa2ba06", {0, 1}},
        {"a8db0d69af3690992c4a75c9f94ade8d12640fbb064dcd1ca4ec49a639e59691", {0, 1}},
        {"2bcfce11e30a0cd99c36d011b3ba195fd66eb09f5d68ff96ba6a4ebf02e77af6", {1, 0}},
        {"9c60cc22ad98bb44d0a52c764d65bb17cd82f5d10ddbbc6bdc6dcc7bf1678e14", {0, 1}},
        {"4b77cb1f8d58330a2608e7dd39635d92e6a574cf0017ce9759b73168e38c8eb7", {0, 1}},
        {"57e5b6c21577d186fdd8148a7c04449145fe866b166c7ab8999c2e1705da7cc5", {0, 2}},
        {"dedf6dbb0340256a2e38691435ba25f7b501168d0c367e82e3ab2e45ef589f2a", {1, 0}},
        {"43ddf0b9f7c0d25f77e383c5f15e85fb09a25ed6585f900a6631e019c54c7ceb", {2, 0}},
        {"4c2e2b2f1af296535f90bdecb70239a4e688e509b9f058de38d3f8cd1856ecb5", {2, 0}},
        {"2cb71334b3b55f85c559e86aeb5a2849af546a8e6125366d8a80900f6e2879a4", {0, 1}},
    };
    for (const auto& [key, replicas] : pins) {
        EXPECT_EQ(map.replica_set(key), replicas) << key;
    }
}
