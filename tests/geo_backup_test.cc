#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "store/geo_backup.h"

namespace aec::store {
namespace {

constexpr std::size_t kBlockSize = 32;

Bytes make_content(std::size_t size, std::uint64_t seed = 3) {
  Rng rng(seed);
  return rng.random_block(size);
}

TEST(CooperativeNetwork, OnlineOfflineLifecycle) {
  CooperativeNetwork net(5);
  EXPECT_EQ(net.node_count(), 5u);
  EXPECT_TRUE(net.is_online(3));
  net.set_online(3, false);
  EXPECT_FALSE(net.is_online(3));
  EXPECT_EQ(net.online_nodes().size(), 4u);
  EXPECT_THROW(net.set_online(9, true), CheckError);
}

TEST(CooperativeNetwork, OfflineNodeRefusesIo) {
  CooperativeNetwork net(2);
  const BlockKey key = BlockKey::data(1);
  EXPECT_TRUE(net.put(0, "alice", key, Bytes{1, 2, 3}));
  net.set_online(0, false);
  EXPECT_EQ(net.get_copy(0, "alice", key), std::nullopt);
  EXPECT_FALSE(net.put(0, "alice", key, Bytes{4}));
  net.set_online(0, true);
  // The data survived offline.
  ASSERT_NE(net.get_copy(0, "alice", key), std::nullopt);
  EXPECT_EQ(*net.get_copy(0, "alice", key), (Bytes{1, 2, 3}));
}

TEST(CooperativeNetwork, UsersAreNamespaced) {
  CooperativeNetwork net(1);
  const BlockKey key = BlockKey::data(7);
  net.put(0, "alice", key, Bytes{1});
  net.put(0, "bob", key, Bytes{2});
  EXPECT_EQ(*net.get_copy(0, "alice", key), Bytes{1});
  EXPECT_EQ(*net.get_copy(0, "bob", key), Bytes{2});
  EXPECT_EQ(net.blocks_stored(0), 2u);
}

TEST(Broker, BackupSplitsAndUploadsParities) {
  CooperativeNetwork net(8);
  Broker broker("alice", CodeParams(3, 2, 5), kBlockSize, &net);
  const Bytes content = make_content(kBlockSize * 10 + 5);  // padded tail
  const auto written = broker.backup(content);
  EXPECT_EQ(written.size(), 11u);
  EXPECT_EQ(broker.blocks(), 11u);
  // All parities live on the network: 3 per block.
  std::uint64_t remote = 0;
  for (StorageNodeId n = 0; n < net.node_count(); ++n)
    remote += net.blocks_stored(n);
  EXPECT_EQ(remote, 33u);
}

TEST(Broker, LocalReadNeedsNoDecoding) {
  CooperativeNetwork net(4);
  Broker broker("alice", CodeParams(2, 2, 2), kBlockSize, &net);
  const Bytes content = make_content(kBlockSize * 4);
  broker.backup(content);
  RepairTrace trace;
  const auto block = broker.read_block(2, &trace);
  ASSERT_TRUE(block.has_value());
  EXPECT_EQ(BytesView(*block).size(), kBlockSize);
  ASSERT_EQ(trace.steps.size(), 1u);
  EXPECT_NE(trace.steps[0].find("local read"), std::string::npos);
}

TEST(Broker, RepairsLostLocalDataFromRemoteParities) {
  CooperativeNetwork net(8);
  Broker broker("alice", CodeParams(3, 2, 5), kBlockSize, &net);
  const Bytes content = make_content(kBlockSize * 12);
  broker.backup(content);

  const auto original = broker.read_block(5);
  ASSERT_TRUE(original.has_value());
  broker.lose_local_data(5);
  RepairTrace trace;
  const auto repaired = broker.read_block(5, &trace);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, *original);
  // Trace follows Table III: tuple enumeration then the XOR repair.
  EXPECT_GE(trace.steps.size(), 2u);
  EXPECT_NE(trace.steps.back().find("regenerated"), std::string::npos);
}

TEST(Broker, SurvivesNodeFailuresLikeFig5) {
  // Three unavailable nodes degrade the lattice; maintenance restores the
  // missing parities onto live nodes (re-homing).
  CooperativeNetwork net(10);
  Broker broker("alice", CodeParams(3, 2, 5), kBlockSize, &net, 99);
  broker.backup(make_content(kBlockSize * 40));

  net.set_online(1, false);
  net.set_online(4, false);
  net.set_online(7, false);

  const auto report = broker.regenerate_lattice();
  EXPECT_GT(report.parities_missing, 0u);
  EXPECT_EQ(report.unrecoverable, 0u);
  EXPECT_EQ(report.parities_repaired, report.parities_missing);

  // After regeneration, every block reads back even with nodes down.
  for (NodeIndex i = 1; i <= 40; ++i)
    EXPECT_TRUE(broker.read_block(i).has_value()) << i;
}

TEST(Broker, ReadWorksEvenDuringOutageWithoutMaintenance) {
  CooperativeNetwork net(12);
  Broker broker("alice", CodeParams(3, 2, 5), kBlockSize, &net, 7);
  broker.backup(make_content(kBlockSize * 30));
  const auto truth = broker.read_block(17);
  net.set_online(3, false);
  broker.lose_local_data(17);
  const auto value = broker.read_block(17);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, *truth);
}

TEST(Broker, MultipleLatticesCoexist) {
  // Paper: "multiple lattices coexist in the system … the system could
  // keep lattices with different settings."
  CooperativeNetwork net(6);
  Broker alice("alice", CodeParams(3, 2, 5), kBlockSize, &net, 1);
  Broker bob("bob", CodeParams(2, 2, 2), kBlockSize, &net, 2);
  alice.backup(make_content(kBlockSize * 8, 10));
  bob.backup(make_content(kBlockSize * 8, 20));

  alice.lose_local_data(3);
  bob.lose_local_data(3);
  const auto a = alice.read_block(3);
  const auto b = bob.read_block(3);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);  // different users, different content
}

TEST(Broker, BlockTableMatchesTableVShape) {
  CooperativeNetwork net(100);
  Broker broker("alice", CodeParams(3, 2, 5), kBlockSize, &net, 5);
  broker.backup(make_content(kBlockSize * 40));

  const auto rows = broker.block_table(26);
  // d26 + up to 2α parity rows (all inputs exist this deep).
  ASSERT_EQ(rows.size(), 7u);
  EXPECT_EQ(rows[0].type, "d");
  EXPECT_EQ(rows[0].i, 26);
  EXPECT_TRUE(rows[0].available);
  std::uint32_t h = 0;
  std::uint32_t rh = 0;
  std::uint32_t lh = 0;
  for (const auto& row : rows) {
    if (row.type == "h") ++h;
    if (row.type == "rh") ++rh;
    if (row.type == "lh") ++lh;
    if (row.type != "d") {
      EXPECT_GE(row.location, 0);
      EXPECT_LT(row.location, 100);
      EXPECT_TRUE(row.available);
    }
  }
  EXPECT_EQ(h, 2u);
  EXPECT_EQ(rh, 2u);
  EXPECT_EQ(lh, 2u);
}

TEST(Broker, ParityHomeIsDeterministic) {
  CooperativeNetwork net(50);
  Broker a("alice", CodeParams(2, 2, 2), kBlockSize, &net, 123);
  Broker b("alice2", CodeParams(2, 2, 2), kBlockSize, &net, 123);
  const Edge e{StrandClass::kRightHanded, 17};
  EXPECT_EQ(a.parity_home(e), b.parity_home(e));  // same seed, same map
}

}  // namespace
}  // namespace aec::store
