// StoreRegistry error paths (unknown families, malformed arguments,
// nested-spec garbage), spec-durability classification, and the
// observer contract on erase of absent keys — no event may fire for a
// mutation that did not happen.
#include <gtest/gtest.h>

#include <filesystem>

#include "cluster/cluster_store.h"
#include "common/check.h"
#include "core/codec/file_block_store.h"
#include "core/codec/store_registry.h"

namespace aec {
namespace {

namespace fs = std::filesystem;

class StoreRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("aec_registry_test_" +
             std::to_string(
                 ::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name());
    fs::remove_all(base_);
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path dir(const char* leaf) const { return base_ / leaf; }

  fs::path base_;
};

TEST_F(StoreRegistryTest, ParseAcceptsNestedSpecs) {
  const StoreSpec spec = parse_store_spec("cluster(4,strand,sharded(8),7)");
  EXPECT_EQ(spec.family, "cluster");
  ASSERT_EQ(spec.args.size(), 4u);
  EXPECT_EQ(spec.args[0], "4");
  EXPECT_EQ(spec.args[1], "strand");
  EXPECT_EQ(spec.args[2], "sharded(8)");
  EXPECT_EQ(spec.args[3], "7");
  EXPECT_EQ(store_spec_uint(spec, 0), 4u);
  EXPECT_THROW(store_spec_uint(spec, 1), CheckError);  // not numeric
  EXPECT_THROW(store_spec_uint(spec, 9), CheckError);  // out of range
}

TEST_F(StoreRegistryTest, ParseRejectsMalformedSpecs) {
  for (const char* spec :
       {"", "(8)", "file(", "file)", "sharded(8", "sharded(8))",
        "sharded()", "sharded(,)", "sharded(8,)", "sharded( 8 )",
        "cluster(4,strand", "cluster(4,strand,sharded(8)",
        "cluster(4,strand,sharded)8)", "bad-family(1)", "file junk"})
    EXPECT_THROW(parse_store_spec(spec), CheckError) << spec;
}

TEST_F(StoreRegistryTest, MakeRejectsUnknownFamiliesAndBadArguments) {
  const fs::path root = dir("s");
  // Unknown backend families.
  EXPECT_THROW(make_store("tape(3)", root), CheckError);
  EXPECT_THROW(make_store("nosuch", root), CheckError);
  // Malformed shard counts.
  EXPECT_THROW(make_store("sharded(0)", root), CheckError);
  EXPECT_THROW(make_store("sharded(9999)", root), CheckError);
  EXPECT_THROW(make_store("sharded(abc)", root), CheckError);
  EXPECT_THROW(make_store("sharded(8,8)", root), CheckError);
  // Arguments on argument-free families.
  EXPECT_THROW(make_store("mem(1)", root), CheckError);
  EXPECT_THROW(make_store("file(1)", root), CheckError);
  // Cluster spec garbage: arity, node bounds, bogus policy, unknown or
  // nested-cluster children, non-numeric seed.
  EXPECT_THROW(make_store("cluster", root), CheckError);
  EXPECT_THROW(make_store("cluster(4)", root), CheckError);
  EXPECT_THROW(make_store("cluster(4,strand)", root), CheckError);
  EXPECT_THROW(make_store("cluster(1,strand,file)", root), CheckError);
  EXPECT_THROW(make_store("cluster(4097,strand,file)", root), CheckError);
  EXPECT_THROW(make_store("cluster(4,bogus,file)", root), CheckError);
  EXPECT_THROW(make_store("cluster(4,strand,tape(3))", root), CheckError);
  EXPECT_THROW(make_store("cluster(4,strand,cluster(2,rr,file))", root),
               CheckError);
  EXPECT_THROW(make_store("cluster(4,strand,file,seed)", root), CheckError);
  // Nothing above may have left a directory behind a throwing factory's
  // syntax checks… the cluster child check runs before node dirs exist.
  EXPECT_FALSE(fs::exists(root / "node0"));
}

TEST_F(StoreRegistryTest, MakeBuildsEveryRegisteredShape) {
  EXPECT_NE(make_store("mem", dir("m")), nullptr);
  EXPECT_NE(make_store("file", dir("f")), nullptr);
  EXPECT_NE(make_store("sharded(4)", dir("s")), nullptr);
  const auto clustered = make_store("cluster(2,rr,sharded(2),5)", dir("c"));
  ASSERT_NE(clustered, nullptr);
  const auto* cluster =
      dynamic_cast<const cluster::ClusterStore*>(clustered.get());
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->node_count(), 2u);
  EXPECT_EQ(cluster->policy(), cluster::PlacementPolicy::kRoundRobin);
  EXPECT_EQ(cluster->child_spec(), "sharded(2)");
  EXPECT_EQ(cluster->placement_seed(), 5u);
  EXPECT_TRUE(cluster->thread_safe());
}

TEST_F(StoreRegistryTest, DurabilityClassifiesMemAnywhere) {
  EXPECT_FALSE(store_spec_is_durable("mem"));
  EXPECT_TRUE(store_spec_is_durable("file"));
  EXPECT_TRUE(store_spec_is_durable("sharded(8)"));
  EXPECT_TRUE(store_spec_is_durable("cluster(4,strand,file)"));
  EXPECT_TRUE(store_spec_is_durable("cluster(4,strand,sharded(8),3)"));
  EXPECT_FALSE(store_spec_is_durable("cluster(4,strand,mem)"));
}

// --- observer contract: erase of an absent key fires no event ---------------

class RecordingObserver final : public BlockStore::Observer {
 public:
  void on_block(const BlockKey& key, bool present) override {
    (void)key;
    ++(present ? puts_ : erases_);
  }
  int puts_ = 0;
  int erases_ = 0;
};

TEST_F(StoreRegistryTest, EraseOfAbsentKeyNotifiesNoObserver) {
  int built = 0;
  for (const char* spec :
       {"mem", "file", "sharded(2)", "cluster(2,rr,file)"}) {
    const auto store =
        make_store(spec, dir(("obs" + std::to_string(built++)).c_str()));
    RecordingObserver observer;
    store->set_observer(&observer);
    // Erasing what was never stored is a no-op: no event, false result.
    EXPECT_FALSE(store->erase(BlockKey::data(42))) << spec;
    EXPECT_EQ(observer.puts_, 0) << spec;
    EXPECT_EQ(observer.erases_, 0) << spec;
    // The real mutations notify exactly once each.
    store->put(BlockKey::data(42), Bytes{1});
    EXPECT_TRUE(store->erase(BlockKey::data(42))) << spec;
    EXPECT_EQ(observer.puts_, 1) << spec;
    EXPECT_EQ(observer.erases_, 1) << spec;
    // And erasing it again is silent again.
    EXPECT_FALSE(store->erase(BlockKey::data(42))) << spec;
    EXPECT_EQ(observer.erases_, 1) << spec;
  }
}

}  // namespace
}  // namespace aec
