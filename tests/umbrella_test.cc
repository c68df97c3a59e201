// The umbrella header must compile standalone and expose the core API.
#include "aec.h"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, CoreTypesReachable) {
  const aec::CodeParams params(3, 2, 5);
  aec::pipeline::ConcurrentBlockStore store;
  auto session = aec::Engine::serial()->open_session(
      aec::make_codec(params.name()), &store, 64);
  aec::Rng rng(1);
  session->append({rng.random_block(64)});
  store.erase(aec::BlockKey::data(1));
  EXPECT_TRUE(session->open_stream(1, 1, 1)->next().has_value());
  EXPECT_EQ(aec::MinimalErasureSearch::me2_closed_form(params), 11u);
  EXPECT_EQ(aec::experimental::MultiPitchLattice({1, 2}).me2_size(), 5u);
}

}  // namespace
