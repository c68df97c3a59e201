#include "sim/schemes.h"

#include "common/check.h"

namespace aec::sim {

std::vector<std::unique_ptr<RedundancyScheme>> paper_schemes() {
  std::vector<std::unique_ptr<RedundancyScheme>> schemes;
  schemes.push_back(make_rs_scheme(10, 4));
  schemes.push_back(make_rs_scheme(8, 2));
  schemes.push_back(make_rs_scheme(5, 5));
  schemes.push_back(make_rs_scheme(4, 12));
  schemes.push_back(make_ae_scheme(CodeParams::single()));
  schemes.push_back(make_ae_scheme(CodeParams(2, 2, 5)));
  schemes.push_back(make_ae_scheme(CodeParams(3, 2, 5)));
  return schemes;
}

std::vector<std::unique_ptr<RedundancyScheme>> replication_schemes() {
  std::vector<std::unique_ptr<RedundancyScheme>> schemes;
  for (std::uint32_t n : {2u, 3u, 4u})
    schemes.push_back(make_replication_scheme(n));
  return schemes;
}

std::unique_ptr<RedundancyScheme> make_scheme(const Codec& codec) {
  if (const auto* ae = dynamic_cast<const AeCodec*>(&codec))
    return make_ae_scheme(ae->params());
  if (const auto* rs = dynamic_cast<const RsCodec*>(&codec))
    return make_rs_scheme(rs->data_parts(), rs->parity_parts());
  if (const auto* rep = dynamic_cast<const ReplicationCodec*>(&codec))
    return make_replication_scheme(rep->copies());
  AEC_CHECK_MSG(false, "codec " << codec.id() << " has no simulation scheme");
  return nullptr;
}

std::unique_ptr<RedundancyScheme> make_scheme(const std::string& name) {
  // The codec registry: one parser for the byte archive and the
  // simulation.
  return make_scheme(*make_codec(name));
}

}  // namespace aec::sim
