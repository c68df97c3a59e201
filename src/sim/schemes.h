// Registry of the redundancy schemes evaluated by the paper (Table IV)
// plus factories from codec specs — the simulation consumes the same
// aec::Codec vocabulary as the byte archive, so a spec string means one
// thing everywhere.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/codec.h"
#include "sim/ae_system.h"
#include "sim/replication_system.h"
#include "sim/rs_system.h"

namespace aec::sim {

/// The seven coded schemes of Table IV, in the paper's column order:
/// RS(10,4), RS(8,2), RS(5,5), RS(4,12), AE(1,-,-), AE(2,2,5), AE(3,2,5).
std::vector<std::unique_ptr<RedundancyScheme>> paper_schemes();

/// The replication reference lines: 2-, 3- and 4-way.
std::vector<std::unique_ptr<RedundancyScheme>> replication_schemes();

/// The disaster-simulation counterpart of a byte codec (AE, RS or REP).
std::unique_ptr<RedundancyScheme> make_scheme(const Codec& codec);

/// Parses a codec spec through make_codec() — "RS(10,4)",
/// "AE(3,2,5)", "AE(1,-,-)", "REP(3)". Throws CheckError on syntax
/// errors.
std::unique_ptr<RedundancyScheme> make_scheme(const std::string& name);

}  // namespace aec::sim
