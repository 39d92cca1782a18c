#pragma once

#include <vector>

#include "aig/aig.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::aig {

/// Exhaustive simulation: truth table of every primary output over the
/// AIG's primary inputs. Requires num_pis() <= TruthTable::kMaxVars.
std::vector<tt::TruthTable> simulate(const Aig& aig);

} // namespace rcgp::aig
