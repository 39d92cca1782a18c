#include "mig/mig_resub.hpp"

#include <unordered_map>
#include <vector>

#include "tt/truth_table.hpp"

namespace rcgp::mig {

Mig mig_resubstitute(const Mig& input, ResubStats* stats) {
  Mig net = input.cleanup();
  ResubStats local;
  local.nodes_before = net.count_live_majs();

  if (net.num_pis() <= 14) { // keep tables cheap
    // Per-node functions as exhaustive tables.
    std::vector<tt::TruthTable> table(
        net.num_nodes(), tt::TruthTable::constant(net.num_pis(), false));
    for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
      table[net.pi_at(i)] = tt::TruthTable::projection(net.num_pis(), i);
    }
    for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
      if (!net.is_maj(n)) {
        continue;
      }
      tt::TruthTable in[3];
      for (unsigned i = 0; i < 3; ++i) {
        const Signal f = net.fanin(n, i);
        in[i] = f.complemented() ? ~table[f.node()] : table[f.node()];
      }
      table[n] = tt::TruthTable::majority(in[0], in[1], in[2]);
    }

    // Map from phase-normalized function key to the first node computing
    // it.
    auto key_of = [&](std::uint32_t n, bool& phase) -> std::uint64_t {
      phase = table[n].bit(0);
      const auto t = phase ? ~table[n] : table[n];
      return t.hash();
    };
    std::unordered_map<std::uint64_t, std::uint32_t> leader;
    for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
      if (!net.is_maj(n) || net.is_replaced(n)) {
        continue;
      }
      bool phase_n = false;
      const auto key = key_of(n, phase_n);
      const auto it = leader.find(key);
      if (it == leader.end()) {
        leader[key] = n;
        continue;
      }
      ++local.candidates;
      bool phase_l = false;
      key_of(it->second, phase_l);
      const bool complemented = phase_n != phase_l;
      if (table[n] !=
          (complemented ? ~table[it->second] : table[it->second])) {
        continue; // a hash collision
      }
      net.replace(n, Signal(it->second, complemented));
      ++local.resubstituted;
    }
  }

  Mig out = net.cleanup();
  local.nodes_after = out.count_live_majs();
  if (stats) {
    *stats = local;
  }
  return out;
}

} // namespace rcgp::mig
