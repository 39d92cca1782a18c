#include "core/mutation.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/chromosome.hpp"

namespace rcgp::core {

void MutationMix::add(const MutationStats& s) {
  ++mutations;
  genes_changed += s.genes_changed;
  swaps += s.swaps;
  direct_assigns += s.direct_assigns;
  config_flips += s.config_flips;
  po_moves += s.po_moves;
  skipped_infeasible += s.skipped_infeasible;
}

MutationMix& MutationMix::operator+=(const MutationMix& o) {
  mutations += o.mutations;
  genes_changed += o.genes_changed;
  swaps += o.swaps;
  direct_assigns += o.direct_assigns;
  config_flips += o.config_flips;
  po_moves += o.po_moves;
  skipped_infeasible += o.skipped_infeasible;
  return *this;
}

namespace {

constexpr std::uint32_t kNoConsumer = 0xFFFFFFFFu;
constexpr std::uint32_t kPoFlag = 0x80000000u;

/// consumer[] entry for gate input (gate, slot).
std::uint32_t gate_consumer(std::uint32_t gate, unsigned slot) {
  return gate * 4 + slot;
}
std::uint32_t po_consumer(std::uint32_t po) { return kPoFlag | po; }

/// One consumer map per thread: mutate and the reconnect calls work in
/// it, so no call allocates in the steady state.
ConsumerMap& scratch_map() {
  static thread_local ConsumerMap consumer;
  return consumer;
}

/// The thread's consumer map, refilled from `net`.
ConsumerMap& consumer_map(const rqfp::Netlist& net) {
  ConsumerMap& consumer = scratch_map();
  build_consumer_map(net, consumer);
  return consumer;
}

/// Shared reconnection engine over an externally-maintained consumer map.
/// Returns the outcome; updates the map on success.
inline ReconnectOutcome reconnect_with_map(
    rqfp::Netlist& net, ConsumerMap& consumer,
    std::uint32_t me, rqfp::Port v, rqfp::Port p, bool strict) {
  auto set_gene = [&](std::uint32_t code, rqfp::Port value) {
    if (code & kPoFlag) {
      net.set_po(code & ~kPoFlag, value);
    } else {
      net.gate(code / 4).in[code % 4] = value;
    }
  };
  auto port_limit = [&](std::uint32_t code) -> rqfp::Port {
    if (code & kPoFlag) {
      return net.first_free_port();
    }
    return net.port_of(code / 4, 0);
  };

  if (p == v) {
    return ReconnectOutcome::kNoChange;
  }
  if (p == rqfp::kConstPort || consumer[p] == kNoConsumer) {
    set_gene(me, p);
    if (p != rqfp::kConstPort) {
      consumer[p] = me;
    }
    if (v != rqfp::kConstPort) {
      consumer[v] = kNoConsumer;
    }
    return ReconnectOutcome::kDirect;
  }
  const std::uint32_t partner = consumer[p];
  if (partner == me) {
    return ReconnectOutcome::kNoChange;
  }
  if (!strict) {
    set_gene(me, p);
    consumer[p] = me;
    if (v != rqfp::kConstPort) {
      consumer[v] = kNoConsumer;
    }
    return ReconnectOutcome::kDirect;
  }
  if (v >= port_limit(partner)) {
    return ReconnectOutcome::kInfeasible;
  }
  set_gene(me, p);
  set_gene(partner, v);
  consumer[p] = me;
  if (v != rqfp::kConstPort) {
    consumer[v] = partner;
  }
  return ReconnectOutcome::kSwapped;
}

} // namespace

void build_consumer_map(const rqfp::Netlist& net, ConsumerMap& consumer) {
  consumer.assign(net.first_free_port(), kNoConsumer);
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (unsigned i = 0; i < 3; ++i) {
      const rqfp::Port p = net.gate(g).in[i];
      if (p != rqfp::kConstPort) {
        consumer[p] = gate_consumer(g, i);
      }
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const rqfp::Port p = net.po_at(o);
    if (p != rqfp::kConstPort) {
      consumer[p] = po_consumer(o);
    }
  }
}

ReconnectOutcome reconnect_input(rqfp::Netlist& net, std::uint32_t g,
                                 unsigned slot, rqfp::Port target) {
  if (target >= net.port_of(g, 0)) {
    throw std::invalid_argument("reconnect_input: forward reference");
  }
  return reconnect_with_map(net, consumer_map(net), gate_consumer(g, slot),
                            net.gate(g).in[slot], target, /*strict=*/true);
}

ReconnectOutcome reconnect_po(rqfp::Netlist& net, std::uint32_t po,
                              rqfp::Port target) {
  if (target >= net.first_free_port()) {
    throw std::invalid_argument("reconnect_po: port out of range");
  }
  return reconnect_with_map(net, consumer_map(net), po_consumer(po),
                            net.po_at(po), target, /*strict=*/true);
}

namespace {

/// The mutation engine, over `consumer`, which must describe `net`.
MutationStats mutate_with_map(rqfp::Netlist& net, util::Rng& rng,
                              const MutationParams& params,
                              ConsumerMap& consumer) {
  MutationStats stats;
  const std::uint32_t n_genes = num_genes(net);

  /// Reconnects gene `me` (currently holding `v`) to port `p`, applying
  /// the paper's swap rule; folds the outcome into the stats.
  auto reconnect = [&](std::uint32_t me, rqfp::Port v, rqfp::Port p,
                       bool strict) -> bool {
    switch (reconnect_with_map(net, consumer, me, v, p, strict)) {
      case ReconnectOutcome::kNoChange:
        return false;
      case ReconnectOutcome::kDirect:
        ++stats.direct_assigns;
        return true;
      case ReconnectOutcome::kSwapped:
        ++stats.swaps;
        return true;
      case ReconnectOutcome::kInfeasible:
        ++stats.skipped_infeasible;
        return false;
    }
    return false;
  };

  const auto budget = static_cast<std::uint64_t>(
      std::max(1.0, params.mu * static_cast<double>(n_genes)));
  const std::uint64_t m = 1 + rng.below(budget);

  for (std::uint64_t round = 0; round < m; ++round) {
    const auto index = static_cast<std::uint32_t>(rng.below(n_genes));
    const GeneRef ref = gene_at(net, index);
    switch (ref.kind) {
      case GeneRef::Kind::kGateConfig: {
        const auto beta = static_cast<unsigned>(rng.below(9));
        auto& gate = net.gate(ref.gate);
        gate.config = gate.config.with_flip(beta);
        ++stats.config_flips;
        ++stats.genes_changed;
        break;
      }
      case GeneRef::Kind::kGateInput: {
        const std::uint32_t me = gate_consumer(ref.gate, ref.slot);
        const rqfp::Port limit = net.port_of(ref.gate, 0);
        const auto p = static_cast<rqfp::Port>(rng.below(limit));
        const rqfp::Port v = net.gate(ref.gate).in[ref.slot];
        if (reconnect(me, v, p, /*strict=*/true)) {
          ++stats.genes_changed;
        }
        break;
      }
      case GeneRef::Kind::kPrimaryOutput: {
        const std::uint32_t me = po_consumer(ref.po);
        const auto p =
            static_cast<rqfp::Port>(rng.below(net.first_free_port()));
        const rqfp::Port v = net.po_at(ref.po);
        if (reconnect(me, v, p, params.strict_po_swap)) {
          ++stats.po_moves;
          ++stats.genes_changed;
        }
        break;
      }
    }
  }
  return stats;
}

} // namespace

MutationStats mutate(rqfp::Netlist& net, util::Rng& rng,
                     const MutationParams& params) {
  if (num_genes(net) == 0) {
    return {};
  }
  return mutate_with_map(net, rng, params, consumer_map(net));
}

MutationStats mutate(rqfp::Netlist& net, util::Rng& rng,
                     const MutationParams& params,
                     const ConsumerMap& consumers) {
  if (consumers.size() != net.first_free_port()) {
    throw std::invalid_argument(
        "mutate: consumer map does not match the netlist's port count");
  }
  if (num_genes(net) == 0) {
    return {};
  }
  ConsumerMap& consumer = scratch_map();
  consumer.assign(consumers.begin(), consumers.end());
  return mutate_with_map(net, rng, params, consumer);
}

} // namespace rcgp::core
