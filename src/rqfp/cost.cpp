#include "rqfp/cost.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace rcgp::rqfp {

namespace {

obs::Counter& cost_full_recomputes() {
  static obs::Counter& c =
      obs::registry().counter("evolve.cost.full_recomputes");
  return c;
}
obs::Counter& cost_delta_updates() {
  static obs::Counter& c =
      obs::registry().counter("evolve.cost.delta_updates");
  return c;
}
obs::Gauge& cost_scratch_bytes() {
  static obs::Gauge& g = obs::registry().gauge("evolve.cost.scratch_bytes");
  return g;
}

/// In-place liveness marking: the zero-copy replacement for
/// remove_dead_gates(). A gate is live when one of its outputs reaches a
/// PO through consumed edges. Returns the live-gate count (n_r).
std::uint32_t mark_live(const Netlist& net, std::vector<std::uint8_t>& live,
                        std::vector<std::uint32_t>& stack) {
  live.assign(net.num_gates(), 0);
  stack.clear();
  std::uint32_t n_live = 0;
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    const Port p = net.po_at(o);
    if (net.is_gate_port(p)) {
      const std::uint32_t g = net.gate_of_port(p);
      if (!live[g]) {
        live[g] = 1;
        ++n_live;
        stack.push_back(g);
      }
    }
  }
  while (!stack.empty()) {
    const std::uint32_t g = stack.back();
    stack.pop_back();
    for (const Port p : net.gate(g).in) {
      if (net.is_gate_port(p)) {
        const std::uint32_t src = net.gate_of_port(p);
        if (!live[src]) {
          live[src] = 1;
          ++n_live;
          stack.push_back(src);
        }
      }
    }
  }
  return n_live;
}

/// Cost of the live subnetwork of `net` given its mask and ASAP levels.
/// Matches cost_of on remove_dead_gates(): live gates read only live
/// inputs, so their levels, garbage counts, and buffer edges coincide
/// with the dead-gate-free copy's.
Cost measure_masked(const Netlist& net, const std::vector<std::uint8_t>& live,
                    const std::vector<std::uint32_t>& level,
                    std::uint32_t n_live, CostCache& cache) {
  Cost c;
  c.n_d = net.depth(level); // PO drivers are live by construction
  c.n_r = n_live;
  cache.fanout.assign(net.first_free_port(), 0);
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!live[g]) {
      continue; // edges into dead gates do not consume live outputs
    }
    for (const Port p : net.gate(g).in) {
      ++cache.fanout[p];
    }
  }
  for (std::uint32_t o = 0; o < net.num_pos(); ++o) {
    ++cache.fanout[net.po_at(o)];
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!live[g]) {
      continue;
    }
    for (unsigned k = 0; k < 3; ++k) {
      if (cache.fanout[net.port_of(g, k)] == 0) {
        ++c.n_g;
      }
    }
  }
  c.n_b = live_buffer_total(net, live, level, c.n_d);
  c.jjs = kJjsPerGate * c.n_r + kJjsPerBuffer * c.n_b;
  return c;
}

void check_delta_shapes(const Netlist& base, const Netlist& child,
                        const CostCache& cache, const char* who) {
  if (!cache.valid) {
    throw std::invalid_argument(std::string(who) +
                                ": cache not built (call build_cost_cache)");
  }
  if (cache.num_pis != base.num_pis() ||
      cache.num_gates != base.num_gates() ||
      cache.num_pos != base.num_pos()) {
    throw std::invalid_argument(std::string(who) +
                                ": cache shape does not match base netlist");
  }
  if (base.num_pis() != child.num_pis() ||
      base.num_gates() != child.num_gates() ||
      base.num_pos() != child.num_pos()) {
    throw std::invalid_argument(std::string(who) +
                                ": base/child shape mismatch (CGP mutation "
                                "preserves PI/gate/PO counts)");
  }
}

/// Shared delta engine. `first_topo` is the lowest gate index whose
/// inputs changed (num_gates when none did) and `live_changed` whether
/// any such gate is live in the base; `commit` swaps the child's
/// analysis in as the cache's new base state.
Cost delta_impl(const Netlist& base, const Netlist& child,
                std::uint32_t first_topo, bool live_changed, CostCache& cache,
                bool commit) {
  const std::uint32_t n = base.num_gates();
  bool po_changed = false;
  for (std::uint32_t o = 0; o < base.num_pos(); ++o) {
    if (base.po_at(o) != child.po_at(o)) {
      po_changed = true;
      break;
    }
  }
  if (!live_changed && !po_changed) {
    // Inverter-config-only mutation (cost is topology-only), or a dirty
    // cone confined to dead gates: rewiring a dead gate's inputs cannot
    // change the liveness mask (liveness flows from POs through live
    // consumers only) nor any live edge, so the cached cost stands — the
    // CGP neutral-drift case.
    cost_delta_updates().inc();
    if (commit && first_topo < n) {
      // Keep the cached levels correct for *every* gate: a later mutation
      // may revive a gate from this dead cone, and the next delta's level
      // prefix reuse assumes the whole vector describes the base. The
      // in-place forward sweep is safe — inputs precede their gate.
      for (std::uint32_t g = first_topo; g < n; ++g) {
        std::uint32_t m = 0;
        for (const Port p : child.gate(g).in) {
          if (child.is_gate_port(p)) {
            m = std::max(m, cache.level[child.gate_of_port(p)]);
          }
        }
        cache.level[g] = m + 1;
      }
    }
    return cache.base_cost;
  }

  const std::uint32_t n_live = mark_live(child, cache.child_live, cache.stack);
  // Delta level maintenance: feed-forward ordering means ASAP levels
  // before the first input change are unchanged; only the suffix is
  // recomputed.
  cache.child_level.resize(n);
  std::copy(cache.level.begin(), cache.level.begin() + first_topo,
            cache.child_level.begin());
  for (std::uint32_t g = first_topo; g < n; ++g) {
    std::uint32_t m = 0;
    for (const Port p : child.gate(g).in) {
      if (child.is_gate_port(p)) {
        m = std::max(m, cache.child_level[child.gate_of_port(p)]);
      }
    }
    cache.child_level[g] = m + 1;
  }
  const Cost c = measure_masked(child, cache.child_live, cache.child_level,
                                n_live, cache);
  cost_delta_updates().inc();
  if (commit) {
    cache.live.swap(cache.child_live);
    cache.level.swap(cache.child_level);
    cache.base_cost = c;
  }
  return c;
}

} // namespace

std::size_t CostCache::scratch_bytes() const {
  return (live.capacity() + child_live.capacity()) * sizeof(std::uint8_t) +
         (level.capacity() + child_level.capacity() + stack.capacity() +
          fanout.capacity()) *
             sizeof(std::uint32_t);
}

std::string Cost::to_string() const {
  return "n_r=" + std::to_string(n_r) + " n_b=" + std::to_string(n_b) +
         " JJs=" + std::to_string(jjs) + " n_d=" + std::to_string(n_d) +
         " n_g=" + std::to_string(n_g);
}

Cost build_cost_cache(const Netlist& net, BufferSchedule /*schedule*/,
                      CostCache& cache) {
  const std::uint32_t n_live = mark_live(net, cache.live, cache.stack);
  net.gate_levels(cache.level);
  const Cost c = measure_masked(net, cache.live, cache.level, n_live, cache);
  cache.num_pis = net.num_pis();
  cache.num_gates = net.num_gates();
  cache.num_pos = net.num_pos();
  cache.base_cost = c;
  cache.valid = true;
  cost_full_recomputes().inc();
  cost_scratch_bytes().set(static_cast<double>(cache.scratch_bytes()));
  return c;
}

namespace {

/// Diff scan: lowest gate whose inputs changed (into `first_topo`) and
/// whether any such gate is live in the cached base. Stops as soon as
/// both answers are settled.
bool scan_topo_diff(const Netlist& base, const Netlist& child,
                    const CostCache& cache, std::uint32_t& first_topo) {
  const std::uint32_t n = base.num_gates();
  first_topo = n;
  for (std::uint32_t g = 0; g < n; ++g) {
    if (base.gate(g).in != child.gate(g).in) {
      if (first_topo == n) {
        first_topo = g;
      }
      if (cache.live[g]) {
        return true;
      }
    }
  }
  return false;
}

} // namespace

Cost cost_of_delta(const Netlist& base, const Netlist& child,
                   CostCache& cache) {
  check_delta_shapes(base, child, cache, "rqfp::cost_of_delta");
  std::uint32_t first_topo = 0;
  const bool live_changed = scan_topo_diff(base, child, cache, first_topo);
  return delta_impl(base, child, first_topo, live_changed, cache,
                    /*commit=*/false);
}

Cost update_cost_cache(const Netlist& from, const Netlist& to,
                       CostCache& cache) {
  check_delta_shapes(from, to, cache, "rqfp::update_cost_cache");
  std::uint32_t first_topo = 0;
  const bool live_changed = scan_topo_diff(from, to, cache, first_topo);
  return delta_impl(from, to, first_topo, live_changed, cache,
                    /*commit=*/true);
}

Cost cost_of(const Netlist& net) {
  // One warm cache per thread: callers outside the evolutionary loop
  // (flow reporting, the CLI, anneal_energy) also skip the historical
  // remove_dead_gates() copy and steady-state allocations.
  static thread_local CostCache tl_cache;
  return build_cost_cache(net, BufferSchedule::kAsap, tl_cache);
}

std::uint32_t garbage_lower_bound(unsigned num_pis, unsigned num_pos) {
  return num_pis > num_pos ? num_pis - num_pos : 0;
}

} // namespace rcgp::rqfp
