#include "rqfp/simulate.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "obs/metrics.hpp"
#include "rqfp/simd.hpp"

namespace rcgp::rqfp {

namespace {

void check_num_pis(unsigned nv, const char* who) {
  if (nv > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument(std::string(who) + ": too many PIs");
  }
}

/// Words one truth table over `nv` variables occupies.
std::size_t table_words(unsigned nv) {
  return nv >= 6 ? std::size_t{1} << (nv - 6) : 1;
}

/// Words the last exhaustive pass pushed through the gate kernels —
/// 3 output tables per evaluated gate (docs/SIMD.md digest).
void count_sim_words(std::uint64_t gates_evaluated, std::size_t words) {
  static obs::Counter& c_words = obs::registry().counter("sim.words");
  c_words.inc(3 * gates_evaluated * words);
}

/// Calls `f` with the row width as a compile-time constant for short rows
/// (1, 2 and 4 words) and with 0, "read the width at run time", beyond.
template <class F>
void with_row_width(std::size_t words, F&& f) {
  switch (words) {
    case 1: f(std::integral_constant<std::size_t, 1>{}); break;
    case 2: f(std::integral_constant<std::size_t, 2>{}); break;
    case 4: f(std::integral_constant<std::size_t, 4>{}); break;
    default: f(std::integral_constant<std::size_t, 0>{}); break;
  }
}

/// One RQFP gate over rows of `words` words (W = words, or 0). Short rows
/// run inline with the inputs in registers, so they pay neither the
/// kernel dispatch nor a vector kernel's scalar tail; wider rows run the
/// active tier's gate3. Both compute the scalar reference bit for bit.
template <std::size_t W>
inline void gate3_rows(const simd::Kernels& kernels, std::uint16_t config,
                       const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* c, std::uint64_t* o0,
                       std::uint64_t* o1, std::uint64_t* o2,
                       std::size_t words) {
  if constexpr (W == 0) {
    kernels.gate3(config, a, b, c, o0, o1, o2, words);
  } else {
    std::uint64_t x[W];
    std::uint64_t y[W];
    std::uint64_t z[W];
    std::copy_n(a, W, x);
    std::copy_n(b, W, y);
    std::copy_n(c, W, z);
    std::uint64_t* const out[3] = {o0, o1, o2};
    for (unsigned k = 0; k < 3; ++k) {
      std::uint64_t m[3];
      for (unsigned i = 0; i < 3; ++i) {
        m[i] = 0 - std::uint64_t{(config >> (3 * k + i)) & 1u};
      }
      for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t p = x[w] ^ m[0];
        const std::uint64_t q = y[w] ^ m[1];
        const std::uint64_t r = z[w] ^ m[2];
        out[k][w] = (p & q) | (p & r) | (q & r);
      }
    }
  }
}

template <std::size_t W>
inline bool rows_equal(const std::uint64_t* a, const std::uint64_t* b,
                       std::size_t words) {
  if constexpr (W == 0) {
    return std::equal(a, a + words, b);
  } else {
    std::uint64_t diff = 0;
    for (std::size_t w = 0; w < W; ++w) {
      diff |= a[w] ^ b[w];
    }
    return diff == 0;
  }
}

/// The gate loop of every full row simulation (build_sim_cache,
/// simulate_patterns): row p at rows + p * stride, with the constant and
/// PI rows already filled.
void simulate_rows(const Netlist& net, std::uint64_t* rows,
                   std::size_t stride, std::size_t words) {
  const auto& kernels = simd::kernels();
  with_row_width(words, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
      const auto& gate = net.gate(g);
      std::uint64_t* out = rows + net.port_of(g, 0) * stride;
      gate3_rows<W>(kernels, gate.config.bits(), rows + gate.in[0] * stride,
                    rows + gate.in[1] * stride, rows + gate.in[2] * stride,
                    out, out + stride, out + 2 * stride, words);
    }
  });
  count_sim_words(net.num_gates(), words);
}

/// Copies a row into `t` as a table over `nv` variables, reusing its
/// words; a sub-word table keeps only its 2^nv bits.
void row_to_table(const std::uint64_t* row, unsigned nv, tt::TruthTable& t) {
  // A moved-from table keeps its arity but loses its words, so check both.
  if (t.num_vars() != nv || t.num_words() != table_words(nv)) {
    t = tt::TruthTable(nv);
  }
  std::copy_n(row, t.num_words(), t.data());
  t.normalize();
}

/// Rebuilds the consumer index of `net` (CSR, see SimCache). Only forward
/// edges are indexed, as every edge of a valid netlist is, so a malformed
/// netlist cannot send the cone walk backwards.
void index_consumers(const Netlist& net, SimCache& cache) {
  const Port first_gate_port = net.num_pis() + 1;
  const auto forward = [&](Port p, std::uint32_t g) {
    return p >= first_gate_port && net.gate_of_port(p) < g;
  };
  // Counts at start[p + 2], prefix sums, then a fill that advances
  // start[p + 1] from the begin of p's range to its end.
  auto& start = cache.consumer_start;
  start.assign(std::size_t{net.first_free_port()} + 2, 0);
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (const Port p : net.gate(g).in) {
      if (forward(p, g)) {
        ++start[p + 2];
      }
    }
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  // One pad entry: the walk reads a port's first entry before it knows
  // whether the range holds one.
  cache.consumer_gate.assign(start.back() + 1, 0);
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    for (const Port p : net.gate(g).in) {
      if (forward(p, g)) {
        cache.consumer_gate[start[p + 1]++] = g;
      }
    }
  }
  start.pop_back();
}

void check_delta_shape(const Netlist& base, const Netlist& child,
                       const SimCache& cache, const char* who) {
  if (base.num_pis() != cache.num_pis ||
      base.num_gates() != cache.num_gates) {
    throw std::invalid_argument(std::string(who) +
                                ": cache was built from a different netlist "
                                "shape");
  }
  if (child.num_pis() != base.num_pis() ||
      child.num_gates() != base.num_gates()) {
    throw std::invalid_argument(std::string(who) +
                                ": netlist shapes differ (PI or gate count)");
  }
}

/// Readies the shared scratch for one child: the slots of the gates the
/// previous child (or call) evaluated point back at their base rows, and
/// there is a slot for every port and a mark bit for every gate.
void reset_scratch(DeltaBatch& s, Port ports, std::uint32_t gates) {
  for (const Port p0 : s.touched) {
    s.slot[p0] = p0;
    s.slot[p0 + 1] = p0 + 1;
    s.slot[p0 + 2] = p0 + 2;
  }
  s.touched.clear();
  if (s.slot.size() < ports) {
    const auto old = static_cast<Port>(s.slot.size());
    s.slot.resize(ports);
    std::iota(s.slot.begin() + old, s.slot.end(), old);
  }
  const std::size_t blocks = (std::size_t{gates} + 63) / 64;
  if (s.mark.size() < blocks) {
    s.mark.resize(blocks);
  }
}

/// Port p's row in the child: its overlay row once the cone changed it,
/// the base row otherwise (a select, not a branch).
inline const std::uint64_t* child_row(const DeltaBatch& s,
                                      const SimCache& cache, Port p,
                                      std::size_t words) {
  const std::uint32_t slot = s.slot[p];
  const std::uint64_t* const origin[2] = {cache.rows.data(),
                                          s.overlay.data()};
  return origin[slot >> 31] +
         std::size_t{slot & ~DeltaBatch::kOverlay} * words;
}

/// The delta engine. Marks `child`'s changed genes against `base`, then
/// walks the cone in gate order: each marked gate is evaluated into three
/// overlay rows, and each output that differs from its base row points
/// its slot there and marks the port's consumers. The walk has no
/// data-dependent branch but the pop. Returns the number of gates
/// evaluated, whose first output ports it leaves in s.touched.
template <std::size_t W>
std::uint64_t walk_cone(const Netlist& base, const Netlist& child,
                        const SimCache& cache, const simd::Kernels& kernels,
                        DeltaBatch& s) {
  const std::size_t words = W != 0 ? W : cache.words;
  const std::uint32_t n = base.num_gates();
  const auto bg = base.gates();
  const auto cg = child.gates();
  const std::size_t blocks = (std::size_t{n} + 63) / 64;
  // A field compare without branches (the defaulted Gate::operator==
  // branches on every field), gathered downwards so that no shift count
  // depends on the gate.
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto lo = static_cast<std::uint32_t>(b * 64);
    const std::uint32_t hi = std::min(lo + 64, n);
    std::uint64_t bits = 0;
    for (std::uint32_t g = hi; g-- > lo;) {
      const Netlist::Gate& x = bg[g];
      const Netlist::Gate& y = cg[g];
      const std::uint32_t diff =
          (x.in[0] ^ y.in[0]) | (x.in[1] ^ y.in[1]) | (x.in[2] ^ y.in[2]) |
          (std::uint32_t{x.config.bits()} ^ std::uint32_t{y.config.bits()});
      bits = (bits << 1) | std::uint64_t{diff != 0};
    }
    s.mark[b] = bits;
  }
  const std::uint32_t* const consumers = cache.consumer_gate.data();
  std::size_t used = 0; // overlay rows in use
  // Consumers always follow their producer, so popping the lowest mark
  // visits the cone in gate order and a word's new marks are still ahead.
  // The word being popped lives in `cur`; marks for it go there too.
  for (std::size_t b = 0; b < blocks; ++b) {
    std::uint64_t cur = s.mark[b];
    while (cur != 0) {
      const auto g = static_cast<std::uint32_t>(
          b * 64 + static_cast<unsigned>(std::countr_zero(cur)));
      cur &= cur - 1;
      if ((used + 3) * words > s.overlay.size()) {
        s.overlay.resize(std::max(2 * s.overlay.size(), (used + 3) * words));
      }
      const Netlist::Gate& gate = cg[g];
      std::uint64_t* out = s.overlay.data() + used * words;
      gate3_rows<W>(kernels, gate.config.bits(),
                    child_row(s, cache, gate.in[0], words),
                    child_row(s, cache, gate.in[1], words),
                    child_row(s, cache, gate.in[2], words), out, out + words,
                    out + 2 * words, words);
      const Port p0 = base.port_of(g, 0);
      const std::uint64_t* old = cache.row(p0);
      const auto row = static_cast<std::uint32_t>(used) | DeltaBatch::kOverlay;
      bool any = false;
      for (unsigned k = 0; k < 3; ++k) {
        // Cone cut-off: a value equal to the base one is not a change.
        const bool changed =
            !rows_equal<W>(out + k * words, old + k * words, words);
        const Port p = p0 + k;
        s.slot[p] = changed ? row + k : p;
        // The first entry is marked without a branch (the bit is 0 when the
        // port is unchanged or feeds no gate); only fan-out > 1 loops.
        const std::uint32_t first = cache.consumer_start[p];
        const std::uint32_t last = cache.consumer_start[p + 1];
        const std::uint64_t bit = changed && first != last ? 1 : 0;
        std::uint32_t i = first;
        do {
          const std::uint32_t c = consumers[i];
          s.mark[c >> 6] |= bit << (c & 63);
          cur |= (c >> 6) == b ? bit << (c & 63) : 0;
        } while (++i < last);
        any = any || changed;
      }
      s.touched.push_back(p0);
      used += any ? 3 : 0; // unchanged rows are overwritten by the next gate
    }
  }
  return s.touched.size();
}

} // namespace

std::vector<tt::TruthTable> simulate(const Netlist& net) {
  const unsigned nv = net.num_pis();
  check_num_pis(nv, "rqfp::simulate");
  const auto live = net.live_gates();
  std::vector<tt::TruthTable> port(net.first_free_port(),
                                   tt::TruthTable(nv));
  port[kConstPort] = tt::TruthTable::constant(nv, true);
  for (unsigned i = 0; i < nv; ++i) {
    port[1 + i] = tt::TruthTable::projection(nv, i);
  }
  std::uint64_t evaluated = 0;
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    if (!live[g]) {
      continue;
    }
    const auto& gate = net.gate(g);
    // Gate outputs are always-fresh ports, so writing them in place never
    // aliases the (earlier) input ports.
    eval_gate_tables_into(gate.config, port[gate.in[0]], port[gate.in[1]],
                          port[gate.in[2]], port[net.port_of(g, 0)],
                          port[net.port_of(g, 1)], port[net.port_of(g, 2)]);
    ++evaluated;
  }
  count_sim_words(evaluated, table_words(nv));
  std::vector<tt::TruthTable> out;
  out.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    out.push_back(port[net.po_at(i)]);
  }
  return out;
}

tt::TruthTable SimCache::table(Port p) const {
  tt::TruthTable t(num_pis);
  row_to_table(row(p), num_pis, t);
  return t;
}

void build_sim_cache(const Netlist& net, SimCache& cache) {
  const unsigned nv = net.num_pis();
  check_num_pis(nv, "rqfp::build_sim_cache");
  const std::size_t words = table_words(nv);
  cache.num_pis = nv;
  cache.num_gates = net.num_gates();
  cache.words = words;
  cache.rows.resize(std::size_t{net.first_free_port()} * words);
  std::fill_n(cache.rows.data(), words, ~std::uint64_t{0});
  for (unsigned i = 0; i < nv; ++i) {
    std::uint64_t* pi = cache.rows.data() + (1 + i) * words;
    for (std::size_t w = 0; w < words; ++w) {
      pi[w] = i < 6 ? tt::kProjection[i]
                    : ((w >> (i - 6)) & 1 ? ~std::uint64_t{0} : 0);
    }
  }
  simulate_rows(net, cache.rows.data(), words, words);
  index_consumers(net, cache);
}

void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache) {
  check_delta_shape(from, to, cache, "rqfp::update_sim_cache");
  DeltaBatch& scratch = cache.update_scratch;
  reset_scratch(scratch, from.first_free_port(), from.num_gates());
  std::uint64_t evaluated = 0;
  with_row_width(cache.words, [&](auto width) {
    evaluated = walk_cone<decltype(width)::value>(from, to, cache,
                                                  simd::kernels(), scratch);
  });
  // Commit: the overlay rows become the cache's rows.
  for (const Port p0 : scratch.touched) {
    for (Port p = p0; p < p0 + 3; ++p) {
      if ((scratch.slot[p] & DeltaBatch::kOverlay) != 0) {
        std::copy_n(child_row(scratch, cache, p, cache.words), cache.words,
                    cache.rows.data() + std::size_t{p} * cache.words);
      }
    }
  }
  index_consumers(to, cache);
  if (evaluated != 0) {
    count_sim_words(evaluated, cache.words);
  }
}

void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch) {
  for (const Netlist* child : children) {
    check_delta_shape(base, *child, cache, "rqfp::simulate_delta_batch");
  }
  if (batch.children.size() < children.size()) {
    batch.children.resize(children.size());
  }
  const auto& kernels = simd::kernels();
  std::uint64_t evaluated = 0;
  with_row_width(cache.words, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    for (std::size_t c = 0; c < children.size(); ++c) {
      const Netlist& child = *children[c];
      reset_scratch(batch, base.first_free_port(), base.num_gates());
      evaluated += walk_cone<W>(base, child, cache, kernels, batch);
      auto& po = batch.children[c].po;
      po.resize(child.num_pos());
      for (std::uint32_t i = 0; i < child.num_pos(); ++i) {
        row_to_table(child_row(batch, cache, child.po_at(i), cache.words),
                     cache.num_pis, po[i]);
      }
    }
  });
  if (evaluated != 0) {
    count_sim_words(evaluated, cache.words);
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po,
                       SimBatch& scratch) {
  if (pi.rows() != net.num_pis()) {
    throw std::invalid_argument(
        "rqfp::simulate_patterns: netlist has " +
        std::to_string(net.num_pis()) + " PIs but the batch has " +
        std::to_string(pi.rows()) + " rows");
  }
  const std::size_t words = pi.words();
  scratch.resize(net.first_free_port(), words);
  scratch.fill_row(kConstPort, ~std::uint64_t{0});
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    std::copy(pi.row(i), pi.row(i) + words, scratch.row(1 + i));
  }
  simulate_rows(net, scratch.row(0), scratch.stride(), words);
  po.resize(net.num_pos(), words);
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    const std::uint64_t* src = scratch.row(net.po_at(i));
    std::copy(src, src + words, po.row(i));
  }
}

void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po) {
  SimBatch scratch;
  simulate_patterns(net, pi, po, scratch);
}

std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment) {
  std::vector<std::uint64_t> port(net.first_free_port(), 0);
  port[kConstPort] = 1;
  for (unsigned i = 0; i < net.num_pis(); ++i) {
    port[1 + i] = (assignment >> i) & 1;
  }
  for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
    const auto& gate = net.gate(g);
    const auto out =
        eval_gate_words(gate.config, port[gate.in[0]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[1]] ? ~std::uint64_t{0} : 0,
                        port[gate.in[2]] ? ~std::uint64_t{0} : 0);
    for (unsigned k = 0; k < 3; ++k) {
      port[net.port_of(g, k)] = out[k] & 1;
    }
  }
  std::vector<bool> result;
  result.reserve(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    result.push_back(port[net.po_at(i)] != 0);
  }
  return result;
}

} // namespace rcgp::rqfp
