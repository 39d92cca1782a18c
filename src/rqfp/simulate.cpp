#include "rqfp/simulate.hpp"

#include <algorithm>
#include <bit>
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

/// The gate loop of build_sim_cache: row p at rows + p * words, with the
/// constant and PI rows already filled.
void simulate_rows(const Netlist& net, std::uint64_t* rows,
                   std::size_t words) {
  const auto& kernels = simd::kernels();
  with_row_width(words, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    for (std::uint32_t g = 0; g < net.num_gates(); ++g) {
      const auto& gate = net.gate(g);
      std::uint64_t* out = rows + net.port_of(g, 0) * words;
      gate3_rows<W>(kernels, gate.config.bits(), rows + gate.in[0] * words,
                    rows + gate.in[1] * words, rows + gate.in[2] * words,
                    out, out + words, out + 2 * words, words);
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

/// Sizes the pass's scratch for `net`: a flag per port and
/// `overlay_words` of rows. Constant and PI ports never change, so their
/// flags are cleared here; every gate port's flag is written by its gate
/// before any consumer reads it, so children need no reset between them.
void ready_scratch(DeltaBatch& s, const Netlist& net,
                   std::size_t overlay_words) {
  if (s.changed.size() < net.first_free_port()) {
    s.changed.resize(net.first_free_port());
  }
  std::fill_n(s.changed.begin(), net.num_pis() + 1, 0);
  if (s.overlay.size() < overlay_words) {
    s.overlay.resize(overlay_words);
  }
}

/// What a forward pass did: the gates it evaluated, and the differing
/// bits of the PO check it stopped at (0 when it ran to the end).
struct PassResult {
  std::uint64_t evaluated = 0;
  std::uint64_t mismatches = 0;
};

/// The delta engine: one pass over the gates of `child` in index order
/// against `base`, whose rows `rows` holds. Rows are `stride` words apart
/// (S, or row_words when S is 0) and the kernels run on the first W words
/// of each (row_words when W is 0), so the whole row or only its word 0.
/// Gate g is evaluated iff its gene differs from the base's or one of its
/// input ports changed; port p reads dense + p * stride once changed,
/// rows + p * stride otherwise (a select, not a branch). Without kCommit
/// the outputs go to their rows of the dense overlay and `rows` is only
/// read. With kCommit, `dense` is `rows` itself: outputs go to
/// s.overlay's first three rows and are committed in place, which is safe
/// because a gate's inputs precede it. An output equal to its base row,
/// over the words simulated, is no change. `checks`, sorted by port, are
/// compared with word 0 under `mask` as soon as their port has its value;
/// the pass returns at the first that differs.
template <std::size_t W, bool kCommit, std::size_t S = W>
PassResult forward_pass(const Netlist& base, const Netlist& child,
                        const std::uint64_t* rows, std::uint64_t* dense,
                        std::size_t row_words, const simd::Kernels& kernels,
                        DeltaBatch& s,
                        std::span<const DeltaBatch::PoCheck> checks = {},
                        std::uint64_t mask = 0) {
  const std::size_t stride = S != 0 ? S : row_words;
  const std::size_t words = W != 0 ? W : row_words;
  const auto bg = base.gates();
  const auto cg = child.gates();
  std::uint8_t* const changed = s.changed.data();
  const std::uint64_t* const origin[2] = {rows, dense};
  const auto in_row = [&](Port p) { return origin[changed[p]] + p * stride; };
  const DeltaBatch::PoCheck* next = checks.data();
  const DeltaBatch::PoCheck* const end = next + checks.size();
  PassResult r;
  // Checks the POs on ports below `bound`; true at the first that differs.
  const auto wrong_below = [&](Port bound) {
    for (; next != end && next->port < bound; ++next) {
      const std::uint64_t diff = (in_row(next->port)[0] ^ next->want) & mask;
      if (diff != 0) {
        r.mismatches = static_cast<std::uint64_t>(std::popcount(diff));
        return true;
      }
    }
    return false;
  };
  Port p0 = base.port_of(0, 0);
  if (wrong_below(p0)) {
    return r;
  }
  for (std::size_t g = 0; g < cg.size(); ++g, p0 += 3) {
    const Netlist::Gate& x = bg[g];
    const Netlist::Gate& y = cg[g];
    // A field compare without branches (the defaulted Gate::operator==
    // branches on every field), or'ed with the inputs' flags.
    const std::uint32_t dirty =
        (x.in[0] ^ y.in[0]) | (x.in[1] ^ y.in[1]) | (x.in[2] ^ y.in[2]) |
        (std::uint32_t{x.config.bits()} ^ std::uint32_t{y.config.bits()}) |
        changed[y.in[0]] | changed[y.in[1]] | changed[y.in[2]];
    if (dirty == 0) {
      changed[p0] = changed[p0 + 1] = changed[p0 + 2] = 0;
    } else {
      ++r.evaluated;
      std::uint64_t* out = kCommit ? s.overlay.data() : dense + p0 * stride;
      gate3_rows<W>(kernels, y.config.bits(), in_row(y.in[0]),
                    in_row(y.in[1]), in_row(y.in[2]), out, out + stride,
                    out + 2 * stride, words);
      const std::uint64_t* old = rows + p0 * stride;
      for (unsigned k = 0; k < 3; ++k) {
        const bool differs =
            !rows_equal<W>(out + k * stride, old + k * stride, words);
        changed[p0 + k] = differs;
        if (kCommit && differs) {
          std::copy_n(out + k * stride, words, dense + (p0 + k) * stride);
        }
      }
    }
    if (next != end && next->port < p0 + 3 && wrong_below(p0 + 3)) {
      return r;
    }
  }
  return r;
}

/// Fills `checks` with the POs of `child` in port order, ties in PO
/// order, each with the spec's word 0.
void sort_po_checks(const Netlist& child,
                    std::span<const tt::TruthTable> spec,
                    std::vector<DeltaBatch::PoCheck>& checks) {
  checks.clear();
  for (std::uint32_t i = 0; i < child.num_pos(); ++i) {
    checks.push_back({child.po_at(i), i, spec[i].data()[0]});
  }
  std::sort(checks.begin(), checks.end(), [](const auto& a, const auto& b) {
    return a.port != b.port ? a.port < b.port : a.po < b.po;
  });
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
  simulate_rows(net, cache.rows.data(), words);
}

void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache) {
  check_delta_shape(from, to, cache, "rqfp::update_sim_cache");
  // A flag per port and one gate's new rows, kept per thread so that a
  // commit allocates nothing in the steady state.
  static thread_local DeltaBatch scratch;
  ready_scratch(scratch, from, 3 * cache.words);
  std::uint64_t evaluated = 0;
  with_row_width(cache.words, [&](auto width) {
    evaluated = forward_pass<decltype(width)::value, true>(
                    from, to, cache.rows.data(), cache.rows.data(),
                    cache.words, simd::kernels(), scratch)
                    .evaluated;
  });
  if (evaluated != 0) {
    count_sim_words(evaluated, cache.words);
  }
}

void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch,
                          std::span<const tt::TruthTable> spec) {
  for (const Netlist* child : children) {
    check_delta_shape(base, *child, cache, "rqfp::simulate_delta_batch");
    if (!spec.empty() && spec.size() != child->num_pos()) {
      throw std::invalid_argument(
          "rqfp::simulate_delta_batch: spec/PO count mismatch");
    }
  }
  for (const tt::TruthTable& t : spec) {
    if (t.num_vars() != cache.num_pis) {
      throw std::invalid_argument(
          "rqfp::simulate_delta_batch: spec table over a different PI "
          "count");
    }
  }
  if (batch.children.size() < children.size()) {
    batch.children.resize(children.size());
  }
  ready_scratch(batch, base, cache.rows.size());
  const auto& kernels = simd::kernels();
  // Below 6 PIs a row repeats its 2^n-bit table, a spec table does not.
  const std::uint64_t mask =
      cache.num_pis >= 6 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << (1u << cache.num_pis)) - 1;
  std::uint64_t first_stage = 0;
  std::uint64_t evaluated = 0;
  with_row_width(cache.words, [&](auto width) {
    constexpr std::size_t W = decltype(width)::value;
    const std::uint64_t* const origin[2] = {cache.rows.data(),
                                            batch.overlay.data()};
    for (std::size_t c = 0; c < children.size(); ++c) {
      const Netlist& child = *children[c];
      DeltaBatch::Child& out = batch.children[c];
      out.rejected = false;
      out.word0_mismatches = 0;
      if (!spec.empty()) {
        // Word 0 with the PO checks; with one-word rows the whole pass.
        sort_po_checks(child, spec, batch.checks);
        const PassResult first = forward_pass<1, false, W == 1 ? 1 : 0>(
            base, child, cache.rows.data(), batch.overlay.data(),
            cache.words, kernels, batch, batch.checks, mask);
        first_stage += first.evaluated;
        if (first.mismatches != 0) {
          out.rejected = true;
          out.word0_mismatches = first.mismatches;
          continue;
        }
      }
      if (spec.empty() || cache.words > 1) {
        evaluated += forward_pass<W, false>(base, child, cache.rows.data(),
                                            batch.overlay.data(), cache.words,
                                            kernels, batch)
                         .evaluated;
      }
      out.po.resize(child.num_pos());
      for (std::uint32_t i = 0; i < child.num_pos(); ++i) {
        const Port p = child.po_at(i);
        row_to_table(origin[batch.changed[p]] + p * cache.words,
                     cache.num_pis, out.po[i]);
      }
    }
  });
  if (first_stage != 0) {
    count_sim_words(first_stage, 1);
  }
  if (evaluated != 0) {
    count_sim_words(evaluated, cache.words);
  }
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
