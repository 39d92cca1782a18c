#include "aig/aig.hpp"

#include <algorithm>
#include <stdexcept>

namespace rcgp::aig {

namespace {
std::uint64_t strash_key(Signal a, Signal b) {
  if (b < a) {
    std::swap(a, b);
  }
  return (static_cast<std::uint64_t>(a.code()) << 32) | b.code();
}
} // namespace

Aig::Aig() {
  nodes_.push_back(Node{Signal(), Signal(), kConst});
  repl_.push_back(Signal(0, false));
}

Signal Aig::create_pi(const std::string& name) {
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{Signal(), Signal(), kPi});
  repl_.push_back(Signal(n, false));
  pi_index_[n] = static_cast<std::uint32_t>(pis_.size());
  pis_.push_back(n);
  pi_names_.push_back(name.empty() ? "x" + std::to_string(pis_.size() - 1)
                                   : name);
  return Signal(n, false);
}

Signal Aig::create_and(Signal a, Signal b) {
  a = resolve(a);
  b = resolve(b);
  // Trivial simplifications.
  if (a == const0() || b == const0() || a == !b) {
    return const0();
  }
  if (a == const1()) {
    return b;
  }
  if (b == const1() || a == b) {
    return a;
  }
  return strash_lookup_or_create(a, b);
}

Signal Aig::strash_lookup_or_create(Signal a, Signal b) {
  if (b < a) {
    std::swap(a, b);
  }
  const std::uint64_t key = strash_key(a, b);
  const auto it = strash_.find(key);
  if (it != strash_.end() && !is_replaced(it->second)) {
    return Signal(it->second, false);
  }
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{a, b, kAnd});
  repl_.push_back(Signal(n, false));
  strash_[key] = n;
  return Signal(n, false);
}

Signal Aig::create_xor(Signal a, Signal b) {
  // a ^ b = !(!( a & !b) & !(!a & b))
  return !create_and(!create_and(a, !b), !create_and(!a, b));
}

Signal Aig::create_mux(Signal sel, Signal t, Signal e) {
  return !create_and(!create_and(sel, t), !create_and(!sel, e));
}

Signal Aig::create_maj(Signal a, Signal b, Signal c) {
  const Signal ab = create_and(a, b);
  const Signal ac = create_and(a, c);
  const Signal bc = create_and(b, c);
  return create_or(ab, create_or(ac, bc));
}

std::uint32_t Aig::add_po(Signal s, const std::string& name) {
  const auto idx = static_cast<std::uint32_t>(pos_.size());
  pos_.push_back(s);
  po_names_.push_back(name.empty() ? "y" + std::to_string(idx) : name);
  return idx;
}

void Aig::replace(std::uint32_t n, Signal s) {
  if (!is_and(n)) {
    throw std::invalid_argument("Aig::replace: only AND nodes replaceable");
  }
  s = resolve(s);
  if (s.node() == n) {
    return;
  }
  num_replaced_ += is_replaced(n) ? 0 : 1;
  repl_[n] = s;
}

std::uint32_t Aig::count_live_ands() const {
  std::vector<bool> mark(nodes_.size(), false);
  std::vector<std::uint32_t> stack;
  std::uint32_t count = 0;
  for (const auto& po : pos_) {
    stack.push_back(resolve(po).node());
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (mark[n]) {
      continue;
    }
    mark[n] = true;
    if (is_and(n)) {
      ++count;
      stack.push_back(fanin0(n).node());
      stack.push_back(fanin1(n).node());
    }
  }
  return count;
}

Aig Aig::cleanup() const {
  Aig out;
  std::vector<Signal> map(nodes_.size(), Signal());
  std::vector<bool> done(nodes_.size(), false);
  map[0] = out.const0();
  done[0] = true;
  for (std::uint32_t i = 0; i < pis_.size(); ++i) {
    map[pis_[i]] = out.create_pi(pi_names_[i]);
    done[pis_[i]] = true;
  }
  // Iterative DFS from each PO over the resolved graph.
  std::vector<std::uint32_t> stack;
  for (const auto& po_raw : pos_) {
    stack.push_back(resolve(po_raw).node());
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      if (done[n]) {
        stack.pop_back();
        continue;
      }
      const Signal a = fanin0(n);
      const Signal b = fanin1(n);
      bool ready = true;
      if (!done[a.node()]) {
        stack.push_back(a.node());
        ready = false;
      }
      if (!done[b.node()]) {
        stack.push_back(b.node());
        ready = false;
      }
      if (!ready) {
        continue;
      }
      stack.pop_back();
      map[n] = out.create_and(map[a.node()] ^ a.complemented(),
                              map[b.node()] ^ b.complemented());
      done[n] = true;
    }
  }
  for (std::uint32_t i = 0; i < pos_.size(); ++i) {
    const Signal po = resolve(pos_[i]);
    out.add_po(map[po.node()] ^ po.complemented(), po_names_[i]);
  }
  return out;
}

std::vector<std::uint32_t> Aig::compute_levels() const {
  std::vector<std::uint32_t> level(nodes_.size(), 0);
  for (std::uint32_t n = 0; n < nodes_.size(); ++n) {
    if (is_and(n) && !is_replaced(n)) {
      const Signal a = fanin0(n);
      const Signal b = fanin1(n);
      level[n] = 1 + std::max(level[a.node()], level[b.node()]);
    }
  }
  return level;
}

std::uint32_t Aig::depth() const {
  const auto level = compute_levels();
  std::uint32_t d = 0;
  for (const auto& po : pos_) {
    d = std::max(d, level[resolve(po).node()]);
  }
  return d;
}

std::vector<std::uint32_t> Aig::compute_refs() const {
  std::vector<std::uint32_t> refs(nodes_.size(), 0);
  std::vector<bool> mark(nodes_.size(), false);
  std::vector<std::uint32_t> stack;
  for (const auto& po : pos_) {
    const Signal s = resolve(po);
    ++refs[s.node()];
    stack.push_back(s.node());
  }
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (mark[n] || !is_and(n)) {
      continue;
    }
    mark[n] = true;
    const Signal a = fanin0(n);
    const Signal b = fanin1(n);
    ++refs[a.node()];
    ++refs[b.node()];
    stack.push_back(a.node());
    stack.push_back(b.node());
  }
  return refs;
}

void Aig::pop_nodes_to(std::uint32_t first_kept) {
  while (nodes_.size() > first_kept) {
    const auto n = static_cast<std::uint32_t>(nodes_.size() - 1);
    if (!is_and(n)) {
      throw std::logic_error("pop_nodes_to: cannot pop non-AND node");
    }
    const std::uint64_t key = strash_key(nodes_[n].fanin0, nodes_[n].fanin1);
    const auto it = strash_.find(key);
    if (it != strash_.end() && it->second == n) {
      strash_.erase(it);
    }
    num_replaced_ -= is_replaced(n) ? 1 : 0;
    repl_.pop_back();
    nodes_.pop_back();
  }
}

} // namespace rcgp::aig
