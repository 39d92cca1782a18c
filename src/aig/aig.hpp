#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace rcgp::aig {

/// An edge in the AIG: node index plus complement flag, packed.
class Signal {
public:
  Signal() = default;
  Signal(std::uint32_t node, bool complemented)
      : code_((node << 1) | (complemented ? 1u : 0u)) {}

  static Signal from_code(std::uint32_t code) {
    Signal s;
    s.code_ = code;
    return s;
  }

  std::uint32_t node() const { return code_ >> 1; }
  bool complemented() const { return code_ & 1; }
  std::uint32_t code() const { return code_; }

  Signal operator!() const { return from_code(code_ ^ 1); }
  Signal operator^(bool c) const {
    return from_code(code_ ^ (c ? 1u : 0u));
  }
  bool operator==(const Signal&) const = default;
  bool operator<(const Signal& o) const { return code_ < o.code_; }

private:
  std::uint32_t code_ = 0;
};

/// And-inverter graph with structural hashing and lazy node replacement.
///
/// Node 0 is the constant-false node. Primary inputs follow, then AND
/// nodes in creation order — creation order is always a valid topological
/// order because a node's fanins must exist when it is created.
///
/// Replacement model: optimization passes call `replace(node, signal)`;
/// lookups resolve replacement chains, and `cleanup()` produces a compact
/// AIG with replacements applied and dead nodes removed.
class Aig {
public:
  struct Node {
    Signal fanin0; // valid only for AND nodes
    Signal fanin1;
    std::uint8_t kind; // 0 = const, 1 = PI, 2 = AND
  };

  enum : std::uint8_t { kConst = 0, kPi = 1, kAnd = 2 };

  Aig();

  Signal const0() const { return Signal(0, false); }
  Signal const1() const { return Signal(0, true); }

  Signal create_pi(const std::string& name = "");
  Signal create_and(Signal a, Signal b);

  Signal create_or(Signal a, Signal b) { return !create_and(!a, !b); }
  Signal create_xor(Signal a, Signal b);
  Signal create_mux(Signal sel, Signal t, Signal e);
  Signal create_maj(Signal a, Signal b, Signal c);

  /// Registers a primary output; returns its index.
  std::uint32_t add_po(Signal s, const std::string& name = "");
  void set_po(std::uint32_t index, Signal s) { pos_[index] = s; }

  std::uint32_t num_nodes() const {
    return static_cast<std::uint32_t>(nodes_.size());
  }
  std::uint32_t num_pis() const {
    return static_cast<std::uint32_t>(pis_.size());
  }
  std::uint32_t num_pos() const {
    return static_cast<std::uint32_t>(pos_.size());
  }
  /// Number of AND nodes reachable from the POs (live area).
  std::uint32_t count_live_ands() const;

  bool is_const(std::uint32_t n) const { return nodes_[n].kind == kConst; }
  bool is_pi(std::uint32_t n) const { return nodes_[n].kind == kPi; }
  bool is_and(std::uint32_t n) const { return nodes_[n].kind == kAnd; }

  const Node& node(std::uint32_t n) const { return nodes_[n]; }
  Signal fanin0(std::uint32_t n) const { return resolve(nodes_[n].fanin0); }
  Signal fanin1(std::uint32_t n) const { return resolve(nodes_[n].fanin1); }

  std::uint32_t pi_at(std::uint32_t i) const { return pis_[i]; }
  /// PI input index of a PI node.
  std::uint32_t pi_index(std::uint32_t n) const { return pi_index_.at(n); }
  Signal po_at(std::uint32_t i) const { return resolve(pos_[i]); }
  const std::string& pi_name(std::uint32_t i) const { return pi_names_[i]; }
  const std::string& po_name(std::uint32_t i) const { return po_names_[i]; }
  void set_pi_name(std::uint32_t i, const std::string& n) { pi_names_[i] = n; }
  void set_po_name(std::uint32_t i, const std::string& n) { po_names_[i] = n; }

  /// Follows replacement chains to the current representative signal.
  Signal resolve(Signal s) const {
    for (;;) {
      const Signal r = repl_[s.node()];
      if (r.node() == s.node()) {
        return s;
      }
      s = r ^ s.complemented();
    }
  }

  /// Redirects `n` (an AND node) to `s`; future resolutions see `s`.
  void replace(std::uint32_t n, Signal s);
  bool is_replaced(std::uint32_t n) const {
    return n < repl_.size() && repl_[n].node() != n;
  }
  bool has_replacements() const { return num_replaced_ != 0; }

  /// Compact copy: applies replacements, drops unreachable nodes, rebuilds
  /// the structural-hash table. PI/PO order and names are preserved.
  Aig cleanup() const;

  /// Per-node logic level (PIs at 0); resolved graph, live nodes only have
  /// meaningful values. Recomputed from scratch.
  std::vector<std::uint32_t> compute_levels() const;
  std::uint32_t depth() const;

  /// Fanout reference counts on the resolved graph (POs count as fanouts).
  std::vector<std::uint32_t> compute_refs() const;

  /// Removes a node created speculatively (must be the most recent nodes,
  /// with no other references); used by rewriting rollback.
  void pop_nodes_to(std::uint32_t first_kept);

private:
  Signal strash_lookup_or_create(Signal a, Signal b);

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> pis_;
  std::vector<Signal> pos_;
  std::vector<std::string> pi_names_;
  std::vector<std::string> po_names_;
  std::unordered_map<std::uint32_t, std::uint32_t> pi_index_;
  std::unordered_map<std::uint64_t, std::uint32_t> strash_;
  /// Replacement of each node, indexed by node id; a node that is not
  /// replaced holds its own signal. pop_nodes_to truncates it.
  std::vector<Signal> repl_;
  std::uint32_t num_replaced_ = 0;
};

} // namespace rcgp::aig
