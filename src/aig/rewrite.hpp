#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "aig/cuts.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::aig {

struct PassStats {
  std::uint32_t attempts = 0;
  std::uint32_t commits = 0;
  std::int64_t total_gain = 0; // live AND nodes removed
};

struct RewriteParams {
  unsigned max_leaves = 4;
  unsigned max_cuts_per_node = 12;
  bool allow_zero_gain = false;
};

/// Reference-count bookkeeping for DAG-aware replacement: measures the
/// exact change in live node count when a root is replaced by a candidate
/// cone, with commit/rollback semantics.
class GainManager {
public:
  explicit GainManager(Aig& aig);

  /// Dereferences root's cone (MFFC) and returns the number of AND nodes
  /// that would be freed if `root` were replaced (including root itself).
  std::uint32_t deref_mffc(std::uint32_t root);

  /// Number of currently-dead AND nodes that become live if `s` gains a
  /// reference; references them as a side effect.
  std::uint32_t ref_candidate(Signal s);

  /// Undo ref_candidate.
  void unref_candidate(Signal s);

  /// Undo deref_mffc.
  void ref_mffc(std::uint32_t root);

  /// Transfer root's external references to the candidate and record the
  /// replacement in the AIG. Call after deref_mffc + ref_candidate.
  void commit(std::uint32_t root, Signal candidate);

  std::uint32_t refs(std::uint32_t n) const {
    return n < refs_.size() ? refs_[n] : 0;
  }

private:
  std::uint32_t& ref_slot(std::uint32_t n);
  std::uint32_t deref_rec(std::uint32_t n);
  std::uint32_t ref_rec(std::uint32_t n);

  Aig& aig_;
  std::vector<std::uint32_t> refs_;
};

/// Largest cone, in AND nodes, that rewrite and refactor re-synthesize.
inline constexpr std::size_t kMaxCutCone = 256;

/// Cut function that returns nullopt when the cone escapes the cut (can
/// happen when precomputed cuts go stale after replacements) or holds more
/// than kMaxCutCone AND nodes.
std::optional<tt::TruthTable> try_cut_function(const Aig& aig,
                                               std::uint32_t root,
                                               const Cut& cut);

/// Builds an AIG for a function over `leaf_signals` using ISOP-based
/// algebraic factoring (better polarity chosen automatically). `function`
/// and `complement` are the table's words and its complement's, in the
/// layout of tt::isop, over leaf_signals.size() variables.
Signal build_factored(Aig& aig, const std::uint64_t* function,
                      const std::uint64_t* complement,
                      std::span<const Signal> leaf_signals);

Signal build_factored(Aig& aig, const tt::TruthTable& function,
                      std::span<const Signal> leaf_signals);

namespace detail {

/// What one rewrite or refactor pass reuses across its attempts: the cut
/// function scratch and the buffers of one candidate.
struct Resynthesis {
  CutFunctions functions;
  std::vector<std::uint64_t> complement;
  std::vector<Signal> leaf_signals;

  /// One attempt at `root` over `leaves`: computes the cone's function
  /// (no attempt when the cone escapes or exceeds kMaxCutCone), builds its
  /// factored form and commits it when the live node count drops, or
  /// stays with `allow_zero_gain` for a candidate of existing nodes.
  /// Returns true on commit; a rejected candidate's new nodes are popped.
  bool attempt(Aig& aig, GainManager& gm, std::uint32_t root,
               std::span<const std::uint32_t> leaves, bool allow_zero_gain,
               PassStats& stats);
};

} // namespace detail

/// DAG-aware cut rewriting (ABC `rewrite`-style): for every live AND node,
/// tries to re-express each enumerated cut with a factored form and commits
/// when the net live-node count drops.
PassStats rewrite_pass(Aig& aig, const RewriteParams& params = {});

} // namespace rcgp::aig
