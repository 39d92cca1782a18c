#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rcgp::tt {

/// Bit masks of the projection x_var (var < 6) within one 64-bit word:
/// bit i is set iff bit `var` of the assignment i is. The single-word
/// kernels (cofactors, variable flips, the NPN engine in tt/npn) build
/// their shuffles from these.
inline constexpr std::uint64_t kProjection[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Complements input `var` (< 6) of the table bits held in one word: the
/// word kernel of TruthTable::flip_var and of the NPN engine.
constexpr std::uint64_t flip_var_word(std::uint64_t w, unsigned var) {
  const unsigned shift = 1u << var;
  return ((w & kProjection[var]) >> shift) | ((w & ~kProjection[var]) << shift);
}

/// Bit-parallel dynamic truth table over `num_vars` Boolean variables.
///
/// Bit `i` of the table stores f(x) for the input assignment whose binary
/// encoding is `i` (variable 0 is the least significant). Tables with fewer
/// than 6 variables occupy the low `2^num_vars` bits of a single 64-bit
/// word; unused high bits are kept zero as a class invariant so that
/// equality and hashing are plain word comparisons.
class TruthTable {
public:
  static constexpr unsigned kMaxVars = 24;

  TruthTable() : num_vars_(0), words_(1, 0) {}

  /// All-zero table over `num_vars` variables.
  explicit TruthTable(unsigned num_vars);

  static TruthTable constant(unsigned num_vars, bool value);

  /// Table of the projection function f(x) = x_var.
  static TruthTable projection(unsigned num_vars, unsigned var);

  /// Three-input majority, the primitive of AQFP/RQFP logic. All operands
  /// must have the same number of variables.
  static TruthTable majority(const TruthTable& a, const TruthTable& b,
                             const TruthTable& c);

  /// if-then-else: sel ? t : e.
  static TruthTable ite(const TruthTable& sel, const TruthTable& t,
                        const TruthTable& e);

  /// Parse a binary string, most significant bit (highest input index)
  /// first, e.g. "1000" is AND of two variables. Length must be a power of
  /// two. Throws std::invalid_argument on malformed input.
  static TruthTable from_binary(const std::string& bits);

  /// Parse a hex string of length 2^num_vars / 4 (minimum 1 digit),
  /// most significant digit first.
  static TruthTable from_hex(unsigned num_vars, const std::string& hex);

  unsigned num_vars() const { return num_vars_; }
  std::uint64_t num_bits() const { return std::uint64_t{1} << num_vars_; }
  std::size_t num_words() const { return words_.size(); }

  const std::vector<std::uint64_t>& words() const { return words_; }
  std::uint64_t word(std::size_t i) const { return words_[i]; }
  void set_word(std::size_t i, std::uint64_t w);

  /// Raw word storage for the bulk simulation kernels (rqfp/simd.hpp).
  /// After writing through the mutable pointer, call normalize() to
  /// restore the unused-high-bits-zero invariant of sub-word tables.
  const std::uint64_t* data() const { return words_.data(); }
  std::uint64_t* data() { return words_.data(); }
  void normalize() { mask_top_word(); }

  bool bit(std::uint64_t index) const {
    return (words_[index >> 6] >> (index & 63)) & 1;
  }
  void set_bit(std::uint64_t index, bool value);

  std::uint64_t count_ones() const;
  bool is_constant0() const;
  bool is_constant1() const;

  /// Number of bit positions where this and other differ (same arity
  /// required) — the Hamming distance used by CGP fitness.
  std::uint64_t hamming_distance(const TruthTable& other) const;

  /// True iff the function value depends on variable `var`.
  bool depends_on(unsigned var) const;

  /// Positive/negative cofactor w.r.t. `var`; result keeps the same arity
  /// (the cofactored variable becomes a don't-care).
  TruthTable cofactor0(unsigned var) const;
  TruthTable cofactor1(unsigned var) const;

  /// Complement input `var` (negate that variable in every assignment).
  TruthTable flip_var(unsigned var) const;

  /// Swap adjacent-or-arbitrary input variables `a` and `b`.
  TruthTable swap_vars(unsigned a, unsigned b) const;

  /// Re-expresses this k-var function over `new_num_vars >= k` variables,
  /// mapping old variable i to new variable map[i].
  TruthTable extend(unsigned new_num_vars,
                    const std::vector<unsigned>& map) const;

  TruthTable operator~() const;
  TruthTable operator&(const TruthTable& o) const;
  TruthTable operator|(const TruthTable& o) const;
  TruthTable operator^(const TruthTable& o) const;
  TruthTable& operator&=(const TruthTable& o);
  TruthTable& operator|=(const TruthTable& o);
  TruthTable& operator^=(const TruthTable& o);

  bool operator==(const TruthTable& o) const = default;
  /// Lexicographic order on (num_vars, words) — usable as map key.
  bool operator<(const TruthTable& o) const;

  std::string to_binary() const;
  std::string to_hex() const;

  /// 64-bit mixing hash over arity and contents.
  std::uint64_t hash() const;

private:
  void mask_top_word();
  void check_same_arity(const TruthTable& o) const;

  unsigned num_vars_;
  std::vector<std::uint64_t> words_;
};

/// std::hash adapter so TruthTable keys work in unordered containers.
struct TruthTableHash {
  std::size_t operator()(const TruthTable& t) const {
    return static_cast<std::size_t>(t.hash());
  }
};

} // namespace rcgp::tt
