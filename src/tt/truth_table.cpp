#include "tt/truth_table.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "rqfp/simd.hpp"

namespace rcgp::tt {

namespace {

std::size_t word_count(unsigned num_vars) {
  return num_vars < 6 ? 1 : (std::size_t{1} << (num_vars - 6));
}

} // namespace

TruthTable::TruthTable(unsigned num_vars)
    : num_vars_(num_vars), words_(word_count(num_vars), 0) {
  if (num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable: too many variables");
  }
}

TruthTable TruthTable::constant(unsigned num_vars, bool value) {
  TruthTable t(num_vars);
  if (value) {
    std::fill(t.words_.begin(), t.words_.end(), ~std::uint64_t{0});
    t.mask_top_word();
  }
  return t;
}

TruthTable TruthTable::projection(unsigned num_vars, unsigned var) {
  if (var >= num_vars) {
    throw std::invalid_argument("TruthTable::projection: var out of range");
  }
  TruthTable t(num_vars);
  if (var < 6) {
    std::fill(t.words_.begin(), t.words_.end(), kProjection[var]);
    t.mask_top_word();
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < t.words_.size(); ++w) {
      if ((w / stride) & 1) {
        t.words_[w] = ~std::uint64_t{0};
      }
    }
  }
  return t;
}

TruthTable TruthTable::majority(const TruthTable& a, const TruthTable& b,
                                const TruthTable& c) {
  a.check_same_arity(b);
  a.check_same_arity(c);
  TruthTable r(a.num_vars_);
  rqfp::simd::kernels().maj3(a.words_.data(), 0, b.words_.data(), 0,
                             c.words_.data(), 0, r.words_.data(),
                             r.words_.size());
  return r;
}

TruthTable TruthTable::ite(const TruthTable& sel, const TruthTable& t,
                           const TruthTable& e) {
  sel.check_same_arity(t);
  sel.check_same_arity(e);
  TruthTable r(sel.num_vars_);
  for (std::size_t i = 0; i < r.words_.size(); ++i) {
    r.words_[i] = (sel.words_[i] & t.words_[i]) | (~sel.words_[i] & e.words_[i]);
  }
  return r;
}

TruthTable TruthTable::from_binary(const std::string& bits) {
  const std::size_t n = bits.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("from_binary: length must be a power of two");
  }
  unsigned num_vars = 0;
  while ((std::size_t{1} << num_vars) < n) {
    ++num_vars;
  }
  TruthTable t(num_vars);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = bits[n - 1 - i]; // MSB first: last char is index 0
    if (c == '1') {
      t.set_bit(i, true);
    } else if (c != '0') {
      throw std::invalid_argument("from_binary: invalid character");
    }
  }
  return t;
}

TruthTable TruthTable::from_hex(unsigned num_vars, const std::string& hex) {
  TruthTable t(num_vars);
  const std::uint64_t bits = t.num_bits();
  const std::size_t digits = bits >= 4 ? bits / 4 : 1;
  if (hex.size() != digits) {
    throw std::invalid_argument("from_hex: wrong digit count");
  }
  for (std::size_t d = 0; d < digits; ++d) {
    const char c = hex[digits - 1 - d];
    unsigned v = 0;
    if (c >= '0' && c <= '9') {
      v = static_cast<unsigned>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<unsigned>(c - 'a') + 10;
    } else if (c >= 'A' && c <= 'F') {
      v = static_cast<unsigned>(c - 'A') + 10;
    } else {
      throw std::invalid_argument("from_hex: invalid character");
    }
    for (unsigned b = 0; b < 4; ++b) {
      const std::uint64_t idx = 4 * d + b;
      if (idx < bits && ((v >> b) & 1)) {
        t.set_bit(idx, true);
      }
    }
  }
  return t;
}

void TruthTable::set_word(std::size_t i, std::uint64_t w) {
  words_[i] = w;
  if (i + 1 == words_.size()) {
    mask_top_word();
  }
}

void TruthTable::set_bit(std::uint64_t index, bool value) {
  if (value) {
    words_[index >> 6] |= std::uint64_t{1} << (index & 63);
  } else {
    words_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  }
}

std::uint64_t TruthTable::count_ones() const {
  std::uint64_t n = 0;
  for (const auto w : words_) {
    n += static_cast<std::uint64_t>(std::popcount(w));
  }
  return n;
}

bool TruthTable::is_constant0() const {
  return std::all_of(words_.begin(), words_.end(),
                     [](std::uint64_t w) { return w == 0; });
}

bool TruthTable::is_constant1() const {
  return *this == constant(num_vars_, true);
}

std::uint64_t TruthTable::hamming_distance(const TruthTable& other) const {
  check_same_arity(other);
  return rqfp::simd::kernels().xor_popcount(words_.data(),
                                            other.words_.data(),
                                            words_.size());
}

bool TruthTable::depends_on(unsigned var) const {
  return cofactor0(var) != cofactor1(var);
}

TruthTable TruthTable::cofactor0(unsigned var) const {
  TruthTable r(*this);
  if (var < 6) {
    const std::uint64_t mask = ~kProjection[var];
    const unsigned shift = 1u << var;
    for (auto& w : r.words_) {
      const std::uint64_t low = w & mask;
      w = low | (low << shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < r.words_.size(); ++w) {
      if ((w / stride) & 1) {
        r.words_[w] = r.words_[w - stride];
      }
    }
  }
  r.mask_top_word();
  return r;
}

TruthTable TruthTable::cofactor1(unsigned var) const {
  TruthTable r(*this);
  if (var < 6) {
    const std::uint64_t mask = kProjection[var];
    const unsigned shift = 1u << var;
    for (auto& w : r.words_) {
      const std::uint64_t high = w & mask;
      w = high | (high >> shift);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < r.words_.size(); ++w) {
      if (((w / stride) & 1) == 0) {
        r.words_[w] = r.words_[w + stride];
      }
    }
  }
  r.mask_top_word();
  return r;
}

TruthTable TruthTable::flip_var(unsigned var) const {
  TruthTable r(*this);
  if (var < 6) {
    for (auto& w : r.words_) {
      w = flip_var_word(w, var);
    }
  } else {
    const std::size_t stride = std::size_t{1} << (var - 6);
    for (std::size_t w = 0; w < r.words_.size(); w += 2 * stride) {
      for (std::size_t i = 0; i < stride; ++i) {
        std::swap(r.words_[w + i], r.words_[w + stride + i]);
      }
    }
  }
  return r;
}

TruthTable TruthTable::swap_vars(unsigned a, unsigned b) const {
  if (a == b) {
    return *this;
  }
  if (a > b) {
    std::swap(a, b);
  }
  // Generic (slow-path) permutation via bit re-indexing; tables here are at
  // most 2^kMaxVars bits and swaps are rare outside NPN canonization of
  // small tables, so clarity wins over word tricks.
  TruthTable r(num_vars_);
  for (std::uint64_t idx = 0; idx < num_bits(); ++idx) {
    const std::uint64_t bit_a = (idx >> a) & 1;
    const std::uint64_t bit_b = (idx >> b) & 1;
    std::uint64_t j = idx & ~((std::uint64_t{1} << a) | (std::uint64_t{1} << b));
    j |= bit_a << b;
    j |= bit_b << a;
    if (bit(idx)) {
      r.set_bit(j, true);
    }
  }
  return r;
}

TruthTable TruthTable::extend(unsigned new_num_vars,
                              const std::vector<unsigned>& map) const {
  if (map.size() != num_vars_) {
    throw std::invalid_argument("extend: map size must equal arity");
  }
  TruthTable r(new_num_vars);
  for (std::uint64_t idx = 0; idx < r.num_bits(); ++idx) {
    std::uint64_t src = 0;
    for (unsigned v = 0; v < num_vars_; ++v) {
      if ((idx >> map[v]) & 1) {
        src |= std::uint64_t{1} << v;
      }
    }
    if (bit(src)) {
      r.set_bit(idx, true);
    }
  }
  return r;
}

TruthTable TruthTable::operator~() const {
  TruthTable r(*this);
  for (auto& w : r.words_) {
    w = ~w;
  }
  r.mask_top_word();
  return r;
}

TruthTable TruthTable::operator&(const TruthTable& o) const {
  TruthTable r(*this);
  r &= o;
  return r;
}

TruthTable TruthTable::operator|(const TruthTable& o) const {
  TruthTable r(*this);
  r |= o;
  return r;
}

TruthTable TruthTable::operator^(const TruthTable& o) const {
  TruthTable r(*this);
  r ^= o;
  return r;
}

TruthTable& TruthTable::operator&=(const TruthTable& o) {
  check_same_arity(o);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= o.words_[i];
  }
  return *this;
}

TruthTable& TruthTable::operator|=(const TruthTable& o) {
  check_same_arity(o);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] |= o.words_[i];
  }
  return *this;
}

TruthTable& TruthTable::operator^=(const TruthTable& o) {
  check_same_arity(o);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] ^= o.words_[i];
  }
  return *this;
}

bool TruthTable::operator<(const TruthTable& o) const {
  if (num_vars_ != o.num_vars_) {
    return num_vars_ < o.num_vars_;
  }
  // Compare from the most significant word for a natural numeric order.
  for (std::size_t i = words_.size(); i-- > 0;) {
    if (words_[i] != o.words_[i]) {
      return words_[i] < o.words_[i];
    }
  }
  return false;
}

std::string TruthTable::to_binary() const {
  std::string s;
  s.reserve(num_bits());
  for (std::uint64_t i = num_bits(); i-- > 0;) {
    s.push_back(bit(i) ? '1' : '0');
  }
  return s;
}

std::string TruthTable::to_hex() const {
  static const char* digits = "0123456789abcdef";
  const std::uint64_t bits = num_bits();
  const std::size_t n_digits = bits >= 4 ? bits / 4 : 1;
  std::string s(n_digits, '0');
  for (std::size_t d = 0; d < n_digits; ++d) {
    unsigned v = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const std::uint64_t idx = 4 * d + b;
      if (idx < bits && bit(idx)) {
        v |= 1u << b;
      }
    }
    s[n_digits - 1 - d] = digits[v];
  }
  return s;
}

std::uint64_t TruthTable::hash() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL * (num_vars_ + 1);
  for (const auto w : words_) {
    h ^= w + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

void TruthTable::mask_top_word() {
  if (num_vars_ < 6) {
    words_.back() &= (std::uint64_t{1} << num_bits()) - 1;
  }
}

void TruthTable::check_same_arity(const TruthTable& o) const {
  if (num_vars_ != o.num_vars_) {
    throw std::invalid_argument("TruthTable: arity mismatch");
  }
}

} // namespace rcgp::tt
