#include "tt/isop.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace rcgp::tt {

unsigned Cube::num_literals() const {
  return static_cast<unsigned>(std::popcount(mask));
}

bool Cube::evaluates_true(std::uint64_t assignment) const {
  return ((static_cast<std::uint32_t>(assignment) ^ polarity) & mask) == 0;
}

std::string Cube::to_string(unsigned num_vars) const {
  std::string s(num_vars, '-');
  for (unsigned v = 0; v < num_vars; ++v) {
    if (mask & (1u << v)) {
      s[v] = (polarity & (1u << v)) ? '1' : '0';
    }
  }
  return s;
}

namespace {

/// Tables up to this many variables keep the recursion's scratch on the
/// stack: refactor's 10-leaf cuts and everything narrower.
constexpr unsigned kStackVars = 10;

constexpr std::size_t table_words(unsigned num_vars) {
  return num_vars <= 6 ? 1 : std::size_t{1} << (num_vars - 6);
}

/// Words the multi-word recursion on `num_vars` variables needs below its
/// caller's buffers: five half-tables per level.
constexpr std::size_t scratch_words(unsigned num_vars) {
  return 5 * table_words(num_vars);
}

/// Repeats the low 2^num_vars bits of `w` (num_vars < 6) across the word,
/// so that variables at and above num_vars are plain don't-cares.
std::uint64_t replicate(std::uint64_t w, unsigned num_vars) {
  unsigned width = 1u << num_vars;
  w &= (std::uint64_t{1} << width) - 1;
  for (; width < 64; width <<= 1) {
    w |= w << width;
  }
  return w;
}

bool word_depends_on(std::uint64_t w, unsigned var) {
  return (((w >> (1u << var)) ^ w) & ~kProjection[var]) != 0;
}

std::uint64_t word_cofactor0(std::uint64_t w, unsigned var) {
  const std::uint64_t low = w & ~kProjection[var];
  return low | (low << (1u << var));
}

std::uint64_t word_cofactor1(std::uint64_t w, unsigned var) {
  const std::uint64_t high = w & kProjection[var];
  return high | (high >> (1u << var));
}

/// Adds literal `var` (positive or negative) to the cubes from `first` on.
void add_literal(std::vector<Cube>& out, std::size_t first, unsigned var,
                 bool positive) {
  const std::uint32_t bit = 1u << var;
  for (std::size_t i = first; i < out.size(); ++i) {
    out[i].mask |= bit;
    if (positive) {
      out[i].polarity |= bit;
    }
  }
}

/// One-word Minato-Morreale recursion on [lower, upper] over the variables
/// below `num_vars` (≤ 6); both bounds are replicated words. Returns the
/// covered set.
std::uint64_t isop_word(std::uint64_t lower, std::uint64_t upper,
                        unsigned num_vars, std::vector<Cube>& out) {
  if (lower == 0) {
    return 0;
  }
  if (upper == ~std::uint64_t{0}) {
    out.push_back(Cube{});
    return ~std::uint64_t{0};
  }
  // The top variable either bound depends on.
  unsigned var = num_vars;
  while (var > 0 && !word_depends_on(lower, var - 1) &&
         !word_depends_on(upper, var - 1)) {
    --var;
  }
  if (var == 0) {
    // Non-constant table that depends on no variable cannot happen.
    throw std::logic_error("isop: inconsistent interval");
  }
  --var;
  const std::uint64_t l0 = word_cofactor0(lower, var);
  const std::uint64_t l1 = word_cofactor1(lower, var);
  const std::uint64_t u0 = word_cofactor0(upper, var);
  const std::uint64_t u1 = word_cofactor1(upper, var);

  // Cubes that must contain literal ~var: needed where l0 holds but u1
  // cannot cover (so they can't be var-independent).
  std::size_t first = out.size();
  const std::uint64_t cov0 = isop_word(l0 & ~u1, u0, var, out);
  add_literal(out, first, var, false);
  // Cubes that must contain literal var.
  first = out.size();
  const std::uint64_t cov1 = isop_word(l1 & ~u0, u1, var, out);
  add_literal(out, first, var, true);
  // Remainder must be covered by var-independent cubes.
  const std::uint64_t cov2 =
      isop_word((l0 & ~cov0) | (l1 & ~cov1), u0 & u1, var, out);
  return (cov0 & ~kProjection[var]) | (cov1 & kProjection[var]) | cov2;
}

bool halves_equal(const std::uint64_t* t, std::size_t words) {
  const std::size_t half = words / 2;
  return std::equal(t, t + half, t + half);
}

/// The same recursion on tables of `num_vars` ≥ 6 variables. A cofactor on
/// a variable ≥ 6 is the low or high half of the table, so no cofactor is
/// ever copied; the three sub-problems and their covers take five
/// half-tables of `scratch` and hand the rest down. Writes the covered set
/// to `covered` (table_words(num_vars) words).
void isop_span(const std::uint64_t* lower, const std::uint64_t* upper,
               unsigned num_vars, std::uint64_t* covered,
               std::uint64_t* scratch, std::vector<Cube>& out) {
  const std::size_t words = table_words(num_vars);
  if (std::all_of(lower, lower + words,
                  [](std::uint64_t w) { return w == 0; })) {
    std::fill(covered, covered + words, 0);
    return;
  }
  if (std::all_of(upper, upper + words,
                  [](std::uint64_t w) { return w == ~std::uint64_t{0}; })) {
    std::fill(covered, covered + words, ~std::uint64_t{0});
    out.push_back(Cube{});
    return;
  }
  // Drop the top variables neither bound depends on: such a table is two
  // copies of its low half.
  unsigned var = num_vars;
  std::size_t span = words;
  while (span > 1 && halves_equal(lower, span) && halves_equal(upper, span)) {
    span /= 2;
    --var;
  }
  if (span == 1) {
    std::fill(covered, covered + words, isop_word(lower[0], upper[0], 6, out));
    return;
  }
  --var; // the top variable, ≥ 6: its cofactors are the two halves
  const std::size_t half = span / 2;
  const std::uint64_t* l1 = lower + half;
  const std::uint64_t* u1 = upper + half;
  std::uint64_t* sub_lower = scratch;
  std::uint64_t* sub_upper = scratch + half;
  std::uint64_t* cov0 = scratch + 2 * half;
  std::uint64_t* cov1 = scratch + 3 * half;
  std::uint64_t* cov2 = scratch + 4 * half;
  std::uint64_t* below = scratch + 5 * half;

  std::size_t first = out.size();
  for (std::size_t i = 0; i < half; ++i) {
    sub_lower[i] = lower[i] & ~u1[i];
  }
  isop_span(sub_lower, upper, var, cov0, below, out);
  add_literal(out, first, var, false);

  first = out.size();
  for (std::size_t i = 0; i < half; ++i) {
    sub_lower[i] = l1[i] & ~upper[i];
  }
  isop_span(sub_lower, u1, var, cov1, below, out);
  add_literal(out, first, var, true);

  for (std::size_t i = 0; i < half; ++i) {
    sub_lower[i] = (lower[i] & ~cov0[i]) | (l1[i] & ~cov1[i]);
    sub_upper[i] = upper[i] & u1[i];
  }
  isop_span(sub_lower, sub_upper, var, cov2, below, out);

  for (std::size_t i = 0; i < half; ++i) {
    covered[i] = cov0[i] | cov2[i];
    covered[half + i] = cov1[i] | cov2[i];
  }
  // The dropped variables are don't-cares of the cover too.
  for (std::size_t i = span; i < words; ++i) {
    covered[i] = covered[i - span];
  }
}

} // namespace

void isop(const std::uint64_t* lower, const std::uint64_t* upper,
          unsigned num_vars, std::vector<Cube>& out) {
  if (num_vars > 31) {
    throw std::invalid_argument("isop: too many variables for Cube");
  }
  if (num_vars < 6) {
    isop_word(replicate(lower[0], num_vars), replicate(upper[0], num_vars),
              num_vars, out);
    return;
  }
  // The cover, then the recursion's scratch.
  const std::size_t need = table_words(num_vars) + scratch_words(num_vars);
  std::array<std::uint64_t, table_words(kStackVars) + scratch_words(kStackVars)>
      local;
  std::vector<std::uint64_t> wide;
  std::uint64_t* buffer = local.data();
  if (need > local.size()) {
    wide.resize(need);
    buffer = wide.data();
  }
  isop_span(lower, upper, num_vars, buffer,
            buffer + table_words(num_vars), out);
}

std::vector<Cube> isop(const TruthTable& onset, const TruthTable& dc) {
  if (onset.num_vars() != dc.num_vars()) {
    throw std::invalid_argument("isop: arity mismatch");
  }
  std::vector<Cube> cubes;
  isop(onset.data(), (onset | dc).data(), onset.num_vars(), cubes);
  return cubes;
}

TruthTable cover_to_table(const std::vector<Cube>& cubes, unsigned num_vars) {
  TruthTable t(num_vars);
  for (std::uint64_t a = 0; a < t.num_bits(); ++a) {
    for (const auto& c : cubes) {
      if (c.evaluates_true(a)) {
        t.set_bit(a, true);
        break;
      }
    }
  }
  return t;
}

} // namespace rcgp::tt
