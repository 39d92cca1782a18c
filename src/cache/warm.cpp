#include "cache/warm.hpp"

#include <array>
#include <stdexcept>
#include <vector>

#include "tt/npn.hpp"
#include "util/stopwatch.hpp"

namespace rcgp::cache {

namespace {

/// Representatives of every single-output NPN class of exactly `n`
/// inputs, as raw table words. Ascending enumeration visits the minimal
/// (= canonical) member of each class first; marking the whole orbit of
/// each new representative in a seen-set of 2^(2^n) bits skips the rest
/// of the class without ever running a full canonization.
std::vector<std::uint64_t> class_representatives(unsigned n) {
  const std::uint64_t mask = tt::npn_mask(n); // n <= 4: at most 16 bits
  std::vector<bool> seen(mask + 1, false);
  std::vector<std::uint64_t> reps;
  std::array<std::uint64_t, 1u << kMaxJointVars> variants{};
  for (std::uint64_t v = 0; v <= mask; ++v) {
    if (seen[v]) {
      continue;
    }
    reps.push_back(v);
    tt::for_each_permutation(n, [&](const auto&,
                                    const tt::WordPermutation& move) {
      tt::phase_variants(move.apply(v), n, variants);
      for (unsigned phase = 0; phase < (1u << n); ++phase) {
        seen[variants[phase]] = true;
        seen[variants[phase] ^ mask] = true;
      }
    });
  }
  return reps;
}

} // namespace

WarmResult warm(Store& store, const WarmOptions& options) {
  if (options.max_vars == 0 || options.max_vars > kMaxJointVars) {
    throw std::invalid_argument("cache: warm supports 1.." +
                                std::to_string(kMaxJointVars) + " inputs");
  }
  util::Stopwatch watch;
  WarmResult result;

  // Gather every representative first so progress has a denominator.
  std::vector<std::pair<unsigned, std::uint64_t>> reps;
  for (unsigned n = 1; n <= options.max_vars; ++n) {
    for (const std::uint64_t v : class_representatives(n)) {
      reps.emplace_back(n, v);
    }
  }
  result.classes = reps.size();

  std::uint64_t done = 0;
  for (const auto& [n, v] : reps) {
    CanonicalSpec canon;
    canon.tables.emplace_back(n);
    canon.tables[0].set_word(0, v);
    canon.key = spec_key(canon.tables);
    // The representative is the minimal class member, so the identity
    // transform (the default) is its canonization.
    if (options.skip_existing && store.contains(canon.key)) {
      ++result.skipped;
    } else {
      const exact::ExactResult ex =
          exact::exact_synthesize(canon.tables, options.exact);
      if (ex.status == exact::ExactStatus::kSolved && ex.netlist) {
        store.insert_canonical(canon, *ex.netlist, "exact");
        ++result.solved;
        if (options.save_every != 0 &&
            result.solved % options.save_every == 0) {
          store.save();
        }
      } else {
        ++result.timeouts;
      }
    }
    ++done;
    if (options.progress) {
      options.progress(done, result.classes);
    }
  }
  store.save();
  result.seconds = watch.seconds();
  return result;
}

} // namespace rcgp::cache
